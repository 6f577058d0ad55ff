"""Every function the benchmark tracer patches still exists, and the CLI
runs the traced functions themselves.

``perfbench.spans.Tracer.install`` looks up each ``perfbench.layers`` target
by name and raises if one is gone, so a renamed or deleted traced function
fails here rather than only in the next traced benchmark run.  A traced
function that the CLI reaches only through an untraced twin would read zero
time in every run; the spans of a traced command show it does not.
"""

import importlib
import sys
from pathlib import Path

import pytest

# the tracer patches only loaded modules, and the CLI imports this one lazily
import fingerkit._array_cli  # noqa: F401
from fingerkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.layers import TARGETS  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402


def test_targets_install_trace_and_uninstall(capsys):
    originals = {
        (module, attr): getattr(importlib.import_module(module), attr)
        for _, module, attr, _ in TARGETS
    }
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        for (module, attr), original in originals.items():
            assert getattr(sys.modules[module], attr).__wrapped__ is original
        tracer.invocation = 0
        assert main(["grasp", "--diameter-mm", "100"]) == 0
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
    names = {span.name for span in tracer.spans}
    assert {"cli.run", "config.load_config", "finger.static_tip_force",
            "finger.grasp_assess"} <= names
    capsys.readouterr()


def _traced_spans(argv, out):
    """The spans of one traced CLI invocation that writes into ``out``."""
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        tracer.invocation = 0
        assert main([*argv, "--out", str(out)]) == 0
    finally:
        tracer.uninstall()
    return tracer.spans


@pytest.mark.parametrize("argv, layers", [
    (["force", "--samples", "50"],
     {"finger.tendon_excursion", "finger.tip_velocity",
      "linkage.chain_derivatives", "kernels.loop_solve_batch"}),
    (["workspace", "--samples", "5", "--psi-samples", "3"],
     {"finger.workspace", "finger.tip_trace", "linkage.sweep_chain",
      "kernels.loop_sweep_continuity"}),
])
def test_commands_run_the_traced_layers(argv, layers, tmp_path):
    assert layers <= {span.name for span in _traced_spans(argv, tmp_path)}


@pytest.mark.parametrize("argv", [
    ["sweep", "--samples", "20"],
    ["workspace", "--samples", "5", "--psi-samples", "3"],
])
def test_sweep_chain_solves_each_loop_once_by_continuity(argv, tmp_path):
    spans = _traced_spans(argv, tmp_path)
    sweeps = [i for i, span in enumerate(spans) if span.name == "linkage.sweep_chain"]
    assert len(sweeps) == 1
    kernels = [span.name for span in spans if span.name.startswith("kernels.")]
    assert kernels == ["kernels.loop_sweep_continuity"] * 2
    assert all(span.parent == sweeps[0] for span in spans
               if span.name.startswith("kernels."))

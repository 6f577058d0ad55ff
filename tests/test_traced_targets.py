"""Every function the benchmark tracer patches still exists.

``perfbench.spans.Tracer.install`` looks up each ``perfbench.layers`` target
by name and raises if one is gone, so a renamed or deleted traced function
fails here rather than only in the next traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

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

"""What a fresh interpreter imports: analyze, registry and safety start
without numpy, grasp and validate without the number-formatting kernels,
the package exports resolve lazily, and a run of validate alone loads every
module the benchmark tracer patches.

Each check runs in its own interpreter, because this test process has long
since imported the whole package.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))


def _python(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=ENV, cwd=ROOT, timeout=120)


@pytest.mark.parametrize("command", ["analyze", "registry", "safety"])
def test_quick_commands_import_no_numpy(command):
    done = _python("-X", "importtime", "-m", "fingerkit.cli", command)
    assert done.returncode == 0, done.stderr
    imported = [line.rsplit("|", 1)[1].strip()
                for line in done.stderr.splitlines()
                if line.startswith("import time:")]
    assert "fingerkit.registry" in imported
    assert [name for name in imported if name.split(".")[0] == "numpy"] == []


@pytest.mark.parametrize("argv", [
    ["grasp", "--diameter-mm", "80"],
    ["validate", "--samples", "2"],
])
def test_array_commands_that_emit_no_table_skip_the_kernels(argv):
    done = _python("-c", textwrap.dedent(f"""
        import contextlib
        import io
        import sys
        import fingerkit.cli

        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            assert fingerkit.cli.main({argv!r}) == 0
        assert "fingerkit._array_cli" in sys.modules
        assert "fingerkit._numfmt" not in sys.modules
    """))
    assert done.returncode == 0, done.stderr


def test_every_export_resolves_lazily():
    done = _python("-c", textwrap.dedent("""
        import sys
        import fingerkit
        assert "numpy" not in sys.modules
        assert not hasattr(fingerkit, "no_such_name")
        for name in fingerkit.__all__:
            getattr(fingerkit, name)
            assert name in dir(fingerkit), name
        assert fingerkit.solve_chain is fingerkit.linkage.solve_chain
    """))
    assert done.returncode == 0, done.stderr


def test_validate_alone_loads_every_traced_module():
    # the traced benchmark imports the CLI, runs only the workload's own
    # commands, and then patches every perfbench.layers target
    done = _python("-c", textwrap.dedent("""
        import contextlib
        import io
        import sys
        import fingerkit.cli
        from perfbench.layers import TARGETS
        from perfbench.spans import Tracer

        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(io.StringIO()):
            assert fingerkit.cli.main(["validate", "--samples", "2"]) == 0
        originals = {(module, attr): getattr(sys.modules[module], attr)
                     for _, module, attr, _ in TARGETS}
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            for (module, attr), original in originals.items():
                assert getattr(sys.modules[module], attr).__wrapped__ is original
        finally:
            tracer.uninstall()
        for (module, attr), original in originals.items():
            assert getattr(sys.modules[module], attr) is original
    """))
    assert done.returncode == 0, done.stderr

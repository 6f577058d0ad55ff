"""The process entry, ``cli.console``: what ``python -m fingerkit.cli`` and
the ``fingerkit`` script do around ``main``.

The entry flushes stdout while a failure can still be one ``error:`` line,
then freezes the garbage collector so that the exiting interpreter skips
its final collections.  ``main`` itself keeps normal collection.  Every
check but the first runs in its own interpreter.
"""

import errno
import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from fingerkit.cli import main

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import references  # noqa: E402
from perfbench.checks import file_hashes, sha256_hex  # noqa: E402

# the first reference invocation of each of these commands
ENTRY_REFERENCES = [
    next(inv for invocations in references.REFERENCES.values()
         for inv in invocations if inv.command == command)
    for command in ("sweep", "workspace", "force", "grasp", "validate")
]


def _entry(argv, cwd, stdout=subprocess.PIPE, buffered=False,
           **kwargs) -> subprocess.CompletedProcess:
    """``python -m fingerkit.cli *argv``, stderr captured; ``buffered``
    removes ``PYTHONUNBUFFERED``, so that stdout to a file is written at
    exit, else it is set to 1, so that each print writes at once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    return subprocess.run([sys.executable, "-m", "fingerkit.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          cwd=cwd, timeout=120, **kwargs)


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["grasp", "--diameter-mm", "80"],
    ["validate", "--samples", "2"],
    ["sweep", "--samples", "abc"],
])
def test_main_keeps_normal_collection(argv, capsys):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    main(argv)
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_entry_freezes_and_still_runs_atexit(tmp_path):
    code = textwrap.dedent("""
        import atexit, gc, sys
        atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0,
                                      file=sys.stderr))
        sys.argv[1:] = ["analyze"]
        from fingerkit.cli import console
        console()
    """)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), cwd=tmp_path,
        timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith(b"M=")
    assert done.stderr == b"frozen True\n"


@pytest.mark.parametrize("invocation", ENTRY_REFERENCES, ids=lambda inv: inv.key())
def test_entry_reproduces_recorded_hashes(invocation, tmp_path):
    out = tmp_path / "out"
    done = _entry(invocation.argv(out), tmp_path)
    assert done.returncode == 0, done.stderr
    recorded = references.load()[invocation.key()]
    assert sha256_hex(done.stdout) == recorded["stdout_sha256"]
    assert file_hashes(out) == recorded["files"]


@pytest.mark.parametrize("argv, code, stdout", [
    (["analyze"], 0, True),
    (["safety", "--force-n", "1000"], 1, True),  # a verdict exit
    (["sweep", "--samples", "abc"], 2, False),
])
def test_exit_codes_pass_through(argv, code, stdout, tmp_path):
    done = _entry(argv, tmp_path)
    assert done.returncode == code
    assert bool(done.stdout) is stdout
    lines = done.stderr.decode().splitlines()
    assert (len(lines) == 1 and lines[0].startswith("error: ")) is (code == 2)


FULL_DEVICE_ARGV = [
    ["analyze"],
    ["registry"],
    ["grasp", "--diameter-mm", "80"],
    ["validate", "--samples", "20"],
]
FULL_DEVICE_ERROR = (f"error: [Errno {errno.ENOSPC}] "
                     f"{os.strerror(errno.ENOSPC)}: '<stdout>'\n").encode()
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", FULL_DEVICE_ARGV)
def test_failed_stdout_flush_is_one_error_line(argv, tmp_path):
    """Buffered stdout reaches a full device only at the entry's flush;
    that failure is one line naming ``<stdout>``, exit 2, and shutdown's
    own flush adds nothing."""
    with open("/dev/full", "w") as full:
        done = _entry(argv, tmp_path, stdout=full, buffered=True)
    assert (done.returncode, done.stderr) == (2, FULL_DEVICE_ERROR)


@needs_dev_full
@pytest.mark.parametrize("argv", FULL_DEVICE_ARGV)
def test_failed_unbuffered_print_names_stdout(argv, tmp_path):
    """With ``PYTHONUNBUFFERED=1`` the write fails at ``main``'s first
    print instead, and gives the same line."""
    with open("/dev/full", "w") as full:
        done = _entry(argv, tmp_path, stdout=full)
    assert (done.returncode, done.stderr) == (2, FULL_DEVICE_ERROR)


def test_closed_stdout_is_still_zero(tmp_path):
    # with fd 1 closed at start-up, sys.stdout is None and print writes nothing
    done = _entry(["analyze"], tmp_path, stdout=subprocess.DEVNULL,
                  preexec_fn=lambda: os.close(1))
    assert (done.returncode, done.stderr) == (0, b"")

"""Running CLI invocations: in a fresh interpreter, or in this process."""

from __future__ import annotations

import io
import os
import signal
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

INVOCATION_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    returncode: int
    wall_s: float
    peak_rss_mb: float | None
    stdout: bytes


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(cmd: list[str], env: dict, scratch: Path,
          timeout: float = INVOCATION_TIMEOUT_S) -> Outcome:
    """Run ``cmd`` to completion; wall time and the child's own peak RSS.

    stdout and stderr go to files in ``scratch``.  A child still running
    after ``timeout`` seconds is killed and reported with exit code -9.
    """
    scratch.mkdir(parents=True, exist_ok=True)
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB
    return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   out_path.read_bytes())


class CliProcess:
    """``python -m fingerkit.cli`` in a fresh interpreter per invocation."""

    def __init__(self, src: Path, scratch: Path) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.scratch = scratch

    def python(self, code: str) -> Outcome:
        return spawn([sys.executable, "-c", code], self.env, self.scratch)

    def __call__(self, argv: list[str]) -> Outcome:
        return spawn([sys.executable, "-m", "fingerkit.cli", *argv],
                     self.env, self.scratch)


class InProcess:
    """``fingerkit.cli.main(argv)`` in this interpreter, output captured."""

    def __init__(self, main) -> None:
        self.main = main

    def __call__(self, argv: list[str]) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                # what the interpreter does with an uncaught exception
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - start
        return Outcome(code, wall, None, out.getvalue().encode("utf-8"))

"""Fixed reference invocations and their recorded output hashes.

Every benchmark run replays its workload's reference invocations and
compares the SHA-256 of stdout and of each emitted file with
``references.json``.  Re-record (only when a change to emitted bytes is
intended and explained) from the repository root with::

    python3 -m perfbench.references
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from .checks import file_hashes, sha256_hex
from .runner import CliProcess
from .workloads import Invocation, force, sweep, validate, workspace

PATH = Path(__file__).with_name("references.json")

REFERENCES: dict[str, list[Invocation]] = {
    "emit": [
        sweep(500, "12.500", "svg"),
        sweep(300, "-30.000", "json"),
        workspace(40, 12, "svg"),
        workspace(30, 8, "json"),
        force(400, "single", "20.000", "svg"),
        force(300, "double", "38.000", "json"),
    ],
    "oracle-validate": [validate(1000)],
    "quick-queries": [
        Invocation("analyze"),
        Invocation("registry"),
        Invocation("safety", ("--force-n", "50.00")),
        Invocation("grasp", ("--diameter-mm", "80.00", "--tendon", "single",
                             "--tension-n", "30.000", "--theta1-deg", "60.000"),
                   feasible=True),
        Invocation("grasp", ("--thickness-mm", "1.500", "--tendon", "double",
                             "--tension-n", "38.000", "--theta1-deg", "45.000")),
    ],
}


def load() -> dict[str, dict]:
    return json.loads(PATH.read_text(encoding="utf-8"))


def record(root: Path) -> dict[str, dict]:
    work = root / ".perfbench" / "record"
    runner = CliProcess(root / "src", work)
    recorded = {}
    for invocations in REFERENCES.values():
        for inv in invocations:
            out_dir = work / "out"
            shutil.rmtree(out_dir, ignore_errors=True)
            outcome = runner(inv.argv(out_dir))
            if outcome.returncode != 0:
                raise SystemExit(f"reference {inv.key()} exited {outcome.returncode}")
            recorded[inv.key()] = {"stdout_sha256": sha256_hex(outcome.stdout),
                                   "files": file_hashes(out_dir)}
    shutil.rmtree(work, ignore_errors=True)
    return recorded


if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    PATH.write_text(json.dumps(record(root), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")

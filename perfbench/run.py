"""Benchmark one fingerkit CLI workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload emit --seed 1 --seconds 44 --trace 0

The seed builds one round of CLI invocations (``workloads.py``); the round
is repeated, one invocation after another from this single client, until
the next round would overrun ``--seconds``.  Every invocation is checked
(``checks.py``), as are the workload's fixed reference invocations
(``references.py``), and repeated rounds must give byte-identical output.

``--trace 0`` times untraced ``python -m fingerkit.cli`` subprocesses and
reports the end-to-end metrics.  ``--trace 1`` calls ``fingerkit.cli.main``
in this process, alternating untraced rounds with rounds in which every
layer function is wrapped in a span (``layers.py``), and reports the
per-layer metrics.  The last stdout line is one JSON object; details,
machine information and the spans of the first traced round are written
under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import references, stats  # noqa: E402
from perfbench.checks import check_invocation, sha256_hex  # noqa: E402
from perfbench.layers import TARGETS, layer_metrics  # noqa: E402
from perfbench.runner import CliProcess, InProcess  # noqa: E402
from perfbench.spans import Tracer, summarize  # noqa: E402
from perfbench.workloads import WORKLOADS, Invocation, plan_round  # noqa: E402

SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
CONFIG = SRC / "fingerkit" / "data" / "default_finger.json"
PROBES = 9  # fresh interpreters per traced run for import timing
SETUP_PROBES = 15  # set-up timings per untraced run, spread over its time

SETUP_PROBE = (
    "import fingerkit.cli\n"
    "from fingerkit.config import default_config_path, load_config\n"
    "from fingerkit.registry import default_registry\n"
    "load_config(default_config_path())\n"
    "default_registry()\n"
)
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import fingerkit.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)
INFO_PROBE = (
    "import json, platform, numpy, fingerkit, fingerkit._kernels as k\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'fingerkit': fingerkit.__version__,"
    " 'backend': k.ACTIVE_BACKEND}))\n"
)


def metric_units(trace: bool) -> dict[str, str]:
    """Reported metric names and units, in order, as BENCHMARK.json lists them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    """HEAD of a git checkout at ROOT, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_info(cli: CliProcess) -> dict:
    info = {"nproc": os.cpu_count(), "cpu": _cpu_model(), "commit": _commit(),
            "src_sha256": _source_sha256()}
    outcome = cli.python(INFO_PROBE)
    if outcome.returncode == 0:
        info.update(json.loads(outcome.stdout))
    return info


class Session:
    """Executes and checks invocations, keeping one record per invocation."""

    def __init__(self, workload: str, runner) -> None:
        self.runner = runner
        self.tracer: Tracer | None = None  # when set, each invocation is a root span
        self.work = STATE / "work" / workload
        self.config_sha = sha256_hex(CONFIG.read_bytes())
        self.records: list[dict] = []
        self.after = lambda: None  # called after every invocation

    def execute(self, inv: Invocation, reference: dict | None = None,
                invocation_id: int = -1) -> dict:
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        if self.tracer is None:
            outcome = self.runner(inv.argv(out_dir))
        else:
            self.tracer.invocation = invocation_id
            with self.tracer.span("invocation"):
                outcome = self.runner(inv.argv(out_dir))
        problems, digest = check_invocation(inv, outcome.returncode, outcome.stdout,
                                            out_dir, self.config_sha, reference)
        written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
        record = {"argv": inv.key(), "wall_s": outcome.wall_s,
                  "peak_rss_mb": outcome.peak_rss_mb, "returncode": outcome.returncode,
                  "units": inv.units, "rows": inv.rows, "bytes_written": written,
                  "invocation": invocation_id, "digest": digest, "problems": problems}
        self.records.append(record)
        self.after()
        return record

    def references(self, workload: str) -> None:
        recorded = references.load()
        for inv in references.REFERENCES[workload]:
            self.execute(inv, recorded.get(inv.key(), {"stdout_sha256": "",
                                                       "files": {}}))

    def round(self, plan: list[Invocation], first_id: int = 0) -> list[dict]:
        return [self.execute(inv, invocation_id=first_id + k)
                for k, inv in enumerate(plan)]

    def check_repeats(self, rounds: list[list[dict]], plan: list[Invocation]) -> None:
        """Every repeat of an invocation must match its first output."""
        if len(rounds) == 1:
            rounds = rounds + [[self.execute(plan[0])]]
        for later in rounds[1:]:
            for first, again in zip(rounds[0], later):
                if again["digest"] != first["digest"]:
                    again["problems"].append("output differs from the first round")

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def repeat(step, deadline: float) -> list:
    """Call ``step`` at least once, and again while another call fits."""
    results = []
    while True:
        started = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return results


def _probes(cli: CliProcess, code: str, count: int = PROBES) -> list:
    outcomes = [cli.python(code) for _ in range(count)]
    if any(o.returncode != 0 for o in outcomes):
        raise RuntimeError(f"probe failed: {code!r}")
    return outcomes


class SetupProbes:
    """Set-up timings of fresh interpreters, taken between invocations.

    One probe at most every ``seconds / SETUP_PROBES``, so the probes see
    the same stretch of host speed as the latency samples around them.
    """

    def __init__(self, cli: CliProcess, seconds: float) -> None:
        self.cli = cli
        self.interval = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.walls: list[float] = []

    def __call__(self) -> None:
        if time.perf_counter() >= self.due:
            self.walls.extend(o.wall_s for o in _probes(self.cli, SETUP_PROBE, 1))
            self.due = time.perf_counter() + self.interval


def end_to_end(workload: str, seed: int, seconds: float, cli: CliProcess,
               details: dict) -> tuple[Session, dict]:
    deadline = time.perf_counter() + seconds
    session = Session(workload, cli)
    session.after = setup = SetupProbes(cli, seconds)
    session.references(workload)
    plan = plan_round(workload, seed)
    rounds = repeat(lambda: session.round(plan), deadline)
    session.check_repeats(rounds, plan)

    timed = [r for rnd in rounds for r in rnd]
    walls = [r["wall_s"] for r in timed]
    pct, tail_value, beyond = stats.tail(walls)
    throughput = sum(r["units"] for r in timed) / sum(walls)
    metrics = {
        "throughput_per_s": throughput,
        "latency_s.p50": statistics.median(walls),
        "latency_s.tail": tail_value,
        "setup_s": statistics.median(setup.walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in session.records),
    }
    details.update(rounds=len(rounds), invocations=len(walls),
                   setup_probes=len(setup.walls), tail_percentile=pct,
                   tail_samples_beyond=beyond)
    return session, metrics


def per_layer(workload: str, seed: int, seconds: float, cli: CliProcess,
              details: dict, spans_path: Path) -> tuple[Session, dict]:
    deadline = time.perf_counter() + seconds
    interpreter = _probes(cli, "pass")
    imports = _probes(cli, IMPORT_PROBE)
    sys.path.insert(0, str(SRC))
    import fingerkit.cli

    session = Session(workload, InProcess(fingerkit.cli.main))
    session.references(workload)
    plan = plan_round(workload, seed)
    kept: list[Tracer] = []
    layer_rounds: list[dict] = []
    walls = {"untraced": [], "traced": []}
    all_rounds = []

    def pair():
        plain = session.round(plan)
        session.tracer = tracer = Tracer()
        tracer.install(TARGETS)
        try:
            traced = session.round(plan, first_id=len(session.records))
        finally:
            tracer.uninstall()
            session.tracer = None
        rows = {r["invocation"]: r["rows"] for r in traced}
        layer_rounds.append(layer_metrics(summarize(tracer.spans), rows,
                                          sum(r["bytes_written"] for r in traced)))
        if not kept:
            kept.append(tracer)
        walls["untraced"].append(sum(r["wall_s"] for r in plain))
        walls["traced"].append(sum(r["wall_s"] for r in traced))
        all_rounds.extend([plain, traced])

    repeat(pair, deadline)
    session.check_repeats(all_rounds, plan)
    kept[0].write(spans_path)

    metrics = {name: statistics.median([m[name] for m in layer_rounds])
               for name in layer_rounds[0]}
    metrics["import.interpreter_s"] = statistics.median([o.wall_s for o in interpreter])
    metrics["import.fingerkit_s"] = statistics.median([float(o.stdout) for o in imports])
    untraced = statistics.median(walls["untraced"])
    metrics["trace.untraced_round_s"] = untraced
    metrics["trace.overhead_ratio"] = statistics.median(walls["traced"]) / untraced
    details.update(rounds=len(layer_rounds), spans=str(spans_path.relative_to(ROOT)))
    return session, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fingerkit" / "cli.py").is_file() or not CONFIG.is_file():
        print(f"error: no fingerkit sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_units(bool(args.trace))
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cli = CliProcess(SRC, STATE / "work" / "probe")
    machine = machine_info(cli)
    details: dict = {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "machine": machine}
    if args.trace:
        session, metrics = per_layer(args.workload, args.seed, args.seconds, cli,
                                     details, results / f"{args.workload}-spans.csv")
    else:
        session, metrics = end_to_end(args.workload, args.seed, args.seconds, cli,
                                      details)
    session.close()
    shutil.rmtree(STATE / "work", ignore_errors=True)

    attempted = len(session.records)
    failed = sum(1 for r in session.records if r["problems"])
    details.update(attempted=attempted, failed=failed, failed_ratio=failed / attempted,
                   metrics=metrics, invocations_log=session.records)
    (results / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")

    print("# machine: " + json.dumps(machine, sort_keys=True))
    for r in session.records:
        if r["problems"]:
            print(f"# FAILED {r['argv']}: {'; '.join(r['problems'])}")
    if not args.trace:
        print(f"# {details['invocations']} invocations in {details['rounds']} rounds, "
              f"{details['setup_probes']} set-up probes; "
              f"tail = p{details['tail_percentile']:g} with "
              f"{details['tail_samples_beyond']} samples beyond")
    print(f"# failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for name, unit in units.items():
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded workloads: each seed yields one round of CLI invocations.

A round is a fixed list of invocations; the benchmark repeats it until its
time is up, so every round does the same work and outputs can be compared
across rounds byte for byte.  Sizes are drawn as small jitters around fixed
strata so that seeds change the inputs but not the amount of work.  Every
drawn input is valid: each invocation is expected to exit 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# limits of the shipped default config and reference registry
PSI_RANGE_DEG = (-45.0, 45.0)
THETA1_RANGE_DEG = (30.0, 105.0)
MAX_TENSION_N = 38.0
GRASP_DIAMETER_MM = (30.0, 145.0)
ISO_LIMIT_N = 220.0

EMITTING = ("sweep", "workspace", "force")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: subcommand, options, and what it must produce."""

    command: str
    options: tuple[str, ...] = ()
    fmt: str | None = None
    rows: int = 0
    units: int = 1
    feasible: bool | None = None

    def argv(self, out_dir: Path | str | None) -> list[str]:
        argv = [self.command, *self.options]
        if self.command in EMITTING:
            argv += ["--out", str(out_dir), "--format", self.fmt]
        return argv

    def key(self) -> str:
        return " ".join(self.argv("<out>"))

    def expected_files(self) -> dict[str, int | None]:
        """Emitted file name -> data rows (None: not a row table)."""
        table = "json" if self.fmt == "json" else "csv"
        if self.command == "sweep":
            files = {f"joint_angles.{table}": self.rows, f"tip_trace.{table}": self.rows}
            if self.fmt == "svg":
                files.update({"joint_angles.svg": None, "tip_trace.svg": None})
        elif self.command == "workspace":
            files = {f"workspace.{table}": self.rows, "workspace_metrics.json": None}
            if self.fmt == "svg":
                files["workspace.svg"] = None
        elif self.command == "force":
            files = {f"force_profile.{table}": self.rows}
            if self.fmt == "svg":
                files["force_profile.svg"] = None
        else:
            files = {}
        return files


def _jitter(rng: random.Random, centre: int, share: float = 0.01) -> int:
    return int(round(centre * (1.0 + rng.uniform(-share, share))))


def _angle(rng: random.Random, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _tension(rng: random.Random) -> str:
    return f"{rng.uniform(0.05 * MAX_TENSION_N, MAX_TENSION_N):.3f}"


def sweep(samples: int, psi_deg: str, fmt: str) -> Invocation:
    return Invocation("sweep", ("--samples", str(samples), "--psi-deg", psi_deg),
                      fmt, rows=samples, units=2 * samples)


def workspace(samples: int, psi_samples: int, fmt: str) -> Invocation:
    rows = samples * psi_samples
    return Invocation("workspace", ("--samples", str(samples),
                                    "--psi-samples", str(psi_samples)),
                      fmt, rows=rows, units=rows)


def force(samples: int, tendon: str, tension: str, fmt: str) -> Invocation:
    return Invocation("force", ("--samples", str(samples), "--tendon", tendon,
                                "--tension-n", tension),
                      fmt, rows=samples, units=samples)


def validate(samples: int) -> Invocation:
    return Invocation("validate", ("--samples", str(samples)), units=samples)


# Rows per format, sized so that every invocation takes about the same wall
# time (~0.9 s on a 2-vCPU Xeon VM).  With clusters of different latency
# the median would sit in the gap between two of them and jump with host
# noise.
SWEEP_SAMPLES = {"csv": 27_000, "json": 14_000, "svg": 22_000}
WORKSPACE_SAMPLES = {"csv": 700, "json": 370, "svg": 810}  # x 100 psi samples
FORCE_SAMPLES = 6_200  # any format: the per-row solve dominates
TENDONS = ("single", "double")


def emit(rng: random.Random) -> list[Invocation]:
    psi = _angle(rng, *PSI_RANGE_DEG)
    plan = [sweep(_jitter(rng, n), psi, fmt) for fmt, n in SWEEP_SAMPLES.items()]
    plan += [workspace(_jitter(rng, n), _jitter(rng, 100), fmt)
             for fmt, n in WORKSPACE_SAMPLES.items()]
    # both tendon variants in every round, alternating over the formats
    first = rng.randrange(len(TENDONS))
    plan += [force(_jitter(rng, FORCE_SAMPLES), TENDONS[(first + k) % len(TENDONS)],
                   _tension(rng), fmt)
             for k, fmt in enumerate(("csv", "json", "svg"))]
    return plan


def oracle_validate(rng: random.Random) -> list[Invocation]:
    # the median lands in the middle stratum, so give it most of the calls
    return [validate(min(5000, max(1000, _jitter(rng, n))))
            for n in (1000, 2000, 2000, 2000, 5000)]


def _grasp(rng: random.Random, obj: str) -> Invocation:
    lo, hi = GRASP_DIAMETER_MM
    feasible = None
    if obj == "inside":
        options = ("--diameter-mm", f"{rng.uniform(lo + 5.0, hi - 5.0):.2f}")
        feasible = True
    elif obj == "outside":
        band = rng.choice(((5.0, lo - 5.0), (hi + 5.0, 250.0)))
        options = ("--diameter-mm", f"{rng.uniform(*band):.2f}")
        feasible = False
    else:
        options = ("--thickness-mm", f"{rng.uniform(0.2, 10.0):.3f}")
    options += ("--tendon", rng.choice(("single", "double")),
                "--tension-n", _tension(rng),
                "--theta1-deg", _angle(rng, *THETA1_RANGE_DEG))
    return Invocation("grasp", options, feasible=feasible)


def quick_queries(rng: random.Random) -> list[Invocation]:
    plan = [Invocation("analyze"), Invocation("registry")]
    plan += [Invocation("safety", ("--force-n", f"{rng.uniform(1.0, 0.9 * ISO_LIMIT_N):.2f}"))
             for _ in range(2)]
    plan += [_grasp(rng, obj) for obj in ("inside", "inside", "outside",
                                          "flat", "flat", "flat")]
    return plan


WORKLOADS = {
    "emit": emit,
    "oracle-validate": oracle_validate,
    "quick-queries": quick_queries,
}


def plan_round(workload: str, seed: int) -> list[Invocation]:
    """The seeded round of invocations for ``workload``, in run order."""
    rng = random.Random(f"{workload}:{seed}")
    plan = WORKLOADS[workload](rng)
    rng.shuffle(plan)
    return plan

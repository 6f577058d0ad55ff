"""Command-line surface: analyses, sweeps, and deterministic data files.

Subcommands
    analyze    mobility, loop count, and loop coefficients
    sweep      joint-angle curves and fingertip trace over the input range
    workspace  fingertip cloud over input x orientation, opening width
    force      static tip force profile for a tendon variant
    grasp      feasibility report for a cylinder or flat object
    safety     contact-force, clearance, and stroke checks
    validate   closed-form vs numeric-oracle agreement
    registry   reference-registry consistency report

Exit codes: 0 success, 1 domain error (no closure, rule violation, ...),
2 configuration, I/O or out-of-memory error.  Angles are degrees at this
boundary; emitted files are deterministic functions of the config (a hash
is embedded, never a timestamp), and CSV numbers carry 9 significant digits.
The emitting commands stay columnar from the solver to the file: tables
are float arrays, formatted a row block at a time and streamed to disk.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import FingerConfig, default_config_path, load_config
from .errors import ConfigError, FingerkitError
from .finger import (
    CylinderObject,
    FlatObject,
    GraspReport,
    TendonModel,
    force_profile,
    grasp_assess,
    static_tip_force,
    tip_trace,
    workspace,
)
from .linkage import (
    compute_mobility,
    count_loops,
    loop_coefficients,
    oracle_deviation,
    sweep_chain,
    NUM_JOINTS,
    NUM_LINKS,
)
from .registry import ReferenceRegistry, default_registry, registry_verify
from .safety import clearance_check, iso_contact_check, stroke_check
from .svgplot import Series, format_rows, render_svg


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _write(path: Path, chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _csv(header: list[str], table: np.ndarray, sha256: str):
    """CSV chunks, numbers as ``f"{x:.9g}"``."""
    yield f"# config_sha256={sha256}\n" + ",".join(header) + "\n"
    row = ",".join(["%.9g"] * table.shape[1]) + "\n"
    yield from format_rows(table, row, "")


def _dumps(doc: dict) -> str:
    """RFC 8259 JSON text: a non-finite number is an error, never ``NaN``."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FingerkitError(f"non-finite value in JSON output: {exc}") from exc


def _json_doc(payload: dict, sha256: str) -> str:
    doc = {"config_sha256": sha256}
    doc.update(payload)
    return _dumps(doc) + "\n"


def _json_table(header: list[str], table: np.ndarray, sha256: str, extra: dict):
    """JSON chunks, the same text as ``_json_doc`` with the rows as lists.

    ``%r`` of a finite float is its JSON number, and the row layout is the
    one ``json.dumps(indent=2)`` gives a list of lists at depth 1.
    """
    doc = _json_doc({"columns": header, "rows": [], **extra}, sha256)
    if not len(table):
        yield doc
        return
    before, after = doc.split('"rows": []', 1)
    yield before + '"rows": [\n'
    row = "    [\n" + ",\n".join(["      %r"] * table.shape[1]) + "\n    ]"
    for i, text in enumerate(format_rows(table, row, ",\n")):
        yield (",\n" if i else "") + text
    yield "\n  ]" + after


def _write_table(out: Path, stem: str, fmt: str, header: list[str],
                 table: np.ndarray, sha256: str, **extra) -> None:
    """``<stem>.json`` (with ``extra`` fields) for the json format, else
    ``<stem>.csv``."""
    if not np.isfinite(table).all():
        raise FingerkitError(f"{stem} has non-finite values; nothing written")
    if fmt == "json":
        _write(out / f"{stem}.json", _json_table(header, table, sha256, extra))
    else:
        _write(out / f"{stem}.csv", _csv(header, table, sha256))


def _table(rows: np.ndarray, angle_columns: int) -> np.ndarray:
    """Structured float rows as a 2-D table, the leading angles in degrees."""
    table = rows.view(np.float64).reshape(len(rows), -1).copy()
    table[:, :angle_columns] = np.degrees(table[:, :angle_columns])
    return table


def _require_finite(value: float, flag: str, minimum: float | None = None,
                    strict: bool = True) -> float:
    """CLI boundary check: a finite number, optionally bounded below."""
    if math.isfinite(value) and (
        minimum is None or value > minimum or (not strict and value == minimum)
    ):
        return value
    bound = "" if minimum is None else f" {'>' if strict else '>='} {minimum:g}"
    raise ConfigError(f"{flag} must be a finite number{bound}, got {value!r}")


def _require_counts(message: str, *counts: int) -> None:
    """CLI boundary check of sample counts: each >= 2, and few enough that
    numpy can size a float64 table of their product by 9 columns (the
    widest table emitted); larger counts are reported as out of memory."""
    if min(counts) < 2:
        raise ConfigError(message)
    if math.prod(counts) * 9 * 8 > np.iinfo(np.intp).max:
        raise MemoryError


def _theta1_grid(cfg: FingerConfig, samples: int) -> np.ndarray:
    lo, hi = cfg.geometry.theta1_range
    return np.linspace(lo, hi, samples)


def _resolve_tendon(cfg: FingerConfig,
                    args: argparse.Namespace) -> tuple[TendonModel, float]:
    """The requested tendon variant and tension (default: its maximum)."""
    tendon = cfg.require_tendon()
    if args.tendon == "double":
        tendon = tendon.as_double()
    elif args.tendon not in (None, tendon.kind):
        raise ConfigError(
            "config ships a double-tendon model; a single-tendon variant needs "
            "spring parameters in the config"
        )
    tension = args.tension_n
    return tendon, tendon.max_tension if tension is None else tension


def _cmd_analyze(cfg: FingerConfig, args: argparse.Namespace) -> int:
    mobility = compute_mobility(NUM_LINKS, NUM_JOINTS)
    loops = count_loops(NUM_JOINTS, NUM_LINKS)
    print(f"M={mobility}, loops={loops}")
    for loop in (1, 2):
        c = loop_coefficients(cfg.geometry, loop)
        print(
            f"loop{loop}: kappa1={_fmt(c.kappa1)} kappa2={_fmt(c.kappa2)} "
            f"kappa3={_fmt(c.kappa3)}"
        )
    lo, hi = cfg.geometry.theta1_range
    print(f"theta1 range: [{_fmt(math.degrees(lo))}, {_fmt(math.degrees(hi))}] deg")
    return 0


_TIP_HEADER = [
    "theta1_deg", "psi_deg", "tip_x_mm", "tip_y_mm", "grip_x_mm", "grip_y_mm",
]


def _cmd_sweep(cfg: FingerConfig, args: argparse.Namespace) -> int:
    _require_counts("sweep requires --samples >= 2", args.samples)
    finger = cfg.require_finger()
    psi = math.radians(_require_finite(args.psi_deg, "--psi-deg"))
    sweep = sweep_chain(cfg.geometry, _theta1_grid(cfg, args.samples))
    angle_header = [
        "theta1_deg", "theta2_deg", "theta3_deg", "theta5_deg",
        "theta6_deg", "theta7_deg", "mcp_deg", "pip_deg", "dip_deg",
    ]
    angles = np.degrees(np.column_stack([
        sweep.theta1, sweep.theta2, sweep.theta3, sweep.theta5, sweep.theta6,
        sweep.theta7, sweep.theta_mcp, sweep.theta_pip, sweep.theta_dip,
    ]))
    trace = _table(tip_trace(finger, sweep, psi), 2)

    out = args.out
    _write_table(out, "joint_angles", args.format, angle_header, angles, cfg.sha256)
    _write_table(out, "tip_trace", args.format, _TIP_HEADER, trace, cfg.sha256)
    if args.format == "svg":
        _write(out / "joint_angles.svg", [render_svg(
            [
                Series("theta2", angles[:, 0], angles[:, 1]),
                Series("theta6", angles[:, 0], angles[:, 4]),
            ],
            x_label="theta1 (deg)",
            y_label="dependent angle (deg)",
            title="Joint angles vs input",
        )])
        _write(out / "tip_trace.svg", [render_svg(
            [Series("fingertip", trace[:, 2], trace[:, 3])],
            x_label="x (mm)",
            y_label="y (mm)",
            title="Fingertip trace",
        )])
    return 0


def _cmd_workspace(cfg: FingerConfig, args: argparse.Namespace) -> int:
    samples, psi_samples = args.samples, args.psi_samples
    _require_counts("workspace requires --samples and --psi-samples >= 2",
                    samples, psi_samples)
    finger = cfg.require_finger()
    thumb = cfg.require_thumb_line()
    result = workspace(cfg.geometry, finger, samples, psi_samples, thumb)
    table = _table(result.points, 2)

    out = args.out
    metrics = {
        "max_opening_mm": result.max_opening_mm,
        "theta1_samples": samples,
        "psi_samples": psi_samples,
    }
    _write_table(out, "workspace", args.format, _TIP_HEADER, table, cfg.sha256)
    _write(out / "workspace_metrics.json", [_json_doc(metrics, cfg.sha256)])
    if args.format == "svg":
        # one series per orientation: rows are theta1-major, psi-minor
        by_psi = table.reshape(samples, psi_samples, table.shape[1])
        series = [
            Series(f"psi {by_psi[0, j, 1]:.0f} deg", by_psi[:, j, 4], by_psi[:, j, 5])
            for j in range(psi_samples)
        ]
        # legend stays readable with at most 6 labelled orientations
        if len(series) > 6:
            step = (len(series) - 1) / 5.0
            series = [series[round(i * step)] for i in range(6)]
        _write(out / "workspace.svg", [render_svg(
            series, x_label="x (mm)", y_label="y (mm)",
            title="Fingertip workspace",
        )])
    return 0


def _cmd_force(cfg: FingerConfig, args: argparse.Namespace) -> int:
    _require_counts("force requires --samples >= 2", args.samples)
    finger = cfg.require_finger()
    tendon, tension = _resolve_tendon(cfg, args)
    profile = force_profile(
        tendon, cfg.geometry, finger, _theta1_grid(cfg, args.samples), tension)
    table = _table(profile, 1)

    header = [
        "theta1_deg", "excursion_mm", "dexcursion_mm_per_rad",
        "tip_speed_mm_per_rad", "force_n",
    ]
    out = args.out
    _write_table(out, "force_profile", args.format, header, table, cfg.sha256,
                 tendon=tendon.kind, tension_n=tension)
    if args.format == "svg":
        _write(out / "force_profile.svg", [render_svg(
            [Series(f"{tendon.kind} tendon", table[:, 0], table[:, 4])],
            x_label="theta1 (deg)",
            y_label="tip force (N)",
            title="Static tip force",
        )])
    return 0


def _report_dict(report: GraspReport) -> dict:
    return {
        "grasp_type": report.grasp_type,
        "feasible": report.feasible,
        "predicted_force_n": report.predicted_force,
        "margin": report.margin,
        "notes": report.notes,
    }


def _cmd_grasp(cfg: FingerConfig, args: argparse.Namespace) -> int:
    finger = cfg.require_finger()
    tendon, tension = _resolve_tendon(cfg, args)
    theta1 = (
        math.radians(args.theta1_deg)
        if args.theta1_deg is not None
        else cfg.geometry.theta1_range[0]
    )
    obj = (
        CylinderObject(_require_finite(args.diameter_mm, "--diameter-mm", 0.0))
        if args.diameter_mm is not None
        else FlatObject(_require_finite(args.thickness_mm, "--thickness-mm", 0.0))
    )
    force = static_tip_force(tendon, cfg.geometry, finger, theta1, tension)
    report = grasp_assess(obj, default_registry(), force)
    print(_dumps(_report_dict(report)))
    return 0


def _cmd_safety(cfg: FingerConfig, args: argparse.Namespace) -> int:
    registry = default_registry()
    force = args.force_n
    if force is None:
        force = registry.value("pinch_force_max_n")
    else:
        _require_finite(force, "--force-n", 0.0, strict=False)
    iso = iso_contact_check(force, "thigh_knee", registry)
    clearance = clearance_check(
        registry.value("toilet_width_mm"),
        registry.value("shoulder_width_mm"),
        registry.value("secondary_arm_outer_diameter_mm"),
    )
    stroke = stroke_check(
        registry.value("trouser_raise_mm"),
        registry.value("secondary_extension_mm"),
    )
    doc = {
        "iso_contact": {
            "passed": iso.passed,
            "applied_limit_n": iso.applied_limit,
            "measured_n": iso.measured,
            # null: zero force has no finite margin
            "margin_ratio": (iso.margin_ratio if math.isfinite(iso.margin_ratio)
                             else None),
        },
        "clearance": {
            "per_side_clearance_mm": clearance.per_side_clearance,
            "fits": clearance.fits,
        },
        "stroke": {
            "passed": stroke.passed,
            "slack_mm": stroke.slack,
        },
    }
    print(_dumps(doc))
    return 0 if (iso.passed and clearance.fits and stroke.passed) else 1


def _cmd_validate(cfg: FingerConfig, args: argparse.Namespace) -> int:
    _require_counts("validate requires --samples >= 2", args.samples)
    started = time.perf_counter()
    dev2, dev6 = oracle_deviation(cfg.geometry, _theta1_grid(cfg, args.samples))
    elapsed = time.perf_counter() - started
    print(f"samples={args.samples}")
    print(f"max |theta2 closed - numeric| = {dev2:.3e} rad")
    print(f"max |theta6 closed - numeric| = {dev6:.3e} rad")
    print(f"max deviation = {max(dev2, dev6):.3e} rad")
    print(f"elapsed: {elapsed:.3f} s", file=sys.stderr)
    return 0


def _cmd_registry(cfg: FingerConfig, args: argparse.Namespace) -> int:
    if args.registry_path is None:
        registry = default_registry()
    else:
        registry = ReferenceRegistry.load(args.registry_path, validate=False)
    report = registry_verify(registry)
    failures = 0
    for result in report:
        status = "PASS" if result.passed else "FAIL"
        if not result.passed:
            failures += 1
        print(f"{status} {result.rule_id}: {result.detail}")
    print(f"{len(report) - failures}/{len(report)} rules passed")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "workspace": _cmd_workspace,
    "force": _cmd_force,
    "grasp": _cmd_grasp,
    "safety": _cmd_safety,
    "validate": _cmd_validate,
    "registry": _cmd_registry,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; raises domain/config errors."""
    return _COMMANDS[args.command](load_config(args.config), args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fingerkit",
        description="Kinematics and static-force analyses of a tendon-driven "
                    "linkage finger gripper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = False, samples: int | None = None):
        p.add_argument("--config", type=Path, default=default_config_path(),
                       help="finger config JSON (default: shipped demo finger)")
        if out:
            p.add_argument("--out", type=Path, required=True,
                           help="output directory for emitted files")
            p.add_argument("--format", choices=("csv", "json", "svg"),
                           default="csv",
                           help="csv (default), json, or svg (csv + plots)")
        if samples is not None:
            p.add_argument("--samples", type=int, default=samples,
                           help=f"sample count (default {samples})")

    common(sub.add_parser("analyze", help="mobility, loops, coefficients"))

    p = sub.add_parser("sweep", help="joint-angle curves and tip trace")
    common(p, out=True, samples=100)
    p.add_argument("--psi-deg", type=float, default=0.0,
                   help="finger orientation for the trace (default 0)")

    p = sub.add_parser("workspace", help="fingertip cloud and opening width")
    common(p, out=True, samples=100)
    p.add_argument("--psi-samples", type=int, default=25,
                   help="orientation sample count (default 25)")

    p = sub.add_parser("force", help="static tip-force profile")
    common(p, out=True, samples=100)
    p.add_argument("--tendon", choices=("single", "double"), default=None,
                   help="override the config's tendon variant")
    p.add_argument("--tension-n", type=float, default=None,
                   help="tendon tension (default: config max tension)")

    p = sub.add_parser("grasp", help="grasp feasibility report")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--diameter-mm", type=float, help="cylindrical object")
    group.add_argument("--thickness-mm", type=float, help="flat object")
    p.add_argument("--tendon", choices=("single", "double"), default=None)
    p.add_argument("--tension-n", type=float, default=None)
    p.add_argument("--theta1-deg", type=float, default=None,
                   help="contact configuration (default: range start)")

    p = sub.add_parser("safety", help="contact/clearance/stroke checks")
    common(p)
    p.add_argument("--force-n", type=float, default=None,
                   help="contact force to check (default: registry pinch max)")

    p = sub.add_parser("validate", help="closed form vs numeric oracle")
    common(p, samples=1000)

    p = sub.add_parser("registry", help="registry consistency report")
    common(p)
    p.add_argument("--registry-path", type=Path, default=None,
                   help="verify a registry file instead of the shipped one")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use fewer samples", file=sys.stderr)
        return 2
    except FingerkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

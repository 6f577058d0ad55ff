"""The array subcommands of :mod:`fingerkit.cli`: sweep, workspace, force,
grasp and validate.

They need numpy and the solver stack (finger, linkage, svgplot), so
:func:`fingerkit.cli.run` imports this module only for them, and the first
of them loads the whole stack; analyze, registry and safety start without
numpy.  The emitting commands stay columnar from the solver to the file:
tables are float arrays, formatted a row block at a time by the number
kernels of :mod:`fingerkit._numfmt` and streamed to disk.  The writers
import those kernels on first use, so grasp and validate never load them.

Every command runs with numpy's floating-point warnings off and checks
what it emits instead.  The emitting commands only compute arrays and hand
them to :func:`_emit`, which owns the one write rule: every table is
checked finite, every JSON document formatted and every plot rendered
before the first file is opened, so an overflow or NaN from an extreme
config number ends in one ``error:`` line and no file.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

import numpy as np

from .config import FingerConfig
from .errors import ConfigError, FingerkitError, require_finite, strict_json
from .finger import (
    CylinderObject,
    FlatObject,
    force_profile,
    grasp_assess,
    static_tip_force,
    tip_trace,
    workspace,
)
from .geometry import DOUBLE, TendonModel
from .linkage import oracle_deviation, sweep_chain
from .registry import default_registry
from .svgplot import Series, render_svg


def _write(path: Path, chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        # an error from a write or a close carries no file name
        if exc.filename is None:
            exc.filename = str(path)
        raise


def _csv(header: list[str], table: np.ndarray, sha256: str):
    """CSV chunks, numbers as ``f"{x:.9g}"``."""
    from ._numfmt import format_csv

    yield f"# config_sha256={sha256}\n" + ",".join(header) + "\n"
    yield from format_csv(table)


def _plot(series: list[Series], x_label: str, y_label: str, title: str) -> str:
    """``render_svg``, with data it cannot plot reported as a domain error."""
    try:
        return render_svg(series, x_label=x_label, y_label=y_label, title=title)
    except ValueError as exc:
        raise FingerkitError(f"cannot plot {title.lower()}: {exc}") from None


def _json_doc(payload: dict, sha256: str) -> str:
    doc = {"config_sha256": sha256}
    doc.update(payload)
    return strict_json(doc) + "\n"


def _json_table(header: list[str], table: np.ndarray, sha256: str, extra: dict):
    """JSON chunks, the same text as ``_json_doc`` with the rows as lists,
    from :func:`fingerkit._numfmt.format_json_rows`."""
    from ._numfmt import format_json_rows

    doc = _json_doc({"columns": header, "rows": [], **extra}, sha256)
    if not len(table):
        yield doc
        return
    before, after = doc.split('"rows": []', 1)
    yield before + '"rows": [\n'
    yield from format_json_rows(table)
    yield "\n  ]" + after


def _emit(out: Path, fmt: str, sha256: str, tables, docs=(), plots=()) -> None:
    """Write a command's files into ``out``.

    Tables ``(stem, header, table, extra)`` go to ``<stem>.json`` (with the
    ``extra`` fields) for the json format, else to ``<stem>.csv``; then come
    the JSON documents ``(name, payload)``, then, for svg only, the plots
    ``(name, series, x_label, y_label, title)``.  Tables are checked finite,
    documents formatted and plots rendered before the first file is opened.
    """
    for stem, _, table, _ in tables:
        if not np.isfinite(table).all():
            raise FingerkitError(f"{stem} has non-finite values; nothing written")
    files = [
        (f"{stem}.json", _json_table(header, table, sha256, extra))
        if fmt == "json" else (f"{stem}.csv", _csv(header, table, sha256))
        for stem, header, table, extra in tables
    ]
    files += [(name, [_json_doc(payload, sha256)]) for name, payload in docs]
    if fmt == "svg":
        files += [(name, [_plot(*plot)]) for name, *plot in plots]
    for name, chunks in files:
        _write(out / name, chunks)


def _table(rows: np.ndarray, angle_columns: int) -> np.ndarray:
    """Float rows, structured or 2-D, as a table, the leading angles in degrees.

    The table is a view of ``rows``, converted in place: the rows are the
    caller's own and not used again.
    """
    table = rows.view(np.float64).reshape(len(rows), -1)
    angles = table[:, :angle_columns]
    np.degrees(angles, out=angles)
    return table


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
    if args.tendon == DOUBLE:
        tendon = tendon.as_double()
    elif args.tendon not in (None, tendon.kind):
        raise ConfigError(
            "config ships a double-tendon model; a single-tendon variant needs "
            "spring parameters in the config"
        )
    tension = args.tension_n
    return tendon, tendon.max_tension if tension is None else tension


_TIP_HEADER = [
    "theta1_deg", "psi_deg", "tip_x_mm", "tip_y_mm", "grip_x_mm", "grip_y_mm",
]


def _cmd_sweep(cfg: FingerConfig, args: argparse.Namespace):
    _require_counts("sweep requires --samples >= 2", args.samples)
    finger = cfg.require_finger()
    psi = math.radians(require_finite(args.psi_deg, "--psi-deg"))
    sweep = sweep_chain(cfg.geometry, _theta1_grid(cfg, args.samples))
    angle_header = [
        "theta1_deg", "theta2_deg", "theta3_deg", "theta5_deg",
        "theta6_deg", "theta7_deg", "mcp_deg", "pip_deg", "dip_deg",
    ]
    # JointState's fields are the header's columns, in order
    angles = _table(np.column_stack(sweep), len(angle_header))
    trace = _table(tip_trace(finger, sweep, psi), 2)
    tables = [("joint_angles", angle_header, angles, {}),
              ("tip_trace", _TIP_HEADER, trace, {})]
    plots = [
        ("joint_angles.svg",
         [Series("theta2", angles[:, 0], angles[:, 1]),
          Series("theta6", angles[:, 0], angles[:, 4])],
         "theta1 (deg)", "dependent angle (deg)", "Joint angles vs input"),
        ("tip_trace.svg", [Series("fingertip", trace[:, 2], trace[:, 3])],
         "x (mm)", "y (mm)", "Fingertip trace"),
    ]
    return tables, (), plots


def _cmd_workspace(cfg: FingerConfig, args: argparse.Namespace):
    samples, psi_samples = args.samples, args.psi_samples
    _require_counts("workspace requires --samples and --psi-samples >= 2",
                    samples, psi_samples)
    finger = cfg.require_finger()
    thumb = cfg.require_thumb_line()
    result = workspace(cfg.geometry, finger, samples, psi_samples, thumb)
    table = _table(result.points, 2)
    metrics = {
        "max_opening_mm": result.max_opening_mm,
        "theta1_samples": samples,
        "psi_samples": psi_samples,
    }
    # one series per plotted orientation, rows theta1-major, psi-minor; the
    # legend stays readable with at most 6 evenly spread orientations
    by_psi = table.reshape(samples, psi_samples, table.shape[1])
    picks = range(psi_samples)
    if psi_samples > 6:
        step = (psi_samples - 1) / 5.0
        picks = [round(i * step) for i in range(6)]
    series = [
        Series(f"psi {by_psi[0, j, 1]:.0f} deg", by_psi[:, j, 4], by_psi[:, j, 5])
        for j in picks
    ]
    return (
        [("workspace", _TIP_HEADER, table, {})],
        [("workspace_metrics.json", metrics)],
        [("workspace.svg", series, "x (mm)", "y (mm)", "Fingertip workspace")],
    )


def _cmd_force(cfg: FingerConfig, args: argparse.Namespace):
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
    extra = {"tendon": tendon.kind, "tension_n": tension}
    plots = [("force_profile.svg",
              [Series(f"{tendon.kind} tendon", table[:, 0], table[:, 4])],
              "theta1 (deg)", "tip force (N)", "Static tip force")]
    return [("force_profile", header, table, extra)], (), plots


def _cmd_grasp(cfg: FingerConfig, args: argparse.Namespace) -> int:
    finger = cfg.require_finger()
    tendon, tension = _resolve_tendon(cfg, args)
    theta1 = (
        math.radians(args.theta1_deg)
        if args.theta1_deg is not None
        else cfg.geometry.theta1_range[0]
    )
    obj = (
        CylinderObject(require_finite(args.diameter_mm, "--diameter-mm", 0.0))
        if args.diameter_mm is not None
        else FlatObject(require_finite(args.thickness_mm, "--thickness-mm", 0.0))
    )
    force = static_tip_force(tendon, cfg.geometry, finger, theta1, tension)
    report = grasp_assess(obj, default_registry(), force)
    print(strict_json(report._asdict()))
    return 0


def _cmd_validate(cfg: FingerConfig, args: argparse.Namespace) -> int:
    _require_counts("validate requires --samples >= 2", args.samples)
    dev2, dev6 = oracle_deviation(cfg.geometry, _theta1_grid(cfg, args.samples))
    print(f"samples={args.samples}")
    print(f"max |theta2 closed - numeric| = {dev2:.3e} rad")
    print(f"max |theta6 closed - numeric| = {dev6:.3e} rad")
    print(f"max deviation = {max(dev2, dev6):.3e} rad")
    return 0


# the emitters return the tables, docs and plots that _emit writes
EMITTERS = {
    "sweep": _cmd_sweep,
    "workspace": _cmd_workspace,
    "force": _cmd_force,
}
COMMANDS = {
    "grasp": _cmd_grasp,
    "validate": _cmd_validate,
}


def run(cfg: FingerConfig, args: argparse.Namespace) -> int:
    """Execute the array subcommand ``args.command``."""
    with np.errstate(all="ignore"):
        emitter = EMITTERS.get(args.command)
        if emitter is None:
            return COMMANDS[args.command](cfg, args)
        _emit(args.out, args.format, cfg.sha256, *emitter(cfg, args))
        return 0

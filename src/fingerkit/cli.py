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
The subcommands that need arrays live in :mod:`fingerkit._array_cli`, which
``run`` imports only for them, so analyze, registry and safety never
import numpy.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path

from .config import FingerConfig, default_config_path, load_config
from .errors import ConfigError, FingerkitError, require_finite, strict_json
from .geometry import (
    DOUBLE,
    NUM_JOINTS,
    NUM_LINKS,
    SINGLE,
    compute_mobility,
    count_loops,
    loop_coefficients,
)
from .registry import (ReferenceRegistry, default_registry,
                       default_registry_path, registry_verify)
from .safety import clearance_check, iso_contact_check, stroke_check


def _fmt(value: float) -> str:
    return f"{value:.9g}"


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


def _cmd_safety(args: argparse.Namespace) -> int:
    registry = default_registry()
    force = args.force_n
    if force is None:
        force = registry.value("pinch_force_max_n")
    else:
        require_finite(force, "--force-n", 0.0, strict=False)
    iso = iso_contact_check(
        force, registry.value("iso_contact_force_limit_thigh_knee_n"))
    clearance = clearance_check(
        registry.value("toilet_width_mm"),
        registry.value("shoulder_width_mm"),
        registry.value("secondary_arm_outer_diameter_mm"),
    )
    stroke = stroke_check(
        registry.value("trouser_raise_mm"),
        registry.value("secondary_extension_mm"),
    )
    # null: limit/force overflows at zero or tiny force
    if not math.isfinite(iso.margin_ratio):
        iso = iso._replace(margin_ratio=None)
    doc = {"iso_contact": iso._asdict(), "clearance": clearance._asdict(),
           "stroke": stroke._asdict()}
    print(strict_json(doc))
    return 0 if (iso.passed and clearance.fits and stroke.passed) else 1


def _cmd_registry(args: argparse.Namespace) -> int:
    report = registry_verify(ReferenceRegistry.load(args.registry_path))
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
    "safety": _cmd_safety,
    "registry": _cmd_registry,
}


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; raises domain/config errors.  Only the
    subcommands that take ``--config`` load one, and only the array
    subcommands import numpy and the solvers."""
    command = _COMMANDS.get(args.command)
    if command is None:
        from . import _array_cli

        command = _array_cli.run
    if "config" not in args:
        return command(args)
    return command(load_config(args.config), args)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`ConfigError`, so
    that :func:`main` reports them as one ``error:`` line (exit 2); its
    subcommand parsers are of this class too."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fingerkit",
        description="Kinematics and static-force analyses of a tendon-driven "
                    "linkage finger gripper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out: bool = False,
               samples: int | None = None, tendon: bool = False):
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
        if tendon:
            p.add_argument("--tendon", choices=(SINGLE, DOUBLE), default=None,
                           help="override the config's tendon variant")
            p.add_argument("--tension-n", type=float, default=None,
                           help="tendon tension (default: config max tension)")

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
    common(p, out=True, samples=100, tendon=True)

    p = sub.add_parser("grasp", help="grasp feasibility report")
    common(p, tendon=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--diameter-mm", type=float, help="cylindrical object")
    group.add_argument("--thickness-mm", type=float, help="flat object")
    p.add_argument("--theta1-deg", type=float, default=None,
                   help="contact configuration (default: range start)")

    p = sub.add_parser("safety", help="contact/clearance/stroke checks")
    p.add_argument("--force-n", type=float, default=None,
                   help="contact force to check (default: registry pinch max)")

    p = sub.add_parser("validate", help="closed form vs numeric oracle")
    common(p, samples=1000)

    p = sub.add_parser("registry", help="registry consistency report")
    p.add_argument("--registry-path", type=Path, default=default_registry_path(),
                   help="registry file to verify (default: the shipped one)")

    return parser


def _io_error(exc: OSError) -> int:
    """One ``error:`` line (exit 2) for an I/O error; every file fingerkit
    opens is named in its errors, so an unnamed one is a write to stdout."""
    if exc.filename is None:
        exc.filename = "<stdout>"
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        return _io_error(exc)
    except MemoryError:
        print("error: out of memory; use fewer samples", file=sys.stderr)
        return 2
    except FingerkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    """The process entry of the ``fingerkit`` script and of ``python -m
    fingerkit.cli``: :func:`main`, then a flush of stdout whose failure is
    one ``error:`` line naming ``<stdout>`` (exit 2), then an exit that
    skips the interpreter's final garbage collections.

    ``gc.freeze`` moves every tracked object, about 22k once numpy is
    imported, into the permanent generation, which those collections
    never scan; shutdown still flushes the standard streams, and every
    emitted file is closed before :func:`main` returns.  Library callers
    and tests call :func:`main`, which keeps normal collection.
    """
    code = main()
    try:
        if sys.stdout is not None:  # None if started with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        code = _io_error(exc)
        # shutdown would flush the same buffered bytes and fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()

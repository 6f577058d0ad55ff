"""Contact-force, clearance, and stroke checks for the dressing-assist task.

The caller passes the limits (the CLI reads them from the registry); these
functions only encode the comparisons, so fuzz tests can re-derive every
verdict with inline arithmetic.  NaN or infinite input raises ValueError,
as does one that is not a number (a string, None or a bool).
Field names carry their unit, and the ``safety`` command prints them as is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import is_real


class SafetyVerdict(NamedTuple):
    passed: bool
    applied_limit_n: float
    measured_n: float
    margin_ratio: float


class ClearanceResult(NamedTuple):
    per_side_clearance_mm: float
    fits: bool


class StrokeResult(NamedTuple):
    passed: bool
    slack_mm: float


def iso_contact_check(force: float, limit: float) -> SafetyVerdict:
    """Quasi-static contact force check against a body region's limit.

    The limit is inclusive: a force exactly at the limit passes.
    ``margin_ratio`` is limit/force: infinite at zero force, and also
    whenever the quotient overflows (``5e-324`` N against 220 N).
    """
    if not (is_real(force) and is_real(limit)
            and 0.0 <= force < math.inf and 0.0 <= limit < math.inf):
        raise ValueError("force and limit must be finite and >= 0")
    return SafetyVerdict(
        passed=force <= limit,
        applied_limit_n=limit,
        measured_n=force,
        margin_ratio=limit / force if force > 0.0 else math.inf,
    )


def clearance_check(
    space_width: float,
    body_width: float,
    device_width: float,
) -> ClearanceResult:
    """Per-side clearance left beside a centered body, and whether the
    device fits in it.

    A body wider than the space yields a negative clearance and fits=False.
    """
    if not all(is_real(w) and 0.0 < w < math.inf
               for w in (space_width, body_width, device_width)):
        raise ValueError("widths must be finite and > 0")
    per_side = (space_width - body_width) / 2.0
    return ClearanceResult(
        per_side_clearance_mm=per_side,
        fits=device_width <= per_side,
    )


def stroke_check(required_travel: float, available_extension: float) -> StrokeResult:
    """Whether the available extension covers the required travel."""
    if not (is_real(required_travel) and is_real(available_extension)
            and 0.0 <= required_travel < math.inf
            and 0.0 <= available_extension < math.inf):
        raise ValueError("travel values must be finite and >= 0")
    return StrokeResult(
        passed=available_extension >= required_travel,
        slack_mm=available_extension - required_travel,
    )

"""Planar two-loop linkage kinematics for the tendon-driven finger.

The finger mechanism is a chain of two four-bar loops sharing one DoF.
Each loop closes as a vector polygon whose squared-magnitude constraint
reduces, after a tangent half-angle substitution, to a quadratic in
tan(theta_out / 2).  Over the geometry of :mod:`fingerkit.geometry`, this
module provides:

* a closed-form loop solver with explicit branch control,
* a chain solver producing anatomical joint angles (MCP / PIP / DIP),
* an independent bracketing-and-bisection oracle used for validation,
* implicit derivatives of the dependent angles for force transmission.

Angles are radians everywhere in this module; lengths are millimetres.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateGeometryError, NoClosureError, OutOfRangeError
from .geometry import LinkageGeometry, LoopCoefficients, loop_coefficients

POSITIVE_ROOT = "positive-root"
NEGATIVE_ROOT = "negative-root"
CONTINUITY = "continuity"
# each branch as :func:`_kernels.loop_solve_batch` takes it
_BRANCHES = {POSITIVE_ROOT: 1, NEGATIVE_ROOT: -1, CONTINUITY: 0}


class JointState(NamedTuple):
    """Solved configurations of the two-loop chain: floats for one
    configuration, equal-length arrays for a sweep of input angles."""

    theta1: float | np.ndarray
    theta2: float | np.ndarray
    theta3: float | np.ndarray
    theta5: float | np.ndarray
    theta6: float | np.ndarray
    theta7: float | np.ndarray
    theta_mcp: float | np.ndarray
    theta_pip: float | np.ndarray
    theta_dip: float | np.ndarray

    def state_at(self, index: int) -> "JointState":
        """Sample ``index`` of a sweep, as floats."""
        return JointState._make(float(values[index]) for values in self)


def _closed_form(
    coeffs: LoopCoefficients,
    theta_in: np.ndarray,
    fixed_angle: float,
    reference: float | None = None,
    branch: str = POSITIVE_ROOT,
) -> np.ndarray:
    """One loop's output angles over an input array, in closed form, NaN
    where it cannot close; the continuity branch keeps the root nearer
    ``reference``, the positive one on a tie."""
    return _kernels.loop_solve_batch(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle,
        _BRANCHES[branch], reference,
    )


def _check_branch(branch: str, reference) -> None:
    if branch not in _BRANCHES:
        raise ValueError(f"unknown branch: {branch!r}")
    if branch == CONTINUITY and reference is None:
        raise ValueError("the continuity branch requires a reference")


def solve_loop(
    coeffs: LoopCoefficients,
    theta_in: float,
    branch: str = POSITIVE_ROOT,
    *,
    fixed_angle: float = math.pi / 2.0,
    reference: float | None = None,
) -> float:
    """Closed-form output angle of one loop at the given input angle.

    When the quadratic degenerates (alpha == 0) the exact linear limit
    2*atan(-gamma/beta) is used.  A negative discriminant means the loop
    cannot assemble at this input.

    Args:
        coeffs: dimensionless loop coefficients.
        theta_in: input angle, rad.
        branch: ``positive-root``, ``negative-root`` or ``continuity``,
            which picks the root nearer ``reference``.
        fixed_angle: direction of the loop's fixed vector, rad.
        reference: previously solved output angle, rad; required by
            (and only read by) the continuity branch.

    Returns:
        Output angle in (-pi, pi], rad.
    """
    if not math.isfinite(theta_in):
        raise ValueError("theta_in must be finite")
    _check_branch(branch, reference)
    theta = float(_closed_form(
        coeffs, np.array([theta_in], dtype=np.float64), fixed_angle,
        reference, branch,
    )[0])
    if not math.isnan(theta):
        return theta
    alpha, beta, gamma = map(float, _kernels.quadratic(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle
    ))
    if alpha == 0.0 and beta == 0.0:
        if gamma == 0.0:
            raise DegenerateGeometryError(
                "loop equation vanished identically; output angle indeterminate"
            )
        raise DegenerateGeometryError(
            "loop equation degenerated to an unsatisfiable constant"
        )
    disc = beta * beta - 4.0 * alpha * gamma
    raise NoClosureError(
        f"no closure at theta_in={theta_in:.9g} rad "
        f"(discriminant {disc:.3e} < 0)",
        theta_in=theta_in,
    )


def _oracle(
    coeffs: LoopCoefficients,
    theta_in: np.ndarray,
    fixed_angle: float,
    reference: float | None = None,
) -> np.ndarray:
    """One loop's positive root over an input array, by bisection, NaN
    where it cannot close; ``reference`` is unused."""
    return _kernels.loop_bisect_batch(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle,
        1, 0.0, 4096,
    )


def _vector_closure_angles(
    lengths: Sequence[float],
    theta_in: np.ndarray,
    theta_out: np.ndarray,
    fixed_angle: float,
) -> np.ndarray:
    a, b, _, d = lengths
    y = (
        a * np.sin(theta_in + theta_out)
        + b * np.sin(theta_out)
        + d * math.sin(fixed_angle)
    )
    x = (
        a * np.cos(theta_in + theta_out)
        + b * np.cos(theta_out)
        + d * math.cos(fixed_angle)
    )
    return np.arctan2(y, x)


def _chain(
    geometry: LinkageGeometry,
    theta1: np.ndarray,
    solve,
    references: tuple[float | None, float | None] = (None, None),
) -> JointState:
    """The one two-loop chain solver every entry point is a view of.

    ``solve(coeffs, theta_in, fixed_angle, reference)`` gives one loop's
    output angles over an input array, NaN where it cannot close.  Loop 1
    maps theta1 to theta2, which (offset by sigma) drives loop 2.  Samples
    outside the admissible range reach the loops as NaN, which no loop
    closes at.  The first sample, in input order, that is out of range or
    cannot close raises: its range error, else the loop that fails there.
    Then atan2 recovers theta3/theta7, and the anatomical angles follow
    from their defining identities.
    """
    lo, hi = geometry.theta1_range
    in_range = (lo <= theta1) & (theta1 <= hi)
    c1 = loop_coefficients(geometry, 1)
    c2 = loop_coefficients(geometry, 2)
    theta2 = solve(c1, np.where(in_range, theta1, np.nan),
                   geometry.theta4_fixed, references[0])
    theta5 = theta2 + geometry.sigma
    # a NaN theta2 reaches loop 2 as a NaN input, so theta6 is NaN too
    theta6 = solve(c2, theta5, geometry.theta8_fixed, references[1])
    failed = np.flatnonzero(np.isnan(theta6))
    if failed.size:
        i = int(failed[0])
        bad = float(theta1[i])
        if not in_range[i]:
            raise OutOfRangeError(
                f"theta1={bad:.9g} rad outside admissible range "
                f"[{lo:.9g}, {hi:.9g}] rad"
            )
        if math.isnan(theta2[i]):
            raise NoClosureError(
                f"loop 1 cannot close at theta1={bad:.9g} rad", loop=1,
                theta_in=bad,
            )
        raise NoClosureError(
            f"loop 2 cannot close at theta5={float(theta5[i]):.9g} rad "
            f"(theta1={bad:.9g} rad)", loop=2, theta_in=float(theta5[i]),
        )
    return JointState(
        theta1=theta1,
        theta2=theta2,
        theta3=_vector_closure_angles(
            geometry.loop_lengths(1), theta1, theta2, geometry.theta4_fixed
        ),
        theta5=theta5,
        theta6=theta6,
        theta7=_vector_closure_angles(
            geometry.loop_lengths(2), theta5, theta6, geometry.theta8_fixed
        ),
        theta_mcp=theta6,
        theta_pip=theta5 - geometry.sigma,
        theta_dip=theta1 - geometry.rho,
    )


def solve_chain(
    geometry: LinkageGeometry,
    theta1: float | np.ndarray,
    branch: str = POSITIVE_ROOT,
    previous: JointState | None = None,
) -> JointState:
    """Solve both loops in series for a full joint state.

    Loop 1 maps the input angle to its dependent angle, which (offset by
    sigma) drives loop 2.  The two eliminated vector directions are
    recovered afterwards, and the anatomical MCP / PIP / DIP angles are
    filled in by their defining identities.  ``branch`` picks the same root
    of both loops as :func:`solve_loop`; the continuity branch keeps each
    loop nearest its angle in ``previous``, a solved state.

    ``theta1`` is a float, giving floats, or a 1-D array in any order,
    giving arrays whose every sample equals the float solve there
    (``previous`` broadcasts); the first sample that is out of range or
    cannot close raises the float solve's error for it.
    """
    _check_branch(branch, previous)
    references = ((previous.theta2, previous.theta6) if branch == CONTINUITY
                  else (None, None))
    state = _chain(
        geometry, np.atleast_1d(np.asarray(theta1, dtype=np.float64)),
        functools.partial(_closed_form, branch=branch), references,
    )
    return state if np.ndim(theta1) else state.state_at(0)


def _residual_partials(coeffs, theta_in, theta_out, fixed_angle):
    """(d residual / d theta_in, d residual / d theta_out) of one loop,
    elementwise over floats or arrays."""
    shared = -coeffs.kappa1 * np.sin(theta_in + theta_out - fixed_angle)
    d_in = shared - np.sin(theta_in)
    d_out = shared - coeffs.kappa2 * np.sin(theta_out - fixed_angle)
    return d_in, d_out


def chain_derivatives(geometry: LinkageGeometry, state):
    """Implicit derivatives (d theta2/d theta1, d theta6/d theta1).

    Differentiates both loop residuals at the solved configuration.  The
    loop-2 input moves one-for-one with the loop-1 output, so the second
    derivative is the product of the per-loop transmission ratios.
    ``state`` is a :class:`JointState` of floats or of arrays, and the
    derivatives come back in the same shape; a singular sample anywhere
    raises.
    """
    c1 = loop_coefficients(geometry, 1)
    c2 = loop_coefficients(geometry, 2)
    d1_in, d1_out = _residual_partials(
        c1, state.theta1, state.theta2, geometry.theta4_fixed
    )
    scale1 = 1.0 + abs(c1.kappa1) + abs(c1.kappa2)
    if np.any(np.abs(d1_out) < 1e-12 * scale1):
        raise DegenerateGeometryError(
            "loop 1 residual Jacobian is singular at this configuration"
        )
    d21 = -d1_in / d1_out
    d2_in, d2_out = _residual_partials(
        c2, state.theta5, state.theta6, geometry.theta8_fixed
    )
    scale2 = 1.0 + abs(c2.kappa1) + abs(c2.kappa2)
    if np.any(np.abs(d2_out) < 1e-12 * scale2):
        raise DegenerateGeometryError(
            "loop 2 residual Jacobian is singular at this configuration"
        )
    d65 = -d2_in / d2_out
    return d21, d65 * d21


def _continuity_sweep(coeffs, theta_in, fixed_angle, reference):
    """Nearest-branch sweep of one loop, seeded by the positive root at the
    first sample (which fails here exactly when the seed does)."""
    seed = _closed_form(coeffs, theta_in[:1], fixed_angle)
    return _kernels.loop_sweep_continuity(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3,
        theta_in, fixed_angle, float(seed[0]),
    )


def sweep_chain(geometry: LinkageGeometry, theta1_values: np.ndarray) -> JointState:
    """Solve the chain over a sweep of input angles that never changes
    direction (repeated angles are allowed).

    Uses the continuity branch seeded by the positive root at the
    first sample, so consecutive configurations never flip assembly
    branches.  The first sample that is out of range or fails to close
    aborts the sweep with the offending input angle.
    """
    theta1_values = np.asarray(theta1_values, dtype=np.float64)
    if theta1_values.ndim != 1 or theta1_values.size < 2:
        raise ValueError("sweep requires at least two input samples")
    diffs = np.diff(theta1_values)
    if not (np.all(diffs >= 0.0) or np.all(diffs <= 0.0)):
        raise ValueError("sweep input angles must not change direction")
    return _chain(geometry, theta1_values, _continuity_sweep)


def oracle_deviation(
    geometry: LinkageGeometry, theta1_values
) -> tuple[float, float]:
    """Max |closed form - oracle| of theta2 and of theta6, positive root.

    Solves the chain twice over the inputs, once in closed form and once
    purely by bisection, each loop 2 driven by its own chain's loop 1.
    """
    theta1 = np.asarray(theta1_values, dtype=np.float64)
    closed = _chain(geometry, theta1, _closed_form)
    numeric = _chain(geometry, theta1, _oracle)
    return (float(np.max(np.abs(closed.theta2 - numeric.theta2))),
            float(np.max(np.abs(closed.theta6 - numeric.theta6))))

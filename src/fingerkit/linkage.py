"""Planar two-loop linkage kinematics for the tendon-driven finger.

The finger mechanism is a chain of two four-bar loops sharing one DoF.
Each loop closes as a vector polygon whose squared-magnitude constraint
reduces, after a tangent half-angle substitution, to a quadratic in
tan(theta_out / 2).  Over the geometry of :mod:`fingerkit.geometry`, this
module provides:

* a closed-form chain solver, positive root, producing the anatomical
  joint angles (MCP / PIP / DIP),
* a sweep that keeps each loop on its branch from sample to sample,
* an independent bracketing-and-bisection oracle used for validation,
* implicit derivatives of the dependent angles for force transmission.

Angles are radians everywhere in this module; lengths are millimetres.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateGeometryError, NoClosureError, OutOfRangeError
from .geometry import LinkageGeometry, loop_coefficients


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


# inputs per block of oracle_deviation; validate's usual sample counts fit in one
_DEVIATION_BLOCK = 8192


def _oracle(k1, k2, k3, theta_in: np.ndarray, fixed_angle: float) -> np.ndarray:
    """One loop's positive root over an input array, by bisection, NaN
    where it cannot close."""
    return _kernels.loop_bisect_batch(k1, k2, k3, theta_in, fixed_angle,
                                      1, 0.0, 4096)


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


def _samples(angles, name: str = "theta1") -> np.ndarray:
    """``angles``, a float or a 1-D array of integers or floats, as a 1-D
    float array; strings, bools and other kinds are a ``ValueError`` naming
    ``name``, as is an integer beyond the float range."""
    angles = np.atleast_1d(np.asarray(angles))
    # numpy holds a Python integer beyond int64 as an object
    kinds = {type(x) for x in angles.flat} if angles.dtype == object else set()
    if int in kinds and kinds <= {int, float}:
        try:
            angles = angles.astype(np.float64)
        except OverflowError:
            raise ValueError(f"{name} has an integer too large for a float") from None
    if angles.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be integers or floats, not {angles.dtype}")
    if angles.ndim != 1:
        raise ValueError(f"{name} must be a float or a 1-D array, not {angles.ndim}-D")
    return angles.astype(np.float64, copy=False)


def _chain(geometry: LinkageGeometry, theta1: np.ndarray, solve) -> JointState:
    """The one two-loop chain solver every entry point is a view of.

    ``solve(k1, k2, k3, theta_in, fixed_angle)`` gives one loop's output
    angles over an input array, NaN where it cannot close.  Loop 1
    maps theta1 to theta2, which (offset by sigma) drives loop 2.  Samples
    outside the admissible range reach the loops as NaN, which no loop
    closes at.  The first sample, in input order, that is out of range or
    cannot close raises: its range error, else the loop that fails there.
    Then atan2 recovers theta3/theta7, and the anatomical angles follow
    from their defining identities.
    """
    lo, hi = geometry.theta1_range
    in_range = (lo <= theta1) & (theta1 <= hi)
    theta2 = solve(*loop_coefficients(geometry, 1),
                   np.where(in_range, theta1, np.nan), geometry.theta4_fixed)
    theta5 = theta2 + geometry.sigma
    # a NaN theta2 reaches loop 2 as a NaN input, so theta6 is NaN too
    theta6 = solve(*loop_coefficients(geometry, 2), theta5,
                   geometry.theta8_fixed)
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
    geometry: LinkageGeometry, theta1: float | np.ndarray
) -> JointState:
    """Solve both loops in series, each on its positive root, for a full
    joint state.

    Loop 1 maps the input angle to its dependent angle, which (offset by
    sigma) drives loop 2.  The two eliminated vector directions are
    recovered afterwards, and the anatomical MCP / PIP / DIP angles are
    filled in by their defining identities.

    ``theta1`` is a float, giving floats, or a 1-D array in any order,
    giving arrays whose every sample equals the float solve there; the
    first sample that is out of range or cannot close raises the float
    solve's error for it.
    """
    state = _chain(geometry, _samples(theta1), _kernels.loop_solve_batch)
    return state if np.ndim(theta1) else state.state_at(0)


def chain_derivatives(geometry: LinkageGeometry, state):
    """Implicit derivatives (d theta2/d theta1, d theta6/d theta1).

    Differentiates both loop residuals at the solved configuration.  The
    loop-2 input moves one-for-one with the loop-1 output, so the second
    derivative is the product of the per-loop transmission ratios.
    ``state`` is a :class:`JointState` of floats or of arrays, and the
    derivatives come back as floats or as arrays; a singular sample
    anywhere raises.
    """
    ratios = []
    for loop, theta_in, theta_out, fixed_angle in (
        (1, state.theta1, state.theta2, geometry.theta4_fixed),
        (2, state.theta5, state.theta6, geometry.theta8_fixed),
    ):
        k1, k2, _ = loop_coefficients(geometry, loop)
        # the residual's partials in the loop's input and output angles
        shared = -k1 * np.sin(theta_in + theta_out - fixed_angle)
        d_in = shared - np.sin(theta_in)
        d_out = shared - k2 * np.sin(theta_out - fixed_angle)
        if np.any(np.abs(d_out) < 1e-12 * (1.0 + abs(k1) + abs(k2))):
            raise DegenerateGeometryError(
                f"loop {loop} residual Jacobian is singular at this configuration"
            )
        ratios.append(-d_in / d_out)
    d21, d65 = ratios
    if np.ndim(state.theta1):
        return d21, d65 * d21
    return float(d21), float(d65 * d21)


def sweep_chain(geometry: LinkageGeometry, theta1_values: np.ndarray) -> JointState:
    """Solve the chain over a sweep of input angles that never changes
    direction (repeated angles are allowed).

    Uses the continuity branch, which starts on the positive root at the
    first sample, so consecutive configurations never flip assembly
    branches.  The first sample that is out of range or fails to close
    aborts the sweep with the offending input angle.
    """
    theta1_values = _samples(theta1_values)
    if theta1_values.size < 2:
        raise ValueError("sweep requires at least two input samples")
    diffs = np.diff(theta1_values)
    # a NaN compares false both ways, so it reaches the chain's range check
    if np.any(diffs < 0.0) and np.any(diffs > 0.0):
        raise ValueError("sweep input angles must not change direction")
    return _chain(geometry, theta1_values, _kernels.loop_sweep_continuity)


def oracle_deviation(
    geometry: LinkageGeometry, theta1_values
) -> tuple[float, float]:
    """Max |closed form - oracle| of theta2 and of theta6, positive root.

    Solves the chain twice over the inputs, once in closed form and once
    purely by bisection, each loop 2 driven by its own chain's loop 1.  It
    does so ``_DEVIATION_BLOCK`` inputs at a time, keeping running maxima,
    so memory does not grow with the input.  Over more than one block the
    closed form first checks every block, so the error for a sample that is
    out of range or cannot close is the one a single whole-array solve
    raises.  An empty input has no deviation and is a ``ValueError``.
    """
    theta1 = _samples(theta1_values)
    if theta1.size == 0:
        raise ValueError("oracle_deviation needs a theta1 sample, got an empty input")
    blocks = [theta1[s:s + _DEVIATION_BLOCK]
              for s in range(0, theta1.size, _DEVIATION_BLOCK)]
    if len(blocks) > 1:
        for block in blocks:
            _chain(geometry, block, _kernels.loop_solve_batch)
    dev2 = dev6 = 0.0
    for block in blocks:
        closed = _chain(geometry, block, _kernels.loop_solve_batch)
        numeric = _chain(geometry, block, _oracle)
        dev2 = max(dev2, float(np.max(np.abs(closed.theta2 - numeric.theta2))))
        dev6 = max(dev6, float(np.max(np.abs(closed.theta6 - numeric.theta6))))
    return dev2, dev6

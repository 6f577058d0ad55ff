"""Planar two-loop linkage kinematics for the tendon-driven finger.

The finger mechanism is a chain of two four-bar loops sharing one DoF.
Each loop closes as a vector polygon whose squared-magnitude constraint
reduces, after a tangent half-angle substitution, to a quadratic in
tan(theta_out / 2).  This module provides:

* mobility / independent-loop counting for planar linkages,
* dimensionless loop coefficients and the quadratic reduction,
* a closed-form loop solver with explicit branch control,
* a chain solver producing anatomical joint angles (MCP / PIP / DIP),
* an independent bracketing-and-bisection oracle used for validation,
* implicit derivatives of the dependent angles for force transmission.

Angles are radians everywhere in this module; lengths are millimetres.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import _kernels
from .errors import DegenerateGeometryError, NoClosureError, OutOfRangeError

# The finger linkage is always the same topology: six links, seven revolute
# joints, giving mobility 1 and two independent loops.
NUM_LINKS = 6
NUM_JOINTS = 7

# |loop residual| accepted after a successful solve.
RESIDUAL_TOL = 1e-10

POSITIVE_ROOT = "positive-root"
NEGATIVE_ROOT = "negative-root"
CONTINUITY = "continuity"


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the half-open interval (-pi, pi]."""
    return float(_kernels.wrap(angle))


def compute_mobility(num_links: int, num_joints: int) -> int:
    """Degrees of freedom of a planar linkage: 3*(L-1) - 2*j."""
    if num_links < 1:
        raise ValueError("num_links must be >= 1")
    if num_joints < 0:
        raise ValueError("num_joints must be >= 0")
    return 3 * (num_links - 1) - 2 * num_joints


def count_loops(num_joints: int, num_links: int) -> int:
    """Number of independent closure loops: j - L + 1."""
    if num_joints < num_links - 1:
        raise ValueError("num_joints must be >= num_links - 1")
    return num_joints - num_links + 1


@dataclass(frozen=True)
class LinkageGeometry:
    """One finger mechanism: eight loop vector lengths plus fixed angles.

    ``v`` holds the vector lengths of both loops, loop 1 first
    (v1..v4) then loop 2 (v5..v8), in millimetres.  ``sigma`` is the
    angular offset carrying the loop-1 output into the loop-2 input,
    ``rho`` the offset defining the distal joint angle.  The fourth
    vector of each loop points at a fixed angle (``theta4_fixed`` /
    ``theta8_fixed``, normally vertical).
    """

    v: tuple[float, float, float, float, float, float, float, float]
    sigma: float
    rho: float
    theta4_fixed: float = math.pi / 2.0
    theta8_fixed: float = math.pi / 2.0
    theta1_range: tuple[float, float] = (0.0, math.radians(75.0))

    def __post_init__(self) -> None:
        if len(self.v) != 8:
            raise ValueError("geometry requires exactly eight link lengths")
        for i, length in enumerate(self.v):
            if not (math.isfinite(length) and length > 0.0):
                raise ValueError(f"link length v{i + 1} must be finite and > 0")
        lo, hi = self.theta1_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("theta1_range must be a non-empty closed interval")
        if compute_mobility(NUM_LINKS, NUM_JOINTS) != 1:
            raise ValueError("mechanism mobility must be 1")
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))

    def scaled(self, factor: float) -> "LinkageGeometry":
        """Uniformly scale all link lengths; angles are untouched."""
        if factor <= 0.0:
            raise ValueError("scale factor must be > 0")
        return LinkageGeometry(
            v=tuple(factor * x for x in self.v),
            sigma=self.sigma,
            rho=self.rho,
            theta4_fixed=self.theta4_fixed,
            theta8_fixed=self.theta8_fixed,
            theta1_range=self.theta1_range,
        )

    def loop_lengths(self, loop: int) -> tuple[float, float, float, float]:
        if loop == 1:
            return self.v[0:4]
        if loop == 2:
            return self.v[4:8]
        raise ValueError("loop must be 1 or 2")

    def fixed_angle(self, loop: int) -> float:
        if loop == 1:
            return self.theta4_fixed
        if loop == 2:
            return self.theta8_fixed
        raise ValueError("loop must be 1 or 2")


@dataclass(frozen=True)
class LoopCoefficients:
    """Dimensionless ratios of one loop; invariant under uniform scaling."""

    kappa1: float
    kappa2: float
    kappa3: float


@dataclass(frozen=True)
class QuadraticCoefficients:
    """Coefficients of the half-angle quadratic alpha*t^2 + beta*t + gamma."""

    alpha: float
    beta: float
    gamma: float


@dataclass(frozen=True)
class JointState:
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
        return JointState(*(float(getattr(self, f.name)[index])
                            for f in fields(self)))


@dataclass(frozen=True)
class BranchPolicy:
    """Selects between the two assembly branches of a loop solve.

    ``positive-root`` and ``negative-root`` pick a fixed branch of the
    half-angle quadratic; ``continuity`` picks the branch closest to a
    previously solved configuration and is what sweeps use to avoid
    assembly flips between consecutive samples.
    """

    mode: str = POSITIVE_ROOT
    previous_solution: JointState | None = None

    def __post_init__(self) -> None:
        if self.mode not in (POSITIVE_ROOT, NEGATIVE_ROOT, CONTINUITY):
            raise ValueError(f"unknown branch mode: {self.mode!r}")

    @classmethod
    def positive(cls) -> "BranchPolicy":
        return cls(POSITIVE_ROOT)

    @classmethod
    def negative(cls) -> "BranchPolicy":
        return cls(NEGATIVE_ROOT)

    @classmethod
    def continuity(cls, previous: JointState) -> "BranchPolicy":
        if previous is None:
            raise ValueError("continuity mode requires a previous solution")
        return cls(CONTINUITY, previous)


DEFAULT_POLICY = BranchPolicy.positive()


def loop_coefficients(geometry: LinkageGeometry, loop: int) -> LoopCoefficients:
    """Dimensionless coefficients of the requested loop (1 or 2).

    For loop lengths (a, b, c, d) the ratios are d/b, d/a and
    (a^2 + b^2 - c^2 + d^2) / (2ab).
    """
    a, b, c, d = geometry.loop_lengths(loop)
    if a == 0.0 or b == 0.0:
        raise DegenerateGeometryError(f"loop {loop} has a zero-length link")
    return LoopCoefficients(
        kappa1=d / b,
        kappa2=d / a,
        kappa3=(a * a + b * b - c * c + d * d) / (2.0 * a * b),
    )


def loop_residual(
    coeffs: LoopCoefficients,
    theta_in: float,
    theta_out: float,
    fixed_angle: float = math.pi / 2.0,
) -> float:
    """Scalar closure residual of one loop; zero iff the loop closes."""
    return (
        coeffs.kappa3
        + math.cos(theta_in)
        + coeffs.kappa1 * math.cos(theta_in + theta_out - fixed_angle)
        + coeffs.kappa2 * math.cos(theta_out - fixed_angle)
    )


def quadratic_coefficients(
    coeffs: LoopCoefficients,
    theta_in: float,
    fixed_angle: float = math.pi / 2.0,
) -> QuadraticCoefficients:
    """Reduce the closure residual to a quadratic in tan(theta_out / 2).

    The residual is linear in cos/sin of the output angle,
    A*cos(x) + B*sin(x) + C, which the half-angle substitution turns into
    (C - A) t^2 + 2B t + (C + A) = 0 with t = tan(x / 2).
    """
    return QuadraticCoefficients(*map(float, _kernels.quadratic(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle
    )))


def _closed_form(
    coeffs: LoopCoefficients,
    theta_in: np.ndarray,
    fixed_angle: float,
    reference: float | None = None,
    mode: str = POSITIVE_ROOT,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ok, theta_out)`` of one loop over an input array, in closed form.

    Both branches come from :func:`_kernels.half_angle_roots` (which takes
    the exact linear limit where alpha == 0) and libm's atan; continuity
    mode keeps the root nearer ``reference``, the positive one on a tie.
    """
    ok, t_pos, t_neg = _kernels.half_angle_roots(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle
    )
    pos = 2.0 * _kernels.libm(math.atan, t_pos)
    if mode == POSITIVE_ROOT:
        return ok, pos
    neg = 2.0 * _kernels.libm(math.atan, t_neg)
    if mode == NEGATIVE_ROOT:
        return ok, neg
    nearer = (np.abs(_kernels.wrap(pos - reference))
              <= np.abs(_kernels.wrap(neg - reference)))
    return ok, np.where(nearer, pos, neg)


def _require_reference(policy: BranchPolicy, reference: float | None) -> None:
    if policy.mode == CONTINUITY and reference is None:
        raise ValueError(
            "continuity mode requires continuity_reference at the loop level"
        )


def solve_loop(
    coeffs: LoopCoefficients,
    theta_in: float,
    policy: BranchPolicy = DEFAULT_POLICY,
    *,
    fixed_angle: float = math.pi / 2.0,
    continuity_reference: float | None = None,
) -> float:
    """Closed-form output angle of one loop at the given input angle.

    When the quadratic degenerates (alpha == 0) the exact linear limit
    2*atan(-gamma/beta) is used.  A negative discriminant means the loop
    cannot assemble at this input.

    Args:
        coeffs: dimensionless loop coefficients.
        theta_in: input angle, rad.
        policy: branch selection; continuity mode requires
            ``continuity_reference``.
        fixed_angle: direction of the loop's fixed vector, rad.
        continuity_reference: previously solved output angle that
            continuity mode stays closest to.

    Returns:
        Output angle in (-pi, pi], rad.
    """
    if not math.isfinite(theta_in):
        raise ValueError("theta_in must be finite")
    _require_reference(policy, continuity_reference)
    ok, theta = _closed_form(
        coeffs, np.array([theta_in], dtype=np.float64), fixed_angle,
        continuity_reference, policy.mode,
    )
    if ok[0]:
        return float(theta[0])
    quad = quadratic_coefficients(coeffs, theta_in, fixed_angle)
    alpha, beta, gamma = quad.alpha, quad.beta, quad.gamma
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
    mode: str = POSITIVE_ROOT,
    n_scan: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ok, theta_out)`` of one loop over an input array, by bisection."""
    branch = {POSITIVE_ROOT: 1, NEGATIVE_ROOT: -1, CONTINUITY: 0}[mode]
    return _kernels.loop_bisect_batch(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle,
        branch, 0.0 if reference is None else reference, n_scan,
    )


def bisect_loop(
    coeffs: LoopCoefficients,
    theta_in: float,
    *,
    fixed_angle: float = math.pi / 2.0,
    policy: BranchPolicy = DEFAULT_POLICY,
    continuity_reference: float | None = None,
    n_scan: int = 4096,
) -> float:
    """Numeric oracle for one loop: scan the circle and bisect residual roots.

    Never touches the half-angle quadratic roots.  Branch selection relies
    on the residual value at pi, which equals the quadratic's leading
    coefficient, so the larger root is the positive branch exactly when
    that probe is positive.
    """
    _require_reference(policy, continuity_reference)
    ok, theta = _oracle(
        coeffs, np.array([theta_in], dtype=np.float64), fixed_angle,
        continuity_reference, policy.mode, n_scan,
    )
    if not ok[0]:
        raise NoClosureError(
            f"oracle found no sign change at theta_in={theta_in:.9g} rad",
            theta_in=theta_in,
        )
    return float(theta[0])


def _vector_closure_angles(
    lengths: Sequence[float],
    theta_in: np.ndarray,
    theta_out: np.ndarray,
    fixed_angle: float,
    atan2=np.arctan2,
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
    return atan2(y, x)


def _libm_atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _kernels.libm(math.atan2, y, x)


def closure_vector_angle(
    lengths: Sequence[float],
    theta_in: float,
    theta_out: float,
    fixed_angle: float,
) -> float:
    """Direction of the loop's resultant vector, recovered by atan2.

    The three known vectors of a closed loop sum to the fourth; its
    direction follows from the summed X and Y components.  Needed for
    forward-kinematics validation because the squared closure constraint
    eliminates this angle.
    """
    return float(_vector_closure_angles(
        lengths, np.array([theta_in], dtype=np.float64),
        np.array([theta_out], dtype=np.float64), fixed_angle, _libm_atan2,
    )[0])


def _check_theta1(geometry: LinkageGeometry, theta1: float) -> None:
    lo, hi = geometry.theta1_range
    if not (lo <= theta1 <= hi):
        raise OutOfRangeError(
            f"theta1={theta1:.9g} rad outside admissible range "
            f"[{lo:.9g}, {hi:.9g}] rad"
        )


def _continuity_refs(policy: BranchPolicy) -> tuple[float | None, float | None]:
    if policy.mode != CONTINUITY:
        return None, None
    if policy.previous_solution is None:
        raise ValueError("continuity mode requires a previous solution")
    return policy.previous_solution.theta2, policy.previous_solution.theta6


def _chain(
    geometry: LinkageGeometry,
    theta1: np.ndarray,
    solve,
    atan2,
    references: tuple[float | None, float | None] = (None, None),
) -> JointState:
    """The one two-loop chain solver every entry point is a view of.

    ``solve(coeffs, theta_in, fixed_angle, reference)`` gives one loop's
    ``(ok, theta_out)`` over an input array.  Loop 1 maps theta1 to theta2,
    which (offset by sigma) drives loop 2.  The first sample, in input
    order, that is out of range or cannot close raises what
    :func:`solve_chain` raises for it: its range error, else the loop that
    fails there.  ``atan2`` recovers theta3/theta7.
    """
    c1 = loop_coefficients(geometry, 1)
    c2 = loop_coefficients(geometry, 2)
    ok1, theta2 = solve(c1, theta1, geometry.theta4_fixed, references[0])
    theta5 = theta2 + geometry.sigma
    ok2, theta6 = solve(c2, theta5, geometry.theta8_fixed, references[1])
    lo, hi = geometry.theta1_range
    ok = ok1 & ok2 & (lo <= theta1) & (theta1 <= hi)
    if not ok.all():
        i = int(np.argmin(ok))
        bad = float(theta1[i])
        _check_theta1(geometry, bad)
        if not ok1[i]:
            raise NoClosureError(
                f"loop 1 cannot close at theta1={bad:.9g} rad", loop=1,
                theta_in=bad,
            )
        raise NoClosureError(
            f"loop 2 cannot close at theta5={float(theta5[i]):.9g} rad "
            f"(theta1={bad:.9g} rad)", loop=2, theta_in=float(theta5[i]),
        )
    return _chain_sweep(geometry, theta1, theta2, theta6, atan2)


def _one_state(geometry, theta1, solve, policy) -> JointState:
    """One sample of :func:`_chain` with a branch policy."""
    _check_theta1(geometry, theta1)
    return _chain(
        geometry, np.array([theta1], dtype=np.float64),
        functools.partial(solve, mode=policy.mode), _libm_atan2,
        _continuity_refs(policy),
    ).state_at(0)


def solve_chain(
    geometry: LinkageGeometry,
    theta1: float,
    policy: BranchPolicy = DEFAULT_POLICY,
) -> JointState:
    """Solve both loops in series for a full joint state.

    Loop 1 maps the input angle to its dependent angle, which (offset by
    sigma) drives loop 2.  The two eliminated vector directions are
    recovered afterwards, and the anatomical MCP / PIP / DIP angles are
    filled in by their defining identities.
    """
    return _one_state(geometry, theta1, _closed_form, policy)


def solve_chain_numeric(
    geometry: LinkageGeometry,
    theta1: float,
    policy: BranchPolicy = DEFAULT_POLICY,
) -> JointState:
    """Same contract as solve_chain, computed purely by bisection.

    Exists as an independent cross-check of the closed-form path; used by
    the test suite; :func:`oracle_deviation` runs the same oracle over grids.
    """
    return _one_state(geometry, theta1, _oracle, policy)


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


def _chain_sweep(
    geometry: LinkageGeometry,
    theta1: np.ndarray,
    theta2: np.ndarray,
    theta6: np.ndarray,
    atan2=np.arctan2,
) -> JointState:
    """Fill in the eliminated and anatomical angles of solved samples."""
    theta5 = theta2 + geometry.sigma
    return JointState(
        theta1=theta1,
        theta2=theta2,
        theta3=_vector_closure_angles(
            geometry.loop_lengths(1), theta1, theta2, geometry.theta4_fixed, atan2
        ),
        theta5=theta5,
        theta6=theta6,
        theta7=_vector_closure_angles(
            geometry.loop_lengths(2), theta5, theta6, geometry.theta8_fixed, atan2
        ),
        theta_mcp=theta6,
        theta_pip=theta5 - geometry.sigma,
        theta_dip=theta1 - geometry.rho,
    )


def _continuity_sweep(coeffs, theta_in, fixed_angle, reference):
    """Nearest-branch sweep of one loop, seeded by the positive root at the
    first sample (which fails here exactly when the seed does)."""
    _, seed = _closed_form(coeffs, theta_in[:1], fixed_angle)
    return _kernels.loop_sweep_continuity(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3,
        theta_in, fixed_angle, float(seed[0]),
    )


def sweep_chain(geometry: LinkageGeometry, theta1_values: np.ndarray) -> JointState:
    """Solve the chain over a monotone sweep of input angles.

    Uses the continuity branch policy seeded by the positive root at the
    first sample, so consecutive configurations never flip assembly
    branches.  Any sample that fails to close aborts the sweep with the
    offending input angle.
    """
    theta1_values = np.asarray(theta1_values, dtype=np.float64)
    if theta1_values.ndim != 1 or theta1_values.size < 2:
        raise ValueError("sweep requires at least two input samples")
    diffs = np.diff(theta1_values)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise ValueError("sweep input angles must be strictly monotone")
    lo, hi = geometry.theta1_range
    if theta1_values.min() < lo or theta1_values.max() > hi:
        bad = theta1_values[
            (theta1_values < lo) | (theta1_values > hi)
        ][0]
        raise OutOfRangeError(
            f"sweep sample theta1={bad:.9g} rad outside range "
            f"[{lo:.9g}, {hi:.9g}] rad"
        )
    # numpy's atan/atan2 here, libm's in the scalar path: they differ in the
    # last ulp on a few inputs, and each path's emitted bytes are pinned
    return _chain(geometry, theta1_values, _continuity_sweep, np.arctan2)


def solve_chain_batch(geometry: LinkageGeometry, theta1_values) -> JointState:
    """Positive-root :func:`solve_chain` at every input angle, in one pass.

    Each sample gets exactly solve_chain's floats, and the first sample that
    is out of range or cannot close raises solve_chain's error for it.
    Unlike :func:`sweep_chain` the inputs need no order.
    """
    theta1 = np.asarray(theta1_values, dtype=np.float64)
    return _chain(geometry, theta1, _closed_form, _libm_atan2)


def _positive_kernel(coeffs, theta_in, fixed_angle, reference):
    return _kernels.loop_solve_batch(
        coeffs.kappa1, coeffs.kappa2, coeffs.kappa3, theta_in, fixed_angle, 1
    )


def oracle_deviation(
    geometry: LinkageGeometry, theta1_values
) -> tuple[float, float]:
    """Max |closed form - oracle| of theta2 and of theta6, positive root.

    Solves the chain twice over the inputs, once in closed form and once
    purely by bisection, each loop 2 driven by its own chain's loop 1.
    """
    theta1 = np.asarray(theta1_values, dtype=np.float64)
    closed = _chain(geometry, theta1, _positive_kernel, np.arctan2)
    numeric = _chain(geometry, theta1, _oracle, np.arctan2)
    return (float(np.max(np.abs(closed.theta2 - numeric.theta2))),
            float(np.max(np.abs(closed.theta6 - numeric.theta6))))

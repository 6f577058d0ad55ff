"""The finger's geometry and actuation parameters, without numpy.

Topology counts, the two-loop linkage (lengths, offsets, input range) with
its dimensionless loop coefficients, the phalanx geometry and the tendon
model: what a config parses into and what ``analyze`` prints.  The solvers
in :mod:`fingerkit.linkage` and :mod:`fingerkit.finger` build on these; this
module imports no numpy so that commands which need no arrays start fast.

Angles are radians; lengths are millimetres.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import require_integer, validated

# The finger linkage is always the same topology: six links, seven revolute
# joints, giving mobility 1 and two independent loops.
NUM_LINKS = 6
NUM_JOINTS = 7

# Largest |kappa1| + |kappa2| + |kappa3| + 1 of a loop.  It bounds the
# magnitude of each half-angle quadratic coefficient, so the discriminant
# (at most 8 times its square) stays finite at every input angle.
_KAPPA_SUM_MAX = 1e153

SINGLE = "single"
DOUBLE = "double"


def compute_mobility(num_links: int, num_joints: int) -> int:
    """Degrees of freedom of a planar linkage: 3*(L-1) - 2*j."""
    num_links = require_integer(num_links, "num_links")
    num_joints = require_integer(num_joints, "num_joints")
    if num_links < 1:
        raise ValueError("num_links must be >= 1")
    if num_joints < 0:
        raise ValueError("num_joints must be >= 0")
    return 3 * (num_links - 1) - 2 * num_joints


def count_loops(num_joints: int, num_links: int) -> int:
    """Number of independent closure loops: j - L + 1."""
    num_joints = require_integer(num_joints, "num_joints")
    num_links = require_integer(num_links, "num_links")
    if num_joints < num_links - 1:
        raise ValueError("num_joints must be >= num_links - 1")
    return num_joints - num_links + 1


@validated
class LinkageGeometry(NamedTuple):
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

    def _check(self) -> "LinkageGeometry":
        if len(self.v) != 8:
            raise ValueError("geometry requires exactly eight link lengths")
        for i, length in enumerate(self.v):
            if not (math.isfinite(length) and length > 0.0):
                raise ValueError(f"link length v{i + 1} must be finite and > 0")
        lo, hi = self.theta1_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("theta1_range must be a non-empty closed interval")
        # tuple.__new__ builds the float copy without coming back here
        geometry = tuple.__new__(
            LinkageGeometry, (tuple(map(float, self.v)), *self[1:]))
        for loop in (1, 2):
            a, b, _, _ = geometry.loop_lengths(loop)
            # 2ab, kappa3's divisor, underflows to 0 for tiny lengths; a NaN
            # or infinite coefficient fails the bound as well
            kappa_sum = (
                sum(map(abs, loop_coefficients(geometry, loop))) + 1.0
                if 2.0 * a * b > 0.0 else math.inf
            )
            if not kappa_sum <= _KAPPA_SUM_MAX:
                raise ValueError(
                    f"loop {loop} coefficients must satisfy |kappa1| + "
                    f"|kappa2| + |kappa3| + 1 <= {_KAPPA_SUM_MAX:g}"
                )
        return geometry

    def loop_lengths(self, loop: int) -> tuple[float, float, float, float]:
        if loop == 1:
            return self.v[0:4]
        if loop == 2:
            return self.v[4:8]
        raise ValueError("loop must be 1 or 2")


class LoopCoefficients(NamedTuple):
    """Dimensionless ratios of one loop; invariant under uniform scaling."""

    kappa1: float
    kappa2: float
    kappa3: float


def loop_coefficients(geometry: LinkageGeometry, loop: int) -> LoopCoefficients:
    """Dimensionless coefficients of the requested loop (1 or 2).

    For loop lengths (a, b, c, d) the ratios are d/b, d/a and
    (a^2 + b^2 - c^2 + d^2) / (2ab).
    """
    a, b, c, d = geometry.loop_lengths(loop)
    return LoopCoefficients(
        kappa1=d / b,
        kappa2=d / a,
        kappa3=(a * a + b * b - c * c + d * d) / (2.0 * a * b),
    )


@validated
class FingerGeometry(NamedTuple):
    """Phalanx lengths and mounting of the finger in the gripper frame.

    ``base_offset`` locates the MCP axis in the rotating finger plane;
    the whole plane swings about the gripper origin by the orientation
    angle psi, bounded by ``orientation_range``.
    """

    phalanx_lengths: tuple[float, float, float]
    base_offset: tuple[float, float] = (0.0, 0.0)
    orientation_range: tuple[float, float] = (-math.pi / 4.0, math.pi / 4.0)

    def _check(self) -> "FingerGeometry":
        if len(self.phalanx_lengths) != 3:
            raise ValueError("finger requires exactly three phalanx lengths")
        for i, length in enumerate(self.phalanx_lengths):
            if not (math.isfinite(length) and length > 0.0):
                raise ValueError(f"phalanx length {i} must be finite and > 0")
        lo, hi = self.orientation_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("orientation_range must be a non-empty interval")
        return self


@validated
class TendonModel(NamedTuple):
    """Pulley-idealized tendon routing with constant per-joint moment arms.

    The single-tendon variant closes against extension springs lumped into
    one equivalent torsional return spring about the input angle; the
    double-tendon variant actively drives both directions and carries no
    spring terms.
    """

    kind: str
    moment_arms: tuple[float, float, float]
    spring_stiffness: float = 0.0
    spring_preload: float = 0.0
    max_tension: float = 0.0

    def _check(self) -> "TendonModel":
        if self.kind not in (SINGLE, DOUBLE):
            raise ValueError(f"tendon kind must be 'single' or 'double', got {self.kind!r}")
        if len(self.moment_arms) != 3:
            raise ValueError("tendon requires three moment arms (MCP, PIP, DIP)")
        for arm in self.moment_arms:
            if not (math.isfinite(arm) and arm >= 0.0):
                raise ValueError("moment arms must be finite and >= 0")
        if self.kind == SINGLE and self.spring_stiffness <= 0.0:
            raise ValueError("single-tendon model requires spring_stiffness > 0")
        if self.kind == DOUBLE and (
            self.spring_stiffness != 0.0 or self.spring_preload != 0.0
        ):
            raise ValueError("double-tendon model must have zero spring terms")
        if not (math.isfinite(self.max_tension) and self.max_tension > 0.0):
            raise ValueError("max_tension must be finite and > 0")
        return self

    def as_double(self) -> "TendonModel":
        """Double-tendon variant of this routing (spring terms removed)."""
        return self._replace(kind=DOUBLE, spring_stiffness=0.0, spring_preload=0.0)

"""Fingertip kinematics, tendon actuation, and grasp assessment.

Builds on the loop solvers in :mod:`fingerkit.linkage`: the solved
anatomical angles feed a three-segment serial forward kinematics, a pulley
tendon model with an equivalent torsional return spring, a virtual-work
static tip-force prediction, and feasibility checks for pinch and
cylindrical grasps against the reference registry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DegenerateGeometryError, OutOfRangeError
from .linkage import (
    JointState,
    LinkageGeometry,
    chain_derivatives,
    solve_chain,
    solve_chain_batch,
    sweep_chain,
)
from .registry import ReferenceRegistry

SINGLE = "single"
DOUBLE = "double"

# tip Jacobians below this magnitude (mm/rad) count as singular
_TIP_SPEED_MIN = 1e-9


def _float_rows(*names: str) -> np.dtype:
    return np.dtype([(name, np.float64) for name in names])


# One fingertip location per row: planar finger-plane point plus its
# psi-rotated image in the gripper frame (angles in rad, lengths in mm).
TIP_DTYPE = _float_rows("theta1", "psi", "tip_x", "tip_y", "grip_x", "grip_y")
# One static-force sample per row: input angle (rad), tendon excursion (mm)
# and its derivative (mm/rad), tip speed (mm/rad), tip force (N).
FORCE_DTYPE = _float_rows(
    "theta1", "excursion", "d_excursion", "tip_speed", "force"
)


@dataclass(frozen=True)
class FingerGeometry:
    """Phalanx lengths and mounting of the finger in the gripper frame.

    ``base_offset`` locates the MCP axis in the rotating finger plane;
    the whole plane swings about the gripper origin by the orientation
    angle psi, bounded by ``orientation_range``.
    """

    phalanx_lengths: tuple[float, float, float]
    base_offset: tuple[float, float] = (0.0, 0.0)
    orientation_range: tuple[float, float] = (-math.pi / 4.0, math.pi / 4.0)

    def __post_init__(self) -> None:
        if len(self.phalanx_lengths) != 3:
            raise ValueError("finger requires exactly three phalanx lengths")
        for i, length in enumerate(self.phalanx_lengths):
            if not (math.isfinite(length) and length > 0.0):
                raise ValueError(f"phalanx length {i} must be finite and > 0")
        lo, hi = self.orientation_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError("orientation_range must be a non-empty interval")

    def scaled(self, factor: float) -> "FingerGeometry":
        if factor <= 0.0:
            raise ValueError("scale factor must be > 0")
        return FingerGeometry(
            phalanx_lengths=tuple(factor * x for x in self.phalanx_lengths),
            base_offset=tuple(factor * x for x in self.base_offset),
            orientation_range=self.orientation_range,
        )


@dataclass(frozen=True)
class TendonModel:
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

    def __post_init__(self) -> None:
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

    def as_double(self) -> "TendonModel":
        """Double-tendon variant of this routing (spring terms removed)."""
        return TendonModel(
            kind=DOUBLE,
            moment_arms=self.moment_arms,
            spring_stiffness=0.0,
            spring_preload=0.0,
            max_tension=self.max_tension,
        )


@dataclass(frozen=True)
class WorkspaceResult:
    points: np.ndarray  # TIP_DTYPE rows, theta1-major then psi
    max_opening_mm: float


@dataclass(frozen=True)
class GraspReport:
    """Outcome of a grasp feasibility assessment.

    ``margin`` is millimetres to the nearest diameter bound for
    cylindrical grasps and the dimensionless headroom below the pinch
    force cap for pinch grasps.
    """

    grasp_type: str
    feasible: bool
    predicted_force: float
    margin: float
    notes: str


@dataclass(frozen=True)
class CylinderObject:
    diameter_mm: float


@dataclass(frozen=True)
class FlatObject:
    thickness_mm: float


def _phalanx_angles(state: JointState):
    """Cumulative anatomical angles of the three phalanges."""
    a1 = state.theta_mcp
    a2 = a1 + state.theta_pip
    return a1, a2, a2 + state.theta_dip


def _planar_tip(finger: FingerGeometry, state: JointState):
    """Finger-plane fingertip of solved configurations."""
    p1, p2, p3 = finger.phalanx_lengths
    a1, a2, a3 = _phalanx_angles(state)
    x = finger.base_offset[0] + p1 * np.cos(a1) + p2 * np.cos(a2) + p3 * np.cos(a3)
    y = finger.base_offset[1] + p1 * np.sin(a1) + p2 * np.sin(a2) + p3 * np.sin(a3)
    return x, y


def _tip_rows(finger: FingerGeometry, state: JointState, psi) -> np.ndarray:
    """TIP_DTYPE rows for every (sample, psi) pair, sample-major.

    The gripper-frame point is the planar point rotated by psi about the
    orientation axis.
    """
    x, y = (np.atleast_1d(v)[:, None] for v in _planar_tip(finger, state))
    psi = np.atleast_1d(np.asarray(psi, dtype=np.float64))
    cos_p, sin_p = np.cos(psi), np.sin(psi)
    rows = np.empty((x.shape[0], psi.size), TIP_DTYPE)
    rows["theta1"] = np.atleast_1d(state.theta1)[:, None]
    rows["psi"] = psi
    rows["tip_x"] = x
    rows["tip_y"] = y
    rows["grip_x"] = x * cos_p - y * sin_p
    rows["grip_y"] = x * sin_p + y * cos_p
    return rows.ravel()


def tip_position(finger: FingerGeometry, state: JointState, psi: float) -> np.void:
    """Fingertip of a solved configuration, as one TIP_DTYPE record.

    The planar point accumulates the three phalanx vectors at cumulative
    anatomical angles; the gripper-frame point is that planar point
    rotated by psi about the orientation axis.
    """
    return _tip_rows(finger, state, psi)[0]


def tip_trace(finger: FingerGeometry, sweep: JointState, psi: float) -> np.ndarray:
    """Fingertip trace of a solved sweep at fixed psi: TIP_DTYPE rows in
    sweep order.  Solve the sweep with :func:`sweep_chain`, which raises
    with the offending input angle for a sample that cannot close."""
    return _tip_rows(finger, sweep, psi)


def _segment_distance(
    px: np.ndarray, py: np.ndarray, seg: tuple[tuple[float, float], tuple[float, float]]
) -> np.ndarray:
    (x1, y1), (x2, y2) = seg
    dx, dy = x2 - x1, y2 - y1
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return np.hypot(px - x1, py - y1)
    t = np.clip(((px - x1) * dx + (py - y1) * dy) / seg_len_sq, 0.0, 1.0)
    return np.hypot(px - (x1 + t * dx), py - (y1 + t * dy))


def workspace(
    geometry: LinkageGeometry,
    finger: FingerGeometry,
    theta1_samples: int,
    psi_samples: int,
    thumb_line: tuple[tuple[float, float], tuple[float, float]],
) -> WorkspaceResult:
    """Cartesian-product sweep of input angle and finger orientation.

    The cloud is ordered theta1-major then psi; the opening-width metric
    is the maximum distance from any gripper-frame tip to the fixed-thumb
    contact segment.
    """
    if theta1_samples < 2 or psi_samples < 2:
        raise ValueError("workspace requires at least 2 samples on each axis")
    t_lo, t_hi = geometry.theta1_range
    p_lo, p_hi = finger.orientation_range
    theta1_values = np.linspace(t_lo, t_hi, theta1_samples)
    psi_values = np.linspace(p_lo, p_hi, psi_samples)

    points = _tip_rows(finger, sweep_chain(geometry, theta1_values), psi_values)
    opening = float(np.max(
        _segment_distance(points["grip_x"], points["grip_y"], thumb_line)))
    return WorkspaceResult(points=points, max_opening_mm=opening)


def tendon_excursion(tendon: TendonModel, geometry: LinkageGeometry,
                     state: JointState):
    """Tendon length drawn since the range-start configuration, and its
    derivative with respect to the input angle.

    Excursion is the moment-arm-weighted sum of anatomical joint angles;
    the derivative chains the implicit loop transmissions through both
    dependent angles.  Floats or arrays back, as ``state`` holds.
    """
    start = solve_chain(geometry, geometry.theta1_range[0])
    r_mcp, r_pip, r_dip = tendon.moment_arms
    excursion = (
        r_mcp * (state.theta_mcp - start.theta_mcp)
        + r_pip * (state.theta_pip - start.theta_pip)
        + r_dip * (state.theta_dip - start.theta_dip)
    )
    d21, d61 = chain_derivatives(geometry, state)
    d_excursion = r_mcp * d61 + r_pip * d21 + r_dip * 1.0
    return excursion, d_excursion


def tip_velocity(geometry: LinkageGeometry, finger: FingerGeometry,
                 state: JointState):
    """d(tip)/d(theta1) of the planar fingertip, mm/rad."""
    d21, d61 = chain_derivatives(geometry, state)
    p1, p2, p3 = finger.phalanx_lengths
    a1, a2, a3 = _phalanx_angles(state)
    da1 = d61
    da2 = d61 + d21
    da3 = d61 + d21 + 1.0
    vx = -(p1 * np.sin(a1) * da1 + p2 * np.sin(a2) * da2 + p3 * np.sin(a3) * da3)
    vy = p1 * np.cos(a1) * da1 + p2 * np.cos(a2) * da2 + p3 * np.cos(a3) * da3
    return vx, vy


def force_profile(
    tendon: TendonModel,
    geometry: LinkageGeometry,
    finger: FingerGeometry,
    theta1_values,
    tension: float,
) -> np.ndarray:
    """Static tip force at every input angle, in one positive-root pass.

    Tension working through the tendon excursion, less the return-spring
    torque, divided by the tip speed per unit input angle.  Contacts only
    push, so negative results clamp to zero.  Returns FORCE_DTYPE rows;
    each sample equals the scalar :func:`static_tip_force`,
    :func:`tendon_excursion` and :func:`tip_velocity` results bit for bit.
    """
    if not (0.0 <= tension <= tendon.max_tension):
        raise OutOfRangeError(
            f"tension {tension:.9g} N outside [0, {tendon.max_tension:.9g}] N"
        )
    chain = solve_chain_batch(geometry, theta1_values)
    excursion, d_excursion = tendon_excursion(tendon, geometry, chain)
    vx, vy = tip_velocity(geometry, finger, chain)
    speed = _kernels.libm(math.hypot, vx, vy)
    singular = speed < _TIP_SPEED_MIN
    if singular.any():
        raise DegenerateGeometryError(
            f"tip Jacobian magnitude {speed[np.argmax(singular)]:.3e} mm/rad "
            "is singular"
        )
    spring_torque = tendon.spring_preload + tendon.spring_stiffness * (
        chain.theta1 - geometry.theta1_range[0]
    )
    force = (tension * d_excursion - spring_torque) / speed
    profile = np.empty(chain.theta1.size, FORCE_DTYPE)
    profile["theta1"] = chain.theta1
    profile["excursion"] = excursion
    profile["d_excursion"] = d_excursion
    profile["tip_speed"] = speed
    profile["force"] = np.where(force > 0.0, force, 0.0)
    return profile


def static_tip_force(
    tendon: TendonModel,
    geometry: LinkageGeometry,
    finger: FingerGeometry,
    theta1: float,
    tension: float,
) -> float:
    """Contact-normal tip force magnitude predicted by virtual work: one
    sample of :func:`force_profile`."""
    return float(force_profile(tendon, geometry, finger, [theta1], tension)["force"][0])


def grasp_assess(
    obj: CylinderObject | FlatObject,
    registry: ReferenceRegistry,
    force: float,
) -> GraspReport:
    """Feasibility verdict for a candidate object held with tip ``force``
    (N, from :func:`static_tip_force`).

    Cylinders are feasible inside the registry's closed diameter
    envelope; flat objects are treated as pinch grasps with the predicted
    force capped at the registry pinch maximum.
    """
    if isinstance(obj, CylinderObject):
        if obj.diameter_mm <= 0.0:
            raise ValueError("cylinder diameter must be > 0")
        lo = registry.value("grasp_diameter_min_mm")
        hi = registry.value("grasp_diameter_max_mm")
        feasible = lo <= obj.diameter_mm <= hi
        margin = min(obj.diameter_mm - lo, hi - obj.diameter_mm)
        if feasible:
            return GraspReport(
                grasp_type="cylindrical",
                feasible=True,
                predicted_force=force,
                margin=margin,
                notes=f"diameter inside [{lo:.9g}, {hi:.9g}] mm envelope",
            )
        return GraspReport(
            grasp_type="infeasible",
            feasible=False,
            predicted_force=0.0,
            margin=margin,
            notes=f"diameter outside [{lo:.9g}, {hi:.9g}] mm envelope",
        )
    if isinstance(obj, FlatObject):
        if obj.thickness_mm <= 0.0:
            raise ValueError("flat-object thickness must be > 0")
        cap = registry.value("pinch_force_max_n")
        capped = min(force, cap)
        notes = "pinch grasp"
        if force > cap:
            notes += f"; force capped at registry maximum {cap:.9g} N"
        return GraspReport(
            grasp_type="pinch",
            feasible=True,
            predicted_force=capped,
            margin=(cap - capped) / cap,
            notes=notes,
        )
    raise TypeError(f"unsupported grasp object: {type(obj).__name__}")

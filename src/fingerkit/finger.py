"""Fingertip kinematics, tendon actuation, and grasp assessment.

Builds on the loop solvers in :mod:`fingerkit.linkage`: the solved
anatomical angles feed a three-segment serial forward kinematics, a pulley
tendon model with an equivalent torsional return spring, a virtual-work
static tip-force prediction, and feasibility checks for pinch and
cylindrical grasps against the reference registry.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, OutOfRangeError
from .geometry import FingerGeometry, LinkageGeometry, TendonModel
from .linkage import JointState, chain_derivatives, solve_chain, sweep_chain
from .registry import ReferenceRegistry

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


class WorkspaceResult(NamedTuple):
    points: np.ndarray  # TIP_DTYPE rows, theta1-major then psi
    max_opening_mm: float


class GraspReport(NamedTuple):
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


class CylinderObject(NamedTuple):
    diameter_mm: float


class FlatObject(NamedTuple):
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
    grip = points["grip_x"], points["grip_y"]
    opening = float(np.max(_segment_distance(*grip, thumb_line)))
    # a non-finite tip is reported with its table; with every tip finite,
    # only the distance to the thumb line can overflow
    if not math.isfinite(opening) and all(np.isfinite(g).all() for g in grip):
        raise OutOfRangeError(f"max_opening_mm is {opening}: the distance to "
                              f"the thumb line {thumb_line} overflows")
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
    return _excursion(tendon, state, start, chain_derivatives(geometry, state))


def _excursion(tendon: TendonModel, state: JointState, start: JointState,
               derivatives):
    """:func:`tendon_excursion` given the range-start state ``start`` and
    ``chain_derivatives`` at ``state``."""
    r_mcp, r_pip, r_dip = tendon.moment_arms
    excursion = (
        r_mcp * (state.theta_mcp - start.theta_mcp)
        + r_pip * (state.theta_pip - start.theta_pip)
        + r_dip * (state.theta_dip - start.theta_dip)
    )
    d21, d61 = derivatives
    d_excursion = r_mcp * d61 + r_pip * d21 + r_dip * 1.0
    return excursion, d_excursion


def tip_velocity(geometry: LinkageGeometry, finger: FingerGeometry,
                 state: JointState):
    """d(tip)/d(theta1) of the planar fingertip, mm/rad."""
    return _velocity(finger, state, chain_derivatives(geometry, state))


def _velocity(finger: FingerGeometry, state: JointState, derivatives):
    """:func:`tip_velocity` given ``chain_derivatives`` at ``state``."""
    d21, d61 = derivatives
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
    # the range start rides along as the last sample, so an error for a
    # requested sample is still the one raised
    solved = solve_chain(
        geometry, np.append(theta1_values, geometry.theta1_range[0]))
    chain = JointState._make(values[:-1] for values in solved)
    derivatives = chain_derivatives(geometry, chain)
    excursion, d_excursion = _excursion(tendon, chain, solved.state_at(-1),
                                        derivatives)
    vx, vy = _velocity(finger, chain, derivatives)
    # CPython's own math.hypot, not numpy's: they differ in the last ulp,
    # and the emitted tip speeds are pinned to math.hypot's
    speed = np.fromiter(map(math.hypot, vx.tolist(), vy.tolist()),
                        np.float64, count=vx.size)
    bad = ~np.isfinite(speed) | (speed < _TIP_SPEED_MIN)
    if bad.any():
        s = float(speed[np.argmax(bad)])
        raise DegenerateGeometryError(
            f"tip Jacobian magnitude {s:.3e} mm/rad is "
            + ("singular" if s < _TIP_SPEED_MIN else "not finite")
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
    # clamped at zero; NaN stays NaN for the caller's finiteness check
    profile["force"] = np.where(force <= 0.0, 0.0, force)
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

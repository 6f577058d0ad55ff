"""Forward kinematics, traces, workspace, tendon model, force prediction,
and grasp assessment."""

import cmath
import math

import numpy as np
import pytest

import fingerkit as fk
from fingerkit.finger import _segment_distance


def make_state(mcp=0.0, pip=0.0, dip=0.0, theta1=0.0):
    """Hand-built joint state for FK-only tests."""
    return fk.JointState(
        theta1=theta1, theta2=pip, theta3=0.0, theta5=pip, theta6=mcp,
        theta7=0.0, theta_mcp=mcp, theta_pip=pip, theta_dip=dip,
    )


def complex_fk(finger, mcp, pip, dip):
    """Independent FK oracle: phalanx vectors accumulated as complex phasors."""
    z = complex(*finger.base_offset)
    angle = 0.0
    for length, joint in zip(finger.phalanx_lengths, (mcp, pip, dip)):
        angle += joint
        z += length * cmath.exp(1j * angle)
    return z.real, z.imag


class TestTipPosition:
    def test_straight_finger(self):
        f = fk.FingerGeometry(phalanx_lengths=(45.0, 25.0, 20.0))
        s = fk.tip_position(f, make_state(), psi=0.0)
        assert (s["tip_x"], s["tip_y"]) == (90.0, 0.0)
        assert (s["grip_x"], s["grip_y"]) == (90.0, 0.0)

    def test_quarter_turn_at_base(self):
        f = fk.FingerGeometry(phalanx_lengths=(45.0, 25.0, 20.0))
        s = fk.tip_position(f, make_state(mcp=math.pi / 2.0), psi=0.0)
        assert s["tip_x"] == pytest.approx(0.0, abs=1e-12)
        assert s["tip_y"] == pytest.approx(90.0, abs=1e-12)

    def test_matches_complex_oracle(self, finger, geometry, rng):
        lo, hi = geometry.theta1_range
        for theta1 in rng.uniform(lo, hi, 25):
            state = fk.solve_chain(geometry, float(theta1))
            s = fk.tip_position(finger, state, psi=0.0)
            ox, oy = complex_fk(
                finger, state.theta_mcp, state.theta_pip, state.theta_dip)
            assert s["tip_x"] == pytest.approx(ox, abs=1e-9)
            assert s["tip_y"] == pytest.approx(oy, abs=1e-9)

    def test_rotation_consistency(self, finger, geometry, rng):
        state = fk.solve_chain(geometry, 0.5 * sum(geometry.theta1_range))
        for psi in rng.uniform(-math.pi, math.pi, 50):
            s = fk.tip_position(finger, state, float(psi))
            c, sn = math.cos(psi), math.sin(psi)
            x, y = s["tip_x"], s["tip_y"]
            assert s["grip_x"] == pytest.approx(c * x - sn * y, abs=1e-12)
            assert s["grip_y"] == pytest.approx(sn * x + c * y, abs=1e-12)

    def test_zero_angles_lie_on_base_axis(self, rng):
        for _ in range(20):
            lengths = tuple(rng.uniform(5.0, 60.0, 3))
            f = fk.FingerGeometry(phalanx_lengths=lengths)
            s = fk.tip_position(f, make_state(), psi=0.0)
            assert s["tip_x"] == pytest.approx(sum(lengths), rel=1e-12)
            assert s["tip_y"] == 0.0


class TestTipTrace:
    def test_endpoints_match_single_calls(self, geometry, finger):
        lo, hi = geometry.theta1_range
        trace = fk.tip_trace(
            finger, fk.sweep_chain(geometry, np.array([lo, hi])), psi=0.1)
        for sample, theta1 in ((trace[0], lo), (trace[-1], hi)):
            state = fk.solve_chain(geometry, theta1)
            single = fk.tip_position(finger, state, 0.1)
            assert sample["tip_x"] == pytest.approx(single["tip_x"], abs=1e-12)
            assert sample["tip_y"] == pytest.approx(single["tip_y"], abs=1e-12)

    def test_length_and_order(self, geometry, finger):
        lo, hi = geometry.theta1_range
        grid = np.linspace(lo, hi, 37)
        trace = fk.tip_trace(finger, fk.sweep_chain(geometry, grid), psi=0.0)
        assert trace.dtype == fk.TIP_DTYPE
        assert len(trace) == 37
        assert np.array_equal(trace["theta1"], grid)
        assert np.all(trace["psi"] == 0.0)

    def test_out_of_range_rejected(self, geometry, finger):
        lo, hi = geometry.theta1_range
        with pytest.raises(fk.OutOfRangeError):
            fk.tip_trace(finger, fk.sweep_chain(geometry, np.array([lo, hi + 0.5])),
                         psi=0.0)

    def test_failed_closure_reports_theta1(self, finger):
        g = fk.LinkageGeometry(
            v=(25, 40, 45, 10, 25, 40, 45, 10), sigma=0.0, rho=0.0,
            theta1_range=(0.0, math.radians(75.0)),
        )
        with pytest.raises(fk.NoClosureError) as exc_info:
            fk.tip_trace(
                finger, fk.sweep_chain(g, np.linspace(0.0, math.radians(75.0), 9)),
                psi=0.0)
        assert exc_info.value.theta_in is not None

    def test_arc_length_matches_oracle_sweep(self, geometry, finger):
        # independent trace: every sample solved by the bisection oracle
        lo, hi = geometry.theta1_range
        grid = np.linspace(lo, hi, 100)
        trace = fk.tip_trace(finger, fk.sweep_chain(geometry, grid), psi=0.0)

        def arc_length(points):
            xs = np.array([p[0] for p in points])
            ys = np.array([p[1] for p in points])
            return float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))

        closed = arc_length(list(zip(trace["tip_x"], trace["tip_y"])))
        oracle_pts = []
        for theta1 in grid:
            state = fk.solve_chain_numeric(geometry, float(theta1))
            s = fk.tip_position(finger, state, 0.0)
            oracle_pts.append((s["tip_x"], s["tip_y"]))
        oracle = arc_length(oracle_pts)
        assert closed == pytest.approx(oracle, rel=1e-3)


class TestWorkspace:
    def test_two_by_two(self, geometry, finger, thumb_line):
        result = fk.workspace(geometry, finger, 2, 2, thumb_line)
        assert len(result.points) == 4
        lo, hi = geometry.theta1_range
        p_lo, p_hi = finger.orientation_range
        expected_pairs = [(lo, p_lo), (lo, p_hi), (hi, p_lo), (hi, p_hi)]
        for sample, (t, p) in zip(result.points, expected_pairs):
            assert (sample["theta1"], sample["psi"]) == (t, p)
            state = fk.solve_chain(geometry, t)
            single = fk.tip_position(finger, state, p)
            assert sample["grip_x"] == pytest.approx(single["grip_x"], abs=1e-9)
            assert sample["grip_y"] == pytest.approx(single["grip_y"], abs=1e-9)

    def test_deterministic_ordering(self, geometry, finger, thumb_line):
        a = fk.workspace(geometry, finger, 7, 5, thumb_line)
        b = fk.workspace(geometry, finger, 7, 5, thumb_line)
        assert np.array_equal(a.points, b.points)
        assert a.max_opening_mm == b.max_opening_mm

    def test_scaling_doubles_points(self, geometry, finger, thumb_line):
        base = fk.workspace(geometry, finger, 6, 4, thumb_line)
        scaled_thumb = tuple(
            (2.0 * x, 2.0 * y) for x, y in thumb_line)
        scaled = fk.workspace(
            geometry.scaled(2.0), finger.scaled(2.0), 6, 4, scaled_thumb)
        for s_base, s_scaled in zip(base.points, scaled.points):
            assert s_scaled["grip_x"] == pytest.approx(2.0 * s_base["grip_x"], rel=1e-9)
            assert s_scaled["grip_y"] == pytest.approx(2.0 * s_base["grip_y"], rel=1e-9)
        assert scaled.max_opening_mm == pytest.approx(
            2.0 * base.max_opening_mm, rel=1e-9)

    def test_opening_width_by_transposed_scan(self, geometry, finger, thumb_line):
        result = fk.workspace(geometry, finger, 15, 9, thumb_line)
        # second pass with transposed loop order
        best = 0.0
        p_lo, p_hi = finger.orientation_range
        lo, hi = geometry.theta1_range
        for psi in np.linspace(p_lo, p_hi, 9):
            for theta1 in np.linspace(lo, hi, 15):
                state = fk.solve_chain(geometry, float(theta1))
                s = fk.tip_position(finger, state, float(psi))
                d = float(_segment_distance(
                    np.array([s["grip_x"]]), np.array([s["grip_y"]]), thumb_line)[0])
                best = max(best, d)
        assert result.max_opening_mm == pytest.approx(best, rel=1e-12)

    def test_opening_width_dense_sweep(self, geometry, finger, thumb_line):
        result = fk.workspace(geometry, finger, 200, 50, thumb_line)
        # vectorized psi-major recomputation of the same maximum
        lo, hi = geometry.theta1_range
        sweep = fk.sweep_chain(geometry, np.linspace(lo, hi, 200))
        p1, p2, p3 = finger.phalanx_lengths
        a1 = sweep.theta_mcp
        a2 = a1 + sweep.theta_pip
        a3 = a2 + sweep.theta_dip
        x = finger.base_offset[0] + p1 * np.cos(a1) + p2 * np.cos(a2) + p3 * np.cos(a3)
        y = finger.base_offset[1] + p1 * np.sin(a1) + p2 * np.sin(a2) + p3 * np.sin(a3)
        best = 0.0
        p_lo, p_hi = finger.orientation_range
        for psi in np.linspace(p_lo, p_hi, 50):
            gx = math.cos(psi) * x - math.sin(psi) * y
            gy = math.sin(psi) * x + math.cos(psi) * y
            best = max(best, float(np.max(_segment_distance(gx, gy, thumb_line))))
        assert result.max_opening_mm == pytest.approx(best, rel=1e-12)
        assert len(result.points) == 200 * 50

    def test_requires_two_samples(self, geometry, finger, thumb_line):
        with pytest.raises(ValueError):
            fk.workspace(geometry, finger, 1, 4, thumb_line)
        with pytest.raises(ValueError):
            fk.workspace(geometry, finger, 4, 1, thumb_line)


class TestSegmentDistance:
    def test_perpendicular_and_endpoint(self):
        seg = ((0.0, 0.0), (10.0, 0.0))
        d = _segment_distance(np.array([5.0, 15.0]), np.array([3.0, 0.0]), seg)
        assert d[0] == pytest.approx(3.0)
        assert d[1] == pytest.approx(5.0)

    def test_degenerate_segment(self):
        seg = ((2.0, 2.0), (2.0, 2.0))
        d = _segment_distance(np.array([5.0]), np.array([6.0]), seg)
        assert d[0] == pytest.approx(5.0)


class TestTendonModel:
    def test_single_requires_spring(self):
        with pytest.raises(ValueError):
            fk.TendonModel(kind="single", moment_arms=(1, 1, 1),
                           spring_stiffness=0.0, max_tension=10.0)

    def test_double_requires_no_spring(self):
        with pytest.raises(ValueError):
            fk.TendonModel(kind="double", moment_arms=(1, 1, 1),
                           spring_stiffness=5.0, max_tension=10.0)

    def test_as_double_zeroes_spring(self, tendon):
        d = tendon.as_double()
        assert d.kind == "double"
        assert d.spring_stiffness == 0.0
        assert d.spring_preload == 0.0
        assert d.moment_arms == tendon.moment_arms


class TestTendonExcursion:
    def test_zero_arms(self, geometry):
        t = fk.TendonModel(kind="double", moment_arms=(0.0, 0.0, 0.0),
                           max_tension=10.0)
        state = fk.solve_chain(geometry, 0.5 * sum(geometry.theta1_range))
        excursion, d_exc = fk.tendon_excursion(t, geometry, state)
        assert excursion == 0.0
        assert d_exc == 0.0

    def test_equal_arms_linearity(self, geometry):
        r = 7.5
        t = fk.TendonModel(kind="double", moment_arms=(r, r, r),
                           max_tension=10.0)
        lo, _ = geometry.theta1_range
        start = fk.solve_chain(geometry, lo)
        state = fk.solve_chain(geometry, 0.5 * sum(geometry.theta1_range))
        s_now = state.theta_mcp + state.theta_pip + state.theta_dip
        s_start = start.theta_mcp + start.theta_pip + start.theta_dip
        excursion, _ = fk.tendon_excursion(t, geometry, state)
        assert excursion == pytest.approx(r * (s_now - s_start), rel=1e-12)

    def test_derivative_against_finite_difference(self, geometry, tendon):
        h = 1e-5
        for frac in (0.15, 0.5, 0.85):
            lo, hi = geometry.theta1_range
            theta1 = lo + frac * (hi - lo)
            state = fk.solve_chain(geometry, theta1)
            _, d_exc = fk.tendon_excursion(tendon, geometry, state)
            e_plus, _ = fk.tendon_excursion(
                tendon, geometry, fk.solve_chain(geometry, theta1 + h))
            e_minus, _ = fk.tendon_excursion(
                tendon, geometry, fk.solve_chain(geometry, theta1 - h))
            fd = (e_plus - e_minus) / (2.0 * h)
            assert d_exc == pytest.approx(fd, rel=1e-6)


class TestTipVelocity:
    def test_against_finite_difference(self, geometry, finger):
        h = 1e-5
        for frac in (0.2, 0.6, 0.9):
            lo, hi = geometry.theta1_range
            theta1 = lo + frac * (hi - lo)
            state = fk.solve_chain(geometry, theta1)
            vx, vy = fk.tip_velocity(geometry, finger, state)
            sp = fk.tip_position(
                finger, fk.solve_chain(geometry, theta1 + h), 0.0)
            sm = fk.tip_position(
                finger, fk.solve_chain(geometry, theta1 - h), 0.0)
            assert vx == pytest.approx((sp["tip_x"] - sm["tip_x"]) / (2 * h), rel=1e-6)
            assert vy == pytest.approx((sp["tip_y"] - sm["tip_y"]) / (2 * h), rel=1e-6)


class TestStaticTipForce:
    def test_unit_transmission_returns_tension(self, geometry, finger):
        # arms (0, 0, s) make the excursion derivative equal the tip speed s
        theta1 = 0.5 * sum(geometry.theta1_range)
        state = fk.solve_chain(geometry, theta1)
        vx, vy = fk.tip_velocity(geometry, finger, state)
        speed = math.hypot(vx, vy)
        t = fk.TendonModel(kind="double", moment_arms=(0.0, 0.0, speed),
                           max_tension=50.0)
        force = fk.static_tip_force(t, geometry, finger, theta1, 12.5)
        assert force == pytest.approx(12.5, rel=1e-12)

    def test_zero_tension_single_clamps_to_zero(self, geometry, finger, tendon):
        force = fk.static_tip_force(
            tendon, geometry, finger, 0.5 * sum(geometry.theta1_range), 0.0)
        assert force == 0.0

    def test_tension_out_of_range(self, geometry, finger, tendon):
        with pytest.raises(fk.OutOfRangeError):
            fk.static_tip_force(tendon, geometry, finger,
                                geometry.theta1_range[0], -1.0)
        with pytest.raises(fk.OutOfRangeError):
            fk.static_tip_force(tendon, geometry, finger,
                                geometry.theta1_range[0],
                                tendon.max_tension + 1.0)

    def test_affine_in_tension_above_clamp(self, geometry, finger, tendon):
        theta1 = geometry.theta1_range[0]
        f1 = fk.static_tip_force(tendon, geometry, finger, theta1, 20.0)
        f2 = fk.static_tip_force(tendon, geometry, finger, theta1, 30.0)
        f3 = fk.static_tip_force(tendon, geometry, finger, theta1, 38.0)
        assert f1 > 0.0
        # equal tension steps give equal force steps once unclamped
        assert f2 - f1 == pytest.approx((f3 - f2) * (10.0 / 8.0), rel=1e-9)
        assert f1 < f2 < f3

    def test_monotone_in_tension(self, geometry, finger, tendon, rng):
        theta1 = 0.5 * sum(geometry.theta1_range)
        tensions = np.sort(rng.uniform(0.0, tendon.max_tension, 12))
        forces = [
            fk.static_tip_force(tendon, geometry, finger, theta1, float(t))
            for t in tensions
        ]
        assert all(b >= a for a, b in zip(forces, forces[1:]))

    def test_singular_tip_jacobian_detected(self, geometry, tendon):
        tiny = fk.FingerGeometry(phalanx_lengths=(1e-12, 1e-12, 1e-12))
        with pytest.raises(fk.DegenerateGeometryError):
            fk.static_tip_force(tendon, geometry, tiny,
                                geometry.theta1_range[0], 10.0)


class TestGraspAssess:
    def make_force(self, cfg):
        return fk.static_tip_force(
            cfg.require_tendon(),
            cfg.geometry,
            cfg.require_finger(),
            cfg.geometry.theta1_range[0],
            cfg.require_tendon().max_tension,
        )

    def test_cylinder_inside_envelope(self, cfg, registry):
        report = fk.grasp_assess(
            fk.CylinderObject(100.0), registry, self.make_force(cfg))
        assert report.grasp_type == "cylindrical"
        assert report.feasible
        assert report.predicted_force > 0.0
        assert report.margin == pytest.approx(45.0)

    @pytest.mark.parametrize("diameter,feasible", [
        (30.0, True), (145.0, True), (29.9, False), (145.1, False),
    ])
    def test_cylinder_boundaries(self, cfg, registry, diameter, feasible):
        report = fk.grasp_assess(
            fk.CylinderObject(diameter), registry, self.make_force(cfg))
        assert report.feasible is feasible
        if not feasible:
            assert report.grasp_type == "infeasible"
            assert report.predicted_force == 0.0
            assert report.margin < 0.0

    def test_flat_sheet_pinch(self, cfg, registry):
        report = fk.grasp_assess(
            fk.FlatObject(0.5), registry, self.make_force(cfg))
        assert report.grasp_type == "pinch"
        assert report.feasible
        assert report.predicted_force <= registry.value("pinch_force_max_n")
        assert 0.0 <= report.margin <= 1.0

    def test_force_cap_applies(self, cfg, registry):
        # large moment arms push the raw prediction over the cap
        big = fk.TendonModel(kind="double", moment_arms=(60.0, 50.0, 40.0),
                             max_tension=38.0)
        force = fk.static_tip_force(
            big, cfg.geometry, cfg.require_finger(),
            cfg.geometry.theta1_range[0], 38.0)
        report = fk.grasp_assess(fk.FlatObject(1.0), registry, force)
        assert report.predicted_force == registry.value("pinch_force_max_n")
        assert report.margin == 0.0
        assert "capped" in report.notes

    def test_nonpositive_dimension_rejected(self, cfg, registry):
        with pytest.raises(ValueError):
            fk.grasp_assess(fk.CylinderObject(0.0), registry,
                            self.make_force(cfg))
        with pytest.raises(ValueError):
            fk.grasp_assess(fk.FlatObject(-1.0), registry,
                            self.make_force(cfg))

    def test_envelope_is_registry_driven(self, cfg):
        doc = fk.default_registry()
        entries = tuple(
            e if e.key != "grasp_diameter_min_mm"
            else fk.registry.RegistryEntry(e.key, 50, e.unit, e.source, e.quote)
            for e in doc.entries
        )
        import fingerkit.registry as registry_mod
        custom = registry_mod.ReferenceRegistry(entries=entries, rules=doc.rules)
        report = fk.grasp_assess(
            fk.CylinderObject(40.0), custom, self.make_force(cfg))
        assert not report.feasible


class TestFingerGeometryValidation:
    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            fk.FingerGeometry(phalanx_lengths=(0.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            fk.FingerGeometry(phalanx_lengths=(1.0, 1.0))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            fk.FingerGeometry(phalanx_lengths=(1, 1, 1),
                              orientation_range=(1.0, -1.0))

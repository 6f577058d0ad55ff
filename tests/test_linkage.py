"""Loop-closure solver tests: counting formulas, coefficients, both solve
paths, branch selection, and the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fingerkit as fk
from fingerkit import _kernels, linkage
from fingerkit.linkage import CONTINUITY, NEGATIVE_ROOT, POSITIVE_ROOT


def closure_residual(coeffs, theta_in, theta_out, fixed_angle=math.pi / 2.0):
    """Scalar closure residual of one loop; zero iff the loop closes."""
    return (
        coeffs.kappa3
        + math.cos(theta_in)
        + coeffs.kappa1 * math.cos(theta_in + theta_out - fixed_angle)
        + coeffs.kappa2 * math.cos(theta_out - fixed_angle)
    )


def numeric_chain(geometry, theta1):
    """The chain at one input angle, both loops solved by the oracle."""
    return linkage._chain(
        geometry, np.array([theta1]), linkage._oracle
    ).state_at(0)


def reference_bisect(coeffs, theta_in, fixed_angle=math.pi / 2.0, n=20000):
    """Independent root finder used only by tests: dense scan plus plain
    interval bisection of the closure residual.  Returns all roots."""

    def residual(x):
        return closure_residual(coeffs, theta_in, x, fixed_angle)

    xs = [-math.pi + 2.0 * math.pi * i / n for i in range(n + 1)]
    roots = []
    f_prev = residual(xs[0])
    for i in range(1, n + 1):
        f_cur = residual(xs[i])
        if f_prev == 0.0:
            roots.append(xs[i - 1])
        elif f_cur != 0.0 and (f_prev < 0.0) != (f_cur < 0.0):
            lo, hi, f_lo = xs[i - 1], xs[i], f_prev
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                f_mid = residual(mid)
                if f_mid == 0.0:
                    lo = hi = mid
                    break
                if (f_lo < 0.0) != (f_mid < 0.0):
                    hi = mid
                else:
                    lo, f_lo = mid, f_mid
            roots.append(0.5 * (lo + hi))
        f_prev = f_cur
    return sorted(roots)


class TestCounting:
    def test_mobility_examples(self):
        assert fk.compute_mobility(6, 7) == 1
        assert fk.compute_mobility(4, 4) == 1
        assert fk.compute_mobility(3, 3) == 0

    def test_mobility_preconditions(self):
        with pytest.raises(ValueError):
            fk.compute_mobility(0, 3)
        with pytest.raises(ValueError):
            fk.compute_mobility(4, -1)

    def test_loop_count_examples(self):
        assert fk.count_loops(7, 6) == 2
        assert fk.count_loops(4, 4) == 1
        assert fk.count_loops(7, 7) == 1

    def test_loop_count_precondition(self):
        with pytest.raises(ValueError):
            fk.count_loops(2, 4)

    @given(
        links=st.integers(min_value=1, max_value=500),
        joints=st.integers(min_value=0, max_value=500),
    )
    def test_mobility_formula(self, links, joints):
        assert fk.compute_mobility(links, joints) == 3 * (links - 1) - 2 * joints


class TestLoopCoefficients:
    def test_unit_lengths(self):
        g = fk.LinkageGeometry(
            v=(1, 1, 1, 1, 1, 1, 1, 1), sigma=0.0, rho=0.0
        )
        c = fk.loop_coefficients(g, 1)
        assert (c.kappa1, c.kappa2, c.kappa3) == (1.0, 1.0, 1.0)

    def test_quarter_geometry(self):
        # (25, 40, 45, 10): ratios 10/40, 10/25 and
        # (625 + 1600 - 2025 + 100) / (2 * 25 * 40) = 300 / 2000
        g = fk.LinkageGeometry(
            v=(25, 40, 45, 10, 25, 40, 45, 10), sigma=0.0, rho=0.0
        )
        c = fk.loop_coefficients(g, 1)
        assert c.kappa1 == 0.25
        assert c.kappa2 == 0.4
        assert c.kappa3 == 0.15

    def test_loop2_uses_second_quad(self):
        g = fk.LinkageGeometry(
            v=(25, 40, 45, 10, 30, 48, 54, 12), sigma=0.0, rho=0.0
        )
        c2 = fk.loop_coefficients(g, 2)
        assert c2.kappa1 == 12 / 48
        assert c2.kappa2 == 12 / 30
        assert c2.kappa3 == (900 + 2304 - 2916 + 144) / (2 * 30 * 48)

    @given(
        lengths=st.tuples(*[st.floats(5.0, 100.0) for _ in range(4)]),
        scale=st.floats(0.1, 10.0),
    )
    def test_scaling_homogeneity(self, lengths, scale):
        g = fk.LinkageGeometry(v=lengths * 2, sigma=0.0, rho=0.0)
        gs = g.scaled(scale)
        c, cs = fk.loop_coefficients(g, 1), fk.loop_coefficients(gs, 1)
        assert cs.kappa1 == pytest.approx(c.kappa1, rel=1e-12)
        assert cs.kappa2 == pytest.approx(c.kappa2, rel=1e-12)
        assert cs.kappa3 == pytest.approx(c.kappa3, rel=1e-12)

    def test_exact_invariance_under_power_of_two_scaling(self):
        g = fk.LinkageGeometry(v=(25, 40, 45, 10, 30, 48, 54, 12),
                               sigma=0.1, rho=0.2)
        gs = g.scaled(4.0)
        assert fk.loop_coefficients(gs, 1) == fk.loop_coefficients(g, 1)
        assert fk.loop_coefficients(gs, 2) == fk.loop_coefficients(g, 2)


class TestQuadraticReduction:
    def test_linear_degenerate_coefficients(self):
        c = fk.LoopCoefficients(1.0, 1.0, 1.0)
        alpha, beta, gamma = _kernels.quadratic(
            c.kappa1, c.kappa2, c.kappa3, math.pi / 2.0, math.pi / 2.0)
        assert alpha == 0.0
        assert beta == 2.0
        assert gamma == pytest.approx(2.0, abs=1e-15)

    def test_matches_printed_form_at_vertical_fixed_angle(self, rng):
        # alpha = cos(t) - k1 sin(t) + k3, beta = 2 k1 cos(t) + 2 k2,
        # gamma = cos(t) + k1 sin(t) + k3
        for _ in range(200):
            k1, k2, k3 = rng.uniform(0.05, 3.0, 3)
            t = rng.uniform(-math.pi, math.pi)
            alpha, beta, gamma = _kernels.quadratic(k1, k2, k3, t, math.pi / 2.0)
            assert alpha == pytest.approx(
                math.cos(t) - k1 * math.sin(t) + k3, abs=1e-12)
            assert beta == pytest.approx(
                2 * k1 * math.cos(t) + 2 * k2, abs=1e-12)
            assert gamma == pytest.approx(
                math.cos(t) + k1 * math.sin(t) + k3, abs=1e-12)

    def test_roots_solve_residual(self, rng):
        for _ in range(300):
            k1, k2, k3 = rng.uniform(0.05, 2.0, 3)
            t = rng.uniform(-math.pi, math.pi)
            c = fk.LoopCoefficients(k1, k2, k3)
            try:
                out = fk.solve_loop(c, t)
            except fk.NoClosureError:
                continue
            assert abs(closure_residual(c, t, out)) <= 1e-10


class TestSolveLoop:
    def test_linear_fallback(self):
        c = fk.LoopCoefficients(1.0, 1.0, 1.0)
        out = fk.solve_loop(c, math.pi / 2.0)
        assert out == pytest.approx(-math.pi / 2.0, abs=1e-14)
        assert abs(closure_residual(c, math.pi / 2.0, out)) <= 1e-10

    def test_no_closure(self):
        c = fk.LoopCoefficients(0.0, 0.0, 2.0)
        with pytest.raises(fk.NoClosureError):
            fk.solve_loop(c, 0.0)

    def test_degenerate_unsatisfiable(self):
        # fixed angle 0, input 0: beta = 0 exactly, alpha = k3+1-k1-k2
        c = fk.LoopCoefficients(0.25, 0.25, -0.5)
        with pytest.raises(fk.DegenerateGeometryError):
            fk.solve_loop(c, 0.0, fixed_angle=0.0)

    def test_degenerate_identically_satisfied(self):
        c = fk.LoopCoefficients(0.0, 0.0, -1.0)
        with pytest.raises(fk.DegenerateGeometryError):
            fk.solve_loop(c, 0.0, fixed_angle=0.0)

    def test_positive_root_against_reference_bisection(self):
        # (25, 40, 45, 10) at a feasible input; 30 deg is outside that
        # loop's closure window, so use one inside it
        c = fk.LoopCoefficients(0.25, 0.4, 0.15)
        theta_in = math.radians(80.0)
        closed = fk.solve_loop(c, theta_in)
        roots = reference_bisect(c, theta_in)
        assert roots, "reference oracle found no roots"
        assert min(abs(closed - r) for r in roots) <= 1e-9

    def test_both_branches_are_the_two_residual_roots(self, rng):
        for _ in range(100):
            k1, k2, k3 = rng.uniform(0.1, 1.5, 3)
            t = rng.uniform(-math.pi, math.pi)
            c = fk.LoopCoefficients(k1, k2, k3)
            try:
                pos = fk.solve_loop(c, t, POSITIVE_ROOT)
                neg = fk.solve_loop(c, t, NEGATIVE_ROOT)
            except (fk.NoClosureError, fk.DegenerateGeometryError):
                continue
            roots = reference_bisect(c, t, n=4000)
            for solved in (pos, neg):
                assert min(abs(solved - r) for r in roots) <= 1e-8

    def test_continuity_needs_reference(self):
        # closing, linear-limit and non-closing inputs alike
        for c, t in ((fk.LoopCoefficients(0.25, 0.4, 0.15), math.radians(80.0)),
                     (fk.LoopCoefficients(1.0, 1.0, 1.0), math.pi / 2.0),
                     (fk.LoopCoefficients(0.0, 0.0, 2.0), 0.0)):
            with pytest.raises(ValueError):
                fk.solve_loop(c, t, CONTINUITY)

    def test_continuity_picks_nearest(self):
        c = fk.LoopCoefficients(0.25, 0.4, 0.15)
        t = math.radians(80.0)
        pos = fk.solve_loop(c, t)
        neg = fk.solve_loop(c, t, NEGATIVE_ROOT)
        near_pos = fk.solve_loop(c, t, CONTINUITY, reference=pos + 0.01)
        near_neg = fk.solve_loop(c, t, CONTINUITY, reference=neg - 0.01)
        assert near_pos == pos
        assert near_neg == neg

    def test_unknown_mode_rejected(self, geometry):
        c = fk.LoopCoefficients(0.25, 0.4, 0.15)
        with pytest.raises(ValueError):
            fk.solve_loop(c, math.radians(80.0), "sideways")
        with pytest.raises(ValueError):
            fk.solve_chain(geometry, geometry.theta1_range[0], "sideways")


class TestOracle:
    @staticmethod
    def oracle(coeffs, theta_in):
        theta = linkage._oracle(coeffs, np.array([theta_in]), math.pi / 2.0)
        ok = ~np.isnan(theta)
        return bool(ok[0]), float(theta[0])

    def test_oracle_matches_linear_degenerate(self):
        c = fk.LoopCoefficients(1.0, 1.0, 1.0)
        ok, theta = self.oracle(c, math.pi / 2.0)
        assert ok
        assert theta == pytest.approx(-math.pi / 2.0, abs=1e-9)

    def test_oracle_no_closure(self):
        c = fk.LoopCoefficients(0.0, 0.0, 2.0)
        ok, theta = self.oracle(c, 0.0)
        assert not ok and math.isnan(theta)

    def test_oracle_vs_reference_bisection(self, rng):
        for _ in range(50):
            k1, k2, k3 = rng.uniform(0.1, 1.5, 3)
            t = rng.uniform(-math.pi, math.pi)
            c = fk.LoopCoefficients(k1, k2, k3)
            ok, ours = self.oracle(c, t)
            if not ok:
                continue
            roots = reference_bisect(c, t, n=4000)
            assert min(abs(ours - r) for r in roots) <= 1e-9


class TestSolveChain:
    def test_identities_are_exact(self, geometry, rng):
        lo, hi = geometry.theta1_range
        for theta1 in rng.uniform(lo, hi, 50):
            s = fk.solve_chain(geometry, float(theta1))
            assert s.theta_mcp == s.theta6
            assert s.theta_pip == s.theta5 - geometry.sigma
            assert s.theta_dip == s.theta1 - geometry.rho

    def test_out_of_range(self, geometry):
        lo, hi = geometry.theta1_range
        with pytest.raises(fk.OutOfRangeError):
            fk.solve_chain(geometry, hi + 0.1)
        with pytest.raises(fk.OutOfRangeError):
            fk.solve_chain(geometry, lo - 0.1)

    def test_closed_vs_numeric_midrange(self, geometry):
        theta1 = 0.5 * sum(geometry.theta1_range)
        s = fk.solve_chain(geometry, theta1)
        n = numeric_chain(geometry, theta1)
        for name in ("theta2", "theta3", "theta5", "theta6", "theta7"):
            assert getattr(s, name) == pytest.approx(getattr(n, name), abs=1e-9)

    def test_residuals_after_solve(self, geometry, rng):
        c1 = fk.loop_coefficients(geometry, 1)
        c2 = fk.loop_coefficients(geometry, 2)
        lo, hi = geometry.theta1_range
        for theta1 in rng.uniform(lo, hi, 100):
            s = fk.solve_chain(geometry, float(theta1))
            r1 = closure_residual(c1, s.theta1, s.theta2, geometry.theta4_fixed)
            r2 = closure_residual(c2, s.theta5, s.theta6, geometry.theta8_fixed)
            assert abs(r1) <= 1e-10
            assert abs(r2) <= 1e-10

    def test_recovered_angles_close_vector_loops(self, geometry, rng):
        # theta3 / theta7 must make the raw vector polygons close: the
        # resultant's length equals the eliminated link's length
        lo, hi = geometry.theta1_range
        for theta1 in rng.uniform(lo, hi, 25):
            s = fk.solve_chain(geometry, float(theta1))
            for loop, t_in, t_out, t_rec, f in (
                (1, s.theta1, s.theta2, s.theta3, geometry.theta4_fixed),
                (2, s.theta5, s.theta6, s.theta7, geometry.theta8_fixed),
            ):
                a, b, c, d = geometry.loop_lengths(loop)
                x = (a * math.cos(t_in + t_out) + b * math.cos(t_out)
                     + d * math.cos(f))
                y = (a * math.sin(t_in + t_out) + b * math.sin(t_out)
                     + d * math.sin(f))
                assert math.hypot(x, y) == pytest.approx(c, rel=1e-9)
                assert math.atan2(y, x) == pytest.approx(t_rec, abs=1e-12)

    def test_chain_no_closure_identifies_loop(self):
        g = fk.LinkageGeometry(
            v=(25, 40, 45, 10, 25, 40, 45, 10),
            sigma=0.0, rho=0.0,
            theta1_range=(0.0, math.radians(75.0)),
        )
        with pytest.raises(fk.NoClosureError) as exc_info:
            fk.solve_chain(g, 0.0)
        assert exc_info.value.loop == 1
        with pytest.raises(fk.NoClosureError) as exc_info:
            numeric_chain(g, 0.0)
        assert exc_info.value.loop == 1

    def test_continuity_policy_uses_previous(self, geometry):
        lo, hi = geometry.theta1_range
        prev = fk.solve_chain(geometry, lo)
        nxt = fk.solve_chain(geometry, lo + 0.01, CONTINUITY, prev)
        assert abs(nxt.theta2 - prev.theta2) < math.radians(5.0)

    def test_continuity_policy_requires_previous(self, geometry):
        with pytest.raises(ValueError):
            fk.solve_chain(geometry, geometry.theta1_range[0], CONTINUITY)


class TestSweepChain:
    def test_matches_scalar_solves(self, geometry):
        lo, hi = geometry.theta1_range
        grid = np.linspace(lo, hi, 40)
        sweep = fk.sweep_chain(geometry, grid)
        for i in (0, 13, 39):
            s = fk.solve_chain(geometry, float(grid[i]))
            assert sweep.theta2[i] == pytest.approx(s.theta2, abs=1e-12)
            assert sweep.theta6[i] == pytest.approx(s.theta6, abs=1e-12)
            assert sweep.theta3[i] == pytest.approx(s.theta3, abs=1e-12)
            assert sweep.theta7[i] == pytest.approx(s.theta7, abs=1e-12)

    @pytest.mark.parametrize("samples", [100, 1000, 27000])
    def test_equals_solve_chain_bit_for_bit(self, geometry, samples):
        # one closed-form kernel and one atan behind both entry points
        lo, hi = geometry.theta1_range
        grid = np.linspace(lo, hi, samples)
        sweep = fk.sweep_chain(geometry, grid)
        chain = fk.solve_chain(geometry, grid)
        for name in fk.JointState._fields:
            np.testing.assert_array_equal(
                getattr(sweep, name), getattr(chain, name),
                err_msg=name, strict=True)

    def test_state_at_identities(self, geometry):
        lo, hi = geometry.theta1_range
        sweep = fk.sweep_chain(geometry, np.linspace(lo, hi, 5))
        s = sweep.state_at(2)
        assert s.theta_mcp == s.theta6
        assert s.theta_pip == s.theta5 - geometry.sigma

    def test_no_branch_jumps_at_half_degree_steps(self, geometry):
        lo, hi = geometry.theta1_range
        n = int(round(math.degrees(hi - lo) / 0.5)) + 1
        sweep = fk.sweep_chain(geometry, np.linspace(lo, hi, n))
        assert np.max(np.abs(np.diff(sweep.theta2))) < math.radians(10.0)
        assert np.max(np.abs(np.diff(sweep.theta6))) < math.radians(10.0)

    def test_rejects_short_or_nonmonotone(self, geometry):
        lo, hi = geometry.theta1_range
        with pytest.raises(ValueError):
            fk.sweep_chain(geometry, np.array([lo]))
        with pytest.raises(ValueError):
            fk.sweep_chain(geometry, np.array([lo, hi, lo + 0.1]))

    def test_rejects_out_of_range(self, geometry):
        lo, hi = geometry.theta1_range
        with pytest.raises(fk.OutOfRangeError, match="outside admissible range"):
            fk.sweep_chain(geometry, np.linspace(lo - 0.2, hi, 10))

    def test_descending_sweep_allowed(self, geometry):
        lo, hi = geometry.theta1_range
        up = fk.sweep_chain(geometry, np.linspace(lo, hi, 11))
        down = fk.sweep_chain(geometry, np.linspace(hi, lo, 11))
        assert up.theta2[0] == pytest.approx(down.theta2[-1], abs=1e-12)


class TestGeometryValidation:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            fk.LinkageGeometry(v=(0, 1, 1, 1, 1, 1, 1, 1), sigma=0, rho=0)

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            fk.LinkageGeometry(v=(1, 1, 1), sigma=0, rho=0)

    def test_rejects_empty_range(self):
        with pytest.raises(ValueError):
            fk.LinkageGeometry(
                v=(1,) * 8, sigma=0, rho=0, theta1_range=(1.0, 0.0))

    def test_scaled_rejects_nonpositive(self, geometry):
        with pytest.raises(ValueError):
            geometry.scaled(0.0)


class TestChainDerivatives:
    @pytest.mark.parametrize("loop, inputs, outputs", [
        (1, "theta1", "theta2"), (2, "theta5", "theta6")])
    def test_singular_jacobian_raises(self, geometry, loop, inputs, outputs):
        # d residual / d theta_out is zero where the input angle is zero and
        # the output angle points along the loop's fixed vector
        fixed = (geometry.theta4_fixed, geometry.theta8_fixed)[loop - 1]
        state = fk.solve_chain(geometry, 1.0)._replace(
            **{inputs: 0.0, outputs: fixed})
        with pytest.raises(fk.DegenerateGeometryError,
                           match=f"loop {loop} residual Jacobian is singular"):
            fk.chain_derivatives(geometry, state)


class TestScalingInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        scale=st.sampled_from([0.1, 3.0, 10.0]),
    )
    def test_solved_angles_scale_free(self, geometry, seed, scale):
        local = np.random.default_rng(seed)
        lo, hi = geometry.theta1_range
        theta1 = float(local.uniform(lo, hi))
        base = fk.solve_chain(geometry, theta1)
        scaled = fk.solve_chain(geometry.scaled(scale), theta1)
        for name in ("theta2", "theta3", "theta5", "theta6", "theta7"):
            assert abs(getattr(base, name) - getattr(scaled, name)) <= 1e-12


class TestWrap:
    @given(st.floats(-50.0, 50.0))
    def test_wrap_range(self, angle):
        w = float(_kernels.wrap(angle))
        assert -math.pi < w <= math.pi
        # same point on the circle
        assert math.cos(w) == pytest.approx(math.cos(angle), abs=1e-9)
        assert math.sin(w) == pytest.approx(math.sin(angle), abs=1e-9)


class TestClosureVectorAngle:
    def test_straight_chain(self):
        # all vectors along +x: resultant along +x
        angle = linkage._vector_closure_angles(
            (1.0, 1.0, 3.0, 1.0), np.array([0.0]), np.array([0.0]), 0.0)[0]
        assert angle == pytest.approx(0.0, abs=1e-15)


def _error_key(exc):
    return type(exc), exc.loop, exc.theta_in, str(exc)


class TestBatchIsMappedScalar:
    """solve_chain over an array, and sweep_chain, behave as solve_chain
    mapped over their inputs: the same floats, or the first failing
    sample's error."""

    FIELDS = ("theta1", "theta2", "theta3", "theta5", "theta6", "theta7",
              "theta_mcp", "theta_pip", "theta_dip")

    @pytest.mark.parametrize("branch", [NEGATIVE_ROOT, CONTINUITY])
    def test_branches_over_an_array(self, geometry, branch):
        # the continuity reference of one solved state broadcasts
        lo, hi = geometry.theta1_range
        previous = fk.solve_chain(geometry, lo)
        grid = np.linspace(lo, hi, 17)
        chain = fk.solve_chain(geometry, grid, branch, previous)
        for i, theta1 in enumerate(grid.tolist()):
            state = fk.solve_chain(geometry, theta1, branch, previous)
            for name in self.FIELDS:
                assert getattr(chain, name)[i] == getattr(state, name)

    def test_random_geometries(self, geometry):
        rng = np.random.default_rng(31415)
        outcomes = {"closed": 0, 1: 0, 2: 0}
        for _ in range(120):
            v = np.array(geometry.v) * rng.uniform(0.85, 1.15, 8)
            # a widened input range reaches where the loops cannot close
            widen = float(rng.uniform(0.0, 0.6)) * (rng.random() < 0.6)
            lo, hi = geometry.theta1_range
            g = fk.LinkageGeometry(
                v=tuple(v.tolist()),
                sigma=geometry.sigma + float(rng.uniform(-0.5, 0.5)),
                rho=geometry.rho,
                theta1_range=(lo - widen, hi + widen),
            )
            grid = np.linspace(*g.theta1_range, int(rng.integers(2, 60)))
            first_error, states = None, []
            for t in grid.tolist():
                try:
                    states.append(fk.solve_chain(g, t))
                except fk.NoClosureError as exc:
                    first_error = exc
                    break
            if first_error is None:
                outcomes["closed"] += 1
                chain = fk.solve_chain(g, grid)
                for i, state in enumerate(states):
                    for name in self.FIELDS:
                        assert getattr(chain, name)[i] == getattr(state, name)
                continue
            outcomes[first_error.loop] += 1
            expected = _error_key(first_error)
            with pytest.raises(fk.NoClosureError) as batch_error:
                fk.solve_chain(g, grid)
            assert _error_key(batch_error.value) == expected
            with pytest.raises(fk.NoClosureError) as sweep_error:
                fk.sweep_chain(g, grid)
            assert _error_key(sweep_error.value) == expected
        assert min(outcomes.values()) >= 10, outcomes

"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured figure.  Run with `pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np

import fingerkit as fk
from fingerkit import _kernels
from fingerkit.cli import main
from fingerkit.registry import registry_verify
from test_finger import excursion_at, velocity_at

F_VERT = math.pi / 2.0


def note(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {message}")


def _loop_kappas(lengths):
    a, b, c, d = lengths
    return d / b, d / a, (a * a + b * b - c * c + d * d) / (2.0 * a * b)


def _feasible_input(k1, k2, k3, rng, margin=0.1):
    """A random input angle at which this loop closes with margin, or None."""
    for candidate in rng.uniform(-math.pi, math.pi, 128):
        alpha = math.cos(candidate) - k1 * math.sin(candidate) + k3
        beta = 2.0 * k1 * math.cos(candidate) + 2.0 * k2
        gamma = math.cos(candidate) + k1 * math.sin(candidate) + k3
        disc = beta * beta - 4.0 * alpha * gamma
        if disc >= margin and abs(alpha) >= 0.02:
            return float(candidate)
    return None


def _random_chain_config(rng, jac_min=0.1, max_transmission=None):
    """Random geometry plus an input angle where the whole chain solves
    away from branch boundaries and Jacobian singularities.

    ``max_transmission`` additionally bounds |d theta_out / d theta_in| of
    each loop, which keeps finite-difference probes well conditioned.
    """
    while True:
        lengths = rng.uniform(5.0, 100.0, 8)
        k1, k2, k3 = _loop_kappas(lengths[:4])
        theta1 = _feasible_input(k1, k2, k3, rng)
        if theta1 is None:
            continue
        theta2 = float(_kernels.loop_solve_batch(k1, k2, k3, theta1, F_VERT))
        shared1 = -k1 * math.sin(theta1 + theta2 - F_VERT)
        jac1 = shared1 - k2 * math.sin(theta2 - F_VERT)
        if abs(jac1) < jac_min:
            continue
        if max_transmission is not None:
            d21 = -(shared1 - math.sin(theta1)) / jac1
            if abs(d21) > max_transmission:
                continue
        k4, k5, k6 = _loop_kappas(lengths[4:])
        theta5 = _feasible_input(k4, k5, k6, rng)
        if theta5 is None:
            continue
        theta6 = float(_kernels.loop_solve_batch(k4, k5, k6, theta5, F_VERT))
        shared2 = -k4 * math.sin(theta5 + theta6 - F_VERT)
        jac2 = shared2 - k5 * math.sin(theta6 - F_VERT)
        if abs(jac2) < jac_min:
            continue
        if max_transmission is not None:
            d65 = -(shared2 - math.sin(theta5)) / jac2
            if abs(d65) > max_transmission:
                continue
        sigma = theta5 - theta2
        half_width = 0.004
        geometry = fk.LinkageGeometry(
            v=tuple(lengths),
            sigma=sigma,
            rho=float(rng.uniform(-math.pi, math.pi)),
            theta1_range=(theta1 - half_width, theta1 + half_width),
        )
        return geometry, theta1


def test_criterion_1_mobility_and_loops():
    assert fk.compute_mobility(6, 7) == 1
    assert fk.count_loops(7, 6) == 2
    note(1, "mobility(6,7)=1 and loops(7,6)=2, exact")


def test_criterion_2_oracle_equivalence_and_speed(geometry):
    grid = np.linspace(*geometry.theta1_range, 1000)
    c1 = fk.loop_coefficients(geometry, 1)
    c2 = fk.loop_coefficients(geometry, 2)

    t2_c = _kernels.loop_solve_batch(
        c1.kappa1, c1.kappa2, c1.kappa3, grid, geometry.theta4_fixed)
    t2_n = _kernels.loop_bisect_batch(
        c1.kappa1, c1.kappa2, c1.kappa3, grid, geometry.theta4_fixed,
        1, 0.0, 4096)
    ok_c, ok_n = ~np.isnan(t2_c), ~np.isnan(t2_n)
    assert ok_c.all() and ok_n.all()
    t6_c = _kernels.loop_solve_batch(
        c2.kappa1, c2.kappa2, c2.kappa3, t2_c + geometry.sigma,
        geometry.theta8_fixed)
    t6_n = _kernels.loop_bisect_batch(
        c2.kappa1, c2.kappa2, c2.kappa3, t2_n + geometry.sigma,
        geometry.theta8_fixed, 1, 0.0, 4096)
    ok_c2, ok_n2 = ~np.isnan(t6_c), ~np.isnan(t6_n)
    assert ok_c2.all() and ok_n2.all()
    dev2 = float(np.max(np.abs(t2_c - t2_n)))
    dev6 = float(np.max(np.abs(t6_c - t6_n)))
    assert dev2 <= 1e-9
    assert dev6 <= 1e-9

    main(["validate", "--samples", "16"])  # warm the kernels
    start = time.perf_counter()
    assert main(["validate", "--samples", "1000"]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    note(2, f"1000-sample oracle deviation theta2={dev2:.2e}, "
            f"theta6={dev6:.2e} rad (<=1e-9); validate ran in {elapsed:.2f} s")


def test_criterion_3_residual_property_suite():
    rng = np.random.default_rng(20240711)
    n_geometries = 10_000
    inputs_per_loop = 6
    lengths = rng.uniform(5.0, 100.0, (n_geometries, 8))
    solves = 0
    worst = 0.0
    for i in range(n_geometries):
        for quad in (lengths[i, :4], lengths[i, 4:]):
            k1, k2, k3 = _loop_kappas(quad)
            phi = rng.uniform(-math.pi, math.pi, inputs_per_loop)
            theta = _kernels.loop_solve_batch(k1, k2, k3, phi, F_VERT)
            ok = ~np.isnan(theta)
            if not ok.any():
                continue
            phi_ok, theta_ok = phi[ok], theta[ok]
            # residual recomputed inline, independent of the library helper
            residual = (
                k3 + np.cos(phi_ok)
                + k1 * np.sin(phi_ok + theta_ok)
                + k2 * np.sin(theta_ok)
            )
            solves += int(ok.sum())
            worst = max(worst, float(np.max(np.abs(residual))))
    assert solves > 50_000
    assert worst <= 1e-10
    note(3, f"{n_geometries} random geometries, {solves} closure-feasible "
            f"solves, max |residual| = {worst:.2e} (<=1e-10), zero failures")


def test_criterion_4_scaling_invariance():
    rng = np.random.default_rng(424242)
    worst_angle = 0.0
    worst_point = 0.0
    for _ in range(100):
        geometry, theta1 = _random_chain_config(rng)
        finger = fk.FingerGeometry(
            phalanx_lengths=tuple(rng.uniform(10.0, 60.0, 3)),
            base_offset=(float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5))),
            orientation_range=(-0.5, 0.5),
        )
        thumb = ((float(rng.uniform(-80, 0)), float(rng.uniform(-80, 0))),
                 (float(rng.uniform(1, 80)), float(rng.uniform(-80, 0))))
        base_state = fk.solve_chain(geometry, theta1)
        base_ws = fk.workspace(geometry, finger, 3, 3, thumb)
        for s in (0.1, 3.0, 10.0):
            geometry_s = geometry._replace(v=tuple(s * x for x in geometry.v))
            finger_s = finger._replace(
                phalanx_lengths=tuple(s * x for x in finger.phalanx_lengths),
                base_offset=tuple(s * x for x in finger.base_offset))
            scaled_state = fk.solve_chain(geometry_s, theta1)
            for name in ("theta2", "theta3", "theta5", "theta6", "theta7"):
                worst_angle = max(worst_angle, abs(
                    getattr(base_state, name) - getattr(scaled_state, name)))
            thumb_s = tuple((s * x, s * y) for x, y in thumb)
            ws = fk.workspace(geometry_s, finger_s, 3, 3, thumb_s)
            for p_base, p_scaled in zip(base_ws.points, ws.points):
                for a, b in ((p_base["grip_x"], p_scaled["grip_x"]),
                             (p_base["grip_y"], p_scaled["grip_y"])):
                    scale_err = abs(b - s * a) / max(abs(s * a), 1e-9)
                    worst_point = max(worst_point, scale_err)
    assert worst_angle <= 1e-12
    assert worst_point <= 1e-9
    note(4, f"100 geometries x scales (0.1, 3, 10): max angle shift "
            f"{worst_angle:.2e} rad (<=1e-12), max point scale error "
            f"{worst_point:.2e} rel (<=1e-9)")


def test_criterion_5_derivative_checks():
    rng = np.random.default_rng(5150)
    h = 1e-5
    worst_exc = 0.0
    worst_tip = 0.0
    for _ in range(500):
        # well-conditioned configurations so the finite-difference probe
        # itself is trustworthy at the 1e-6 tolerance
        geometry, theta1 = _random_chain_config(
            rng, jac_min=0.3, max_transmission=6.0)
        tendon = fk.TendonModel(
            kind="double",
            moment_arms=tuple(rng.uniform(2.0, 15.0, 3)),
            max_tension=50.0,
        )
        finger = fk.FingerGeometry(
            phalanx_lengths=tuple(rng.uniform(10.0, 60.0, 3)))

        state = fk.solve_chain(geometry, theta1)
        _, d_exc = excursion_at(tendon, geometry, state)
        e_plus, _ = excursion_at(
            tendon, geometry, fk.solve_chain(geometry, theta1 + h))
        e_minus, _ = excursion_at(
            tendon, geometry, fk.solve_chain(geometry, theta1 - h))
        fd_exc = (e_plus - e_minus) / (2.0 * h)
        worst_exc = max(worst_exc, abs(d_exc - fd_exc) / max(abs(fd_exc), 1e-6))

        vx, vy = velocity_at(geometry, finger, state)
        tp = fk.tip_trace(finger, fk.solve_chain(geometry, theta1 + h), 0.0)[0]
        tm = fk.tip_trace(finger, fk.solve_chain(geometry, theta1 - h), 0.0)[0]
        fd_vx = (tp["tip_x"] - tm["tip_x"]) / (2.0 * h)
        fd_vy = (tp["tip_y"] - tm["tip_y"]) / (2.0 * h)
        speed = math.hypot(vx, vy)
        fd_speed = math.hypot(fd_vx, fd_vy)
        worst_tip = max(worst_tip, abs(speed - fd_speed) / max(fd_speed, 1e-6))
    assert worst_exc <= 1e-6
    assert worst_tip <= 1e-6
    note(5, f"500 random configurations: excursion-derivative max rel err "
            f"{worst_exc:.2e}, tip-speed max rel err {worst_tip:.2e} (<=1e-6)")


def test_criterion_6_definitional_identities(geometry):
    rng = np.random.default_rng(6)
    checked = 0
    lo, hi = geometry.theta1_range
    for theta1 in rng.uniform(lo, hi, 200):
        s = fk.solve_chain(geometry, float(theta1))
        assert s.theta_mcp == s.theta6
        assert s.theta_pip == s.theta5 - geometry.sigma
        assert s.theta_dip == s.theta1 - geometry.rho
        checked += 1
    for _ in range(100):
        g, theta1 = _random_chain_config(rng)
        s = fk.solve_chain(g, theta1)
        assert s.theta_mcp == s.theta6
        assert s.theta_pip == s.theta5 - g.sigma
        assert s.theta_dip == s.theta1 - g.rho
        checked += 1
    note(6, f"MCP/PIP/DIP identities bit-exact on {checked} solves")


def test_criterion_7_grasp_envelope(cfg, registry):
    force = fk.static_tip_force(
        cfg.require_tendon(),
        cfg.geometry,
        cfg.require_finger(),
        cfg.geometry.theta1_range[0],
        cfg.require_tendon().max_tension,
    )
    mismatches = 0
    count = 0
    for tenth_mm in range(200, 1601):
        diameter = tenth_mm / 10.0
        report = fk.grasp_assess(fk.CylinderObject(diameter), registry, force)
        expected = 30.0 <= diameter <= 145.0
        if report.feasible != expected:
            mismatches += 1
        count += 1
    assert mismatches == 0
    note(7, f"cylinder verdicts match closed-interval [30, 145] mm membership "
            f"at all {count} scan points (0.1 mm steps over [20, 160])")


def test_criterion_8_force_model_ordering(cfg):
    geometry = cfg.geometry
    finger = cfg.require_finger()
    single = cfg.require_tendon()
    double = single.as_double()
    tension = single.max_tension
    grid = np.linspace(*geometry.theta1_range, 301)
    min_gap = math.inf
    for theta1 in grid:
        f_single = fk.static_tip_force(single, geometry, finger,
                                       float(theta1), tension)
        f_double = fk.static_tip_force(double, geometry, finger,
                                       float(theta1), tension)
        assert f_single < f_double, f"ordering violated at theta1={theta1}"
        min_gap = min(min_gap, f_double - f_single)
    note(8, f"single < double tip force at all 301 inputs "
            f"(min gap {min_gap:.3f} N), matching the 7.8 N < 11.8 N ordering")


def test_criterion_9_safety_constants(cfg, registry):
    geometry = cfg.geometry
    finger = cfg.require_finger()
    single = cfg.require_tendon()
    double = single.as_double()
    grid = np.linspace(*geometry.theta1_range, 301)
    max_force = max(
        fk.static_tip_force(t, geometry, finger, float(theta1), t.max_tension)
        for theta1 in grid
        for t in (single, double)
    )
    verdict = fk.iso_contact_check(
        max_force, registry.value("iso_contact_force_limit_thigh_knee_n"))
    assert verdict.passed
    assert verdict.margin_ratio >= 18.0

    clearance = fk.clearance_check(800.0, 460.0, 75.0)
    assert clearance.per_side_clearance_mm == 170.0
    assert clearance.fits

    stroke = fk.stroke_check(170.0, 180.0)
    assert stroke.passed

    note(9, f"max model force {max_force:.2f} N passes the 220 N check with "
            f"margin {verdict.margin_ratio:.1f} (>=18); clearance 170 mm fits; "
            f"stroke 170/180 mm passes")


def test_criterion_10_registry_verification(registry):
    report = registry_verify(registry)
    assert all(r.passed for r in report)
    assert registry.value("dressing_prior_successes_count") == 9
    assert registry.value("dressing_prior_trials_count") == 10
    assert registry.value("dressing_prior_success_rate_pct") == 90
    assert registry.value("dressing_system_success_rate_pct") == 100
    assert registry.value("undressing_prior_successes_count") == 0
    assert registry.value("undressing_prior_trials_count") == 7
    assert registry.value("undressing_prior_success_rate_pct") == 0
    assert registry.value("undressing_system_success_rate_pct") == 100
    note(10, f"all {len(report)} registry rules pass; trial-outcome readback "
             f"(9/10=90%, 4/4=100%, 0/7=0%) consistent")


def test_criterion_11_sweep_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["sweep", "--out", str(out), "--samples", "120",
                     "--format", "svg"]) == 0
    files = ["joint_angles.csv", "tip_trace.csv",
             "joint_angles.svg", "tip_trace.svg"]
    for name in files:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    note(11, f"two identical sweep runs produced byte-identical outputs "
             f"({', '.join(files)})")

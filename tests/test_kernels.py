"""The closed-form kernel against an independent bisection, the NaN contract
of every loop kernel, and the bisection oracle's multi-level scan and bracket
prune against a dense scan of every grid point."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fingerkit as fk
from fingerkit import _kernels, linkage
from fingerkit._kernels import _PI_ROOT_TOL, _ROOT_MERGE_TOL, _TWO_PI, wrap
from test_linkage import closure_residual, negative_root, reference_bisect


def _kappa_cases(rng, n):
    return [tuple(rng.uniform(0.05, 2.0, 3)) for _ in range(n)]


def test_batch_solve_matches_scalar(rng):
    # both branches against the scalar reference, a plain scan-and-bisect of
    # the closure residual: a closing input gives one of its roots, a
    # non-closing one has none
    phi = rng.uniform(-math.pi, math.pi, 16)
    solved = 0
    for k1, k2, k3 in _kappa_cases(rng, 10):
        c = fk.LoopCoefficients(k1, k2, k3)
        pos = _kernels.loop_solve_batch(k1, k2, k3, phi, math.pi / 2)
        neg = negative_root(k1, k2, k3, phi, math.pi / 2)
        for t, thetas in zip(phi.tolist(), zip(pos.tolist(), neg.tolist())):
            roots = reference_bisect(c, t, n=4000)
            for theta in thetas:
                if math.isnan(theta):
                    assert not roots
                    continue
                solved += 1
                assert abs(closure_residual(c, t, theta)) <= 1e-10
                assert min(abs(theta - r) for r in roots) <= 1e-9
    assert solved >= 100


def test_batch_bisect_matches_closed_form(geometry):
    for loop, f in ((1, geometry.theta4_fixed), (2, geometry.theta8_fixed)):
        c = fk.loop_coefficients(geometry, loop)
        lo, hi = geometry.theta1_range
        if loop == 2:
            lo, hi = lo - 2.2, hi - 2.2  # loop-2 operating window
        grid = np.linspace(lo, hi, 200)
        t_c = _kernels.loop_solve_batch(c.kappa1, c.kappa2, c.kappa3, grid, f)
        t_b = _kernels.loop_bisect_batch(
            c.kappa1, c.kappa2, c.kappa3, grid, f, 1, 0.0, 4096)
        both = ~np.isnan(t_c) & ~np.isnan(t_b)
        assert both.any()
        assert np.max(np.abs(t_c[both] - t_b[both])) <= 1e-9


def test_continuity_seed_selects_branch():
    # this loop closes on [-2.094, -1.159] and [1.159, 2.094] rad; a first
    # sample at -2 rad has its positive root (about 2 rad) nearer the
    # negative branch of the second window, so the sweep goes on along it
    c = fk.LoopCoefficients(0.25, 0.4, 0.15)
    grid = np.linspace(1.2, 2.0, 50)
    from_pos = _kernels.loop_sweep_continuity(*c, grid, math.pi / 2)
    from_neg = _kernels.loop_sweep_continuity(
        *c, np.concatenate(([-2.0], grid)), math.pi / 2)
    assert np.array_equal(from_pos, _kernels.loop_solve_batch(*c, grid, math.pi / 2))
    assert from_neg[0] == _kernels.loop_solve_batch(*c, -2.0, math.pi / 2)
    assert np.array_equal(from_neg[1:], negative_root(*c, grid, math.pi / 2))
    assert not np.allclose(from_pos, from_neg[1:])


# (k1, k2, k3, fixed_angle, phi) of one loop, and whether it closes there
CONTRACT_CASES = {
    # alpha == 0, beta == 2: the linear limit, theta = -pi/2
    "linear": ((1.0, 1.0, 1.0, math.pi / 2), math.pi / 2, True),
    # alpha == beta == 0, gamma == 2: an unsatisfiable constant
    "alpha-beta-zero": ((0.0, 1.0, 0.0, 0.0), 0.0, False),
    # alpha == -1, beta == gamma == 0: disc == 0 and the double root t = 0
    "double-root-at-zero": ((0.0, 0.5, -1.5, 0.0), 0.0, True),
    # alpha == gamma == 3, beta == 0: disc == -36
    "negative-discriminant": ((0.0, 0.0, 2.0, math.pi / 2), 0.0, False),
    "nan-input": ((0.9, 0.7, 1.3, 0.4), math.nan, False),
}


CONTRACT_KERNELS = {
    "solve-positive": _kernels.loop_solve_batch,
    "solve-negative": negative_root,
    "continuity": _kernels.loop_sweep_continuity,
    "oracle-positive": lambda *a: _kernels.loop_bisect_batch(*a, 1, 0.0, 4096),
    "oracle-negative": lambda *a: _kernels.loop_bisect_batch(*a, -1, 0.0, 4096),
}


@pytest.mark.parametrize("kernel", CONTRACT_KERNELS)
@pytest.mark.parametrize("case", CONTRACT_CASES)
def test_nan_exactly_where_the_loop_cannot_close(case, kernel):
    (k1, k2, k3, fixed), phi, closes = CONTRACT_CASES[case]
    theta = CONTRACT_KERNELS[kernel](k1, k2, k3, np.array([phi]), fixed)
    assert theta.shape == (1,)
    assert math.isnan(theta[0]) != closes


def _half_angle_roots_py(alpha, beta, gamma):
    """``half_angle_roots`` of one sample in Python floats, the same
    operations in the same order."""
    if alpha == 0.0:
        t = -gamma / beta if beta != 0.0 else math.nan
        return t, t
    disc = beta * beta - 4.0 * alpha * gamma
    if not disc >= 0.0:
        return math.nan, math.nan
    sq = math.sqrt(disc)
    q = -0.5 * (beta + sq) if beta >= 0.0 else -0.5 * (beta - sq)
    if q == 0.0:
        return 0.0, 0.0
    return (gamma / q, q / alpha) if beta >= 0.0 else (q / alpha, gamma / q)


def _bits(x: float):
    """Equal for equal floats, signed zeros apart; every NaN alike."""
    return "nan" if math.isnan(x) else x.hex()


# small exact values, so that alpha, beta or the discriminant is often
# exactly zero, among ordinary ones
EXACT = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, -1.5, 2.0])
ANGLES = st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi, math.nan])


@settings(max_examples=300, deadline=None)
@given(coeffs=st.tuples(*[EXACT | st.floats(-1e3, 1e3)] * 3),
       fixed=ANGLES | st.floats(-4.0, 4.0),
       phi=st.lists(ANGLES | st.floats(-4.0, 4.0), min_size=1, max_size=8))
def test_half_angle_roots_match_per_element_python(coeffs, fixed, phi):
    phi = np.array(phi)
    t_pos, t_neg = _kernels.half_angle_roots(*coeffs, phi, fixed)
    alpha, beta, gamma = _kernels.quadratic(*coeffs, phi, fixed)
    expected = [_half_angle_roots_py(a, b, g) for a, b, g
                in zip(alpha.tolist(), beta.tolist(), gamma.tolist())]
    assert [_bits(t) for t in t_pos.tolist()] == [_bits(p) for p, _ in expected]
    assert [_bits(t) for t in t_neg.tolist()] == [_bits(n) for _, n in expected]


def test_active_backend_reported():
    assert _kernels.ACTIVE_BACKEND == "numpy"


# ---------------------------------------------------------------------------
# The dense oracle as it was before row blocks and the coarse scan: the whole
# (n x (n_scan + 1)) residual grid at once, then one bisection over every
# bracket, then a per-row Python root merge and branch rule.  The kernel
# must give its floats bit for bit.
# ---------------------------------------------------------------------------

def _select_root_py(roots, alpha_probe, alpha_tol, branch, ref):
    """Pick one residual root per the branch rule; returns NaN when none fit.

    The residual evaluated at pi equals the leading quadratic coefficient,
    so its sign decides whether the positive branch is the larger or the
    smaller root without ever forming the closed-form roots.
    """
    if not roots:
        return math.nan
    if branch == 0:
        # argmin keeps the first of equally near roots
        return roots[int(np.argmin(np.abs(wrap(np.array(roots) - ref))))]
    if abs(alpha_probe) <= alpha_tol:
        finite = [r for r in roots if math.pi - abs(r) > _PI_ROOT_TOL]
        if not finite:
            return math.nan
        return max(finite) if branch > 0 else min(finite)
    take_max = (alpha_probe > 0.0) == (branch > 0)
    return max(roots) if take_max else min(roots)


def _merge_roots_py(roots):
    if len(roots) < 2:
        return roots
    roots = sorted(roots)
    merged = [roots[0]]
    for r in roots[1:]:
        if r - merged[-1] > _ROOT_MERGE_TOL:
            merged.append(r)
    # -pi and pi are the same point on the circle
    if len(merged) > 1 and _TWO_PI - (merged[-1] - merged[0]) < _ROOT_MERGE_TOL:
        merged.pop()
    return merged


def _residual_numpy(k1, k2, k3, phi, x, fixed_angle):
    return (
        k3
        + np.cos(phi)
        + k1 * np.cos(phi + x - fixed_angle)
        + k2 * np.cos(x - fixed_angle)
    )


def dense_bisect_reference(k1, k2, k3, phi, fixed_angle, branch, ref, n_scan):
    phi = np.asarray(phi, dtype=np.float64)
    n = phi.shape[0]
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)
    grid = _residual_numpy(k1, k2, k3, phi[:, None], xs[None, :], fixed_angle)

    f_lo = grid[:, :-1]
    f_hi = grid[:, 1:]
    change = ((f_lo < 0.0) != (f_hi < 0.0)) & (f_lo != 0.0) & (f_hi != 0.0)
    rows, cols = np.nonzero(change)

    lo = xs[cols].copy()
    hi = xs[cols + 1].copy()
    flo = f_lo[rows, cols].copy()
    phi_b = phi[rows]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = _residual_numpy(k1, k2, k3, phi_b, mid, fixed_angle)
        go_hi = (flo < 0.0) != (fm < 0.0)
        hi[go_hi] = mid[go_hi]
        lo[~go_hi] = mid[~go_hi]
        flo[~go_hi] = fm[~go_hi]
    bracket_roots = 0.5 * (lo + hi)

    zero_rows, zero_cols = np.nonzero(grid == 0.0)

    per_row: list[list[float]] = [[] for _ in range(n)]
    for r, root in zip(rows, bracket_roots):
        per_row[r].append(float(root))
    for r, c in zip(zero_rows, zero_cols):
        per_row[r].append(float(xs[c]))

    alpha_tol = 1e-12 * (1.0 + abs(k1) + abs(k2) + abs(k3))
    theta = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    for i in range(n):
        roots = _merge_roots_py(per_row[i])
        chosen = _select_root_py(roots, grid[i, -1], alpha_tol, branch, ref)
        if not math.isnan(chosen):
            theta[i] = chosen
            ok[i] = True
    return ok, theta


BLOCK = _kernels.BISECT_BLOCK_ROWS
STRIDES = _kernels.SCAN_STRIDES
SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]
# closes for part of the circle only, so every size has non-closing rows
PARTIAL = (0.9, 0.7, 1.3, 0.4)
# at phi = 0: (-1.5 + cos 0) + 0 * cos(x) + 0.5 * cos(x) is exactly 0.0 at the
# grid point x = 0 and negative everywhere else, a root only the zero path sees
TANGENT = (0.0, 0.5, -1.5, 0.0)
# every row's residual at pi is (0.5 + cos phi) + cos(phi + pi) - 0.5, zero
# but for rounding, so the branch rule may drop a root near +/-pi and every
# bracket is bisected
ZERO_PROBE = (1.0, 0.5, 0.5, 0.0)


def _dense(k1, k2, k3, phi, *rest, rows=256):
    """``dense_bisect_reference`` in slices of ``rows`` inputs, whose results
    do not depend on one another, so that its grid stays small."""
    parts = [dense_bisect_reference(k1, k2, k3, phi[s:s + rows], *rest)
             for s in range(0, phi.size, rows)]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _assert_same(args):
    theta = _kernels.loop_bisect_batch(*args)
    ok = ~np.isnan(theta)
    ok_ref, theta_ref = _dense(*args)
    assert np.array_equal(ok, ok_ref)
    assert np.array_equal(theta, theta_ref, equal_nan=True)
    return ok


def _spy_bisect(monkeypatch):
    """The inputs of each ``_bisect`` call, in order, as ``_bisect`` runs."""
    bisected = []
    bisect = _kernels._bisect

    def spy_bisect(*args):
        bisected.append(args[3])
        return bisect(*args)

    monkeypatch.setattr(_kernels, "_bisect", spy_bisect)
    return bisected


def _assert_bisected_per_block(bisected, phi):
    blocks = [phi[s:s + BLOCK] for s in range(0, phi.size, BLOCK)]
    assert len(bisected) == len(blocks)
    assert all(np.isin(rows, block).all()
               for rows, block in zip(bisected, blocks))


@pytest.mark.parametrize("n_scan", [256, 512, 4096])
@pytest.mark.parametrize("branch", [1, -1, 0])
def test_blocked_oracle_is_bit_equal_to_dense(branch, n_scan, monkeypatch):
    """Rows that close and rows that cannot, around block edges; each
    block's rows are bisected alone."""
    bisected = _spy_bisect(monkeypatch)
    rng = np.random.default_rng(1000 * n_scan + branch)
    k1, k2, k3, fixed = PARTIAL
    for n in SIZES:
        phi = rng.uniform(-math.pi, math.pi, n)
        bisected.clear()
        ok = _assert_same((k1, k2, k3, phi, fixed, branch, 0.3, n_scan))
        if n > 8:
            assert ok.any() and not ok.all()
        _assert_bisected_per_block(bisected, phi)


@pytest.mark.parametrize("branch", [1, -1, 0])
def test_pooled_bisection_matches_dense(branch, monkeypatch):
    """At n_scan = 256, several blocks of ZERO_PROBE rows, the last one
    partial, with NaN rows and rows that cannot close among them: all the
    brackets of one block are bisected in one pooled call, and no call
    spans two blocks."""
    bisected = _spy_bisect(monkeypatch)
    rng = np.random.default_rng(21 + branch)
    phi = rng.uniform(-math.pi, math.pi, 3 * BLOCK + 7)
    phi[rng.random(phi.size) < 0.1] = np.nan
    k1, k2, k3, fixed = ZERO_PROBE
    ok = _assert_same((k1, k2, k3, phi, fixed, branch, 0.3, 256))
    assert ok.any() and not ok[~np.isnan(phi)].all()
    _assert_bisected_per_block(bisected, phi)


@pytest.mark.parametrize("n_scan", [256, 512, 4096])
@pytest.mark.parametrize("branch", [1, -1, 0])
def test_exact_zero_grid_point_is_a_root(branch, n_scan):
    k1, k2, k3, fixed = TANGENT
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)
    phi = np.linspace(-3.0, 3.0, 3 * BLOCK + 7)
    phi[BLOCK + 5] = 0.0
    grid_row = _residual_numpy(k1, k2, k3, 0.0, xs, fixed)
    assert np.count_nonzero(grid_row == 0.0) == 1
    ok = _assert_same((k1, k2, k3, phi, fixed, branch, 0.3, n_scan))
    assert ok[BLOCK + 5]


def test_random_coefficients_match_dense(rng):
    for _ in range(12):
        k1, k2, k3 = rng.uniform(0.05, 2.0, 3)
        fixed = rng.uniform(-math.pi, math.pi)
        phi = rng.uniform(-math.pi, math.pi, int(rng.integers(2, 2 * BLOCK)))
        for branch in (1, -1, 0):
            _assert_same((k1, k2, k3, phi, fixed, branch, -1.1, 256))


def test_many_blocks_match_dense():
    phi = np.linspace(-math.pi, math.pi, 2 * BLOCK + 3)
    _assert_same((*PARTIAL[:3], phi, PARTIAL[3], 1, 0.0, 512))


def test_two_roots_in_one_coarse_cell():
    """Both roots lie inside one cell whose ends are negative, of the top
    stride and then of the middle one: the residual is positive only within
    0.02 rad of ``fixed``, mid-cell."""
    n_scan = 4096
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)
    k1, k2, k3 = 0.0, 0.5, -0.5 * math.cos(0.02) - 1.0
    phi = np.array([0.0, 0.1, -0.1])
    for stride in STRIDES[:2]:
        cell = n_scan // stride * 5 // 8
        a, b = xs[cell * stride], xs[(cell + 1) * stride]
        fixed = 0.5 * (a + b)
        ends = _residual_numpy(k1, k2, k3, 0.0, np.array([a, b]), fixed)
        assert (ends < 0.0).all()
        roots = []
        for branch in (1, -1, 0):
            args = (k1, k2, k3, phi, fixed, branch, fixed + 0.01, n_scan)
            assert _assert_same(args)[0]
            roots.append(_kernels.loop_bisect_batch(*args)[0])
        assert sorted(roots[:2]) == pytest.approx([fixed - 0.02, fixed + 0.02],
                                                  abs=1e-9)
        assert roots[2] == pytest.approx(fixed + 0.02, abs=1e-9)


def test_cells_beyond_one_fine_chunk_match_dense():
    """At |phi| ~ 1e15 the rounding bound clears no cell at any level, so
    these rows hold more uncleared finest cells than one chunk."""
    n_scan = 4096
    phi = np.random.default_rng(7).uniform(1e15, 1e16, 70)
    assert phi.size * (n_scan // STRIDES[-1]) > _kernels.FINE_CELLS
    for branch in (1, -1, 0):
        _assert_same((*PARTIAL[:3], phi, PARTIAL[3], branch, 0.3, n_scan))


@pytest.mark.parametrize("fine_cells", [_kernels.FINE_CELLS, 64])
def test_every_scan_level_keeps_the_chunk_budget(fine_cells, monkeypatch):
    """Every scan level, level 0 and its one cell of the whole grid included,
    evaluates at most ``FINE_CELLS // k`` cells of ``k`` finer cells at once,
    their ``k + 1`` points each: at most 1.25 ``FINE_CELLS`` points."""
    phi = np.linspace(-3.0, 3.0, 3 * BLOCK)
    expected = _kernels.loop_bisect_batch(*PARTIAL[:3], phi, PARTIAL[3], 1, 0.0, 4096)
    shapes = []
    residual = _kernels._residual

    def spy_residual(*args, **kwargs):
        out = residual(*args, **kwargs)
        if out.ndim == 2:
            shapes.append(out.shape)
        return out

    monkeypatch.setattr(_kernels, "_residual", spy_residual)
    monkeypatch.setattr(_kernels, "FINE_CELLS", fine_cells)
    theta = _kernels.loop_bisect_batch(*PARTIAL[:3], phi, PARTIAL[3], 1, 0.0, 4096)
    assert np.array_equal(theta, expected, equal_nan=True)
    assert any(points == 4096 // STRIDES[0] + 1 for _, points in shapes)
    for cells, points in shapes:
        assert cells * points <= fine_cells // (points - 1) * points
        assert cells * points <= 1.25 * fine_cells


COEFF = EXACT | st.floats(-3.0, 3.0)
# ordinary angles, and angles so large that rounding (phi + x) dominates
PHI = ANGLES | st.floats(-4.0, 4.0) | st.floats(-1e12, 1e12)


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(k1=COEFF, k2=COEFF, k3=EXACT | st.floats(-4.0, 4.0),
       fixed=ANGLES | st.floats(-4.0, 4.0),
       phi=st.lists(PHI, min_size=1, max_size=6),
       branch=st.sampled_from([1, -1, 0]), ref=st.floats(-4.0, 4.0),
       n_scan=st.sampled_from([256, 512, 768, 4096]))
def test_coarse_scan_matches_dense(k1, k2, k3, fixed, phi, branch, ref, n_scan):
    _assert_same((k1, k2, k3, np.array(phi), fixed, branch, ref, n_scan))


@st.composite
def prune_edges(draw):
    """``(k1, k2, k3, fixed, phi, n_scan)`` on the edges of the bracket prune.

    * touching: a bump of half-width below one grid step on a grid point,
      so two brackets share that point;
    * zero-at-pi: (c + k2 cos x) is exactly zero at -pi and pi;
    * small-probe: k1 = 1, fixed = 0 and k3 = k2 make every row's residual
      at pi zero but for rounding, |probe| <= alpha_tol, with a root near pi;
    * near-pi: a bump around a point near pi, its two roots on either side
      of the wrap, from 1e-10 to 0.1 rad apart.

    ``k3`` is set for the first row; the other rows shift ``c``.
    """
    n_scan = draw(st.sampled_from([256, 512, 768, 4096]))
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)
    sign = draw(st.sampled_from([1.0, -1.0]))
    phi = [draw(st.sampled_from([0.0, 0.5, -2.0]) | st.floats(-4.0, 4.0))]
    family = draw(st.sampled_from(["touching", "zero-at-pi", "small-probe", "near-pi"]))
    if family == "touching":
        fixed = float(xs[draw(st.integers(1, n_scan - 1))])
        width = draw(st.floats(0.05, 0.95)) * (xs[1] - xs[0])
        k1, k2, k3 = 0.0, 0.5 * sign, -0.5 * sign * math.cos(width) - math.cos(phi[0])
    elif family == "zero-at-pi":
        phi[0], fixed = 0.0, 0.0
        k1, k2, k3 = 0.0, 0.5 * sign, 0.5 * sign - 1.0
    elif family == "small-probe":
        k1, fixed = 1.0, 0.0
        k2 = k3 = draw(st.floats(0.05, 2.0))
    else:
        fixed = math.pi - draw(st.sampled_from([0.0, 1e-9]) | st.floats(-1e-3, 1e-3))
        width = 10.0 ** draw(st.floats(-10.0, -1.0))
        k1, k2, k3 = 0.0, 0.5 * sign, -0.5 * sign * math.cos(width) - math.cos(phi[0])
    phi += draw(st.lists(st.floats(-4.0, 4.0), max_size=3))
    return k1, k2, k3, fixed, phi, n_scan


@settings(max_examples=max(200, settings().max_examples), deadline=None)
@given(case=prune_edges(), branch=st.sampled_from([1, -1, 0]),
       ref=st.floats(-4.0, 4.0))
def test_bracket_prune_edges_match_dense(case, branch, ref):
    k1, k2, k3, fixed, phi, n_scan = case
    _assert_same((k1, k2, k3, np.array(phi), fixed, branch, ref, n_scan))


def test_one_bracket_per_closing_row_on_shipped_geometry(geometry, monkeypatch):
    """Branch +1 bisects only the bracket it picks: on the shipped geometry,
    exactly one per closing input of each loop of ``oracle_deviation``."""
    bisected = []
    bisect = _kernels._bisect

    def spy_bisect(*args):
        bisected.append(args[-1].size)
        return bisect(*args)

    monkeypatch.setattr(_kernels, "_bisect", spy_bisect)
    theta1 = np.linspace(*geometry.theta1_range, 5000)
    # the chain raises unless both loops close at every input
    linkage.oracle_deviation(geometry, theta1)
    assert sum(bisected) == 2 * theta1.size


ORDER_CASES = {
    # (k1, k2, k3, fixed), n_scan and the row with an exact zero, if any
    "partial": (PARTIAL, 4096, None),
    "tangent": (TANGENT, 4096, BLOCK + 5),
    "zero-probe": (ZERO_PROBE, 4096, None),
    "coarse-256": (PARTIAL, 256, None),
}


@pytest.mark.parametrize("case", [*ORDER_CASES, "shipped", "small-chunks"])
def test_bracket_table_is_sorted_by_row_then_lo(case, geometry, monkeypatch):
    """The prune and the root selection sort nothing: the scan lists each
    block's brackets by row, then ``lo``, exact zeros and their copies on
    shared cell ends included.  ``small-chunks`` sets ``FINE_CELLS`` so low
    that a row's uncleared cells span several chunks at every level."""
    tables = []
    pickable = _kernels._pickable

    def spy_pickable(rows, lo, *rest):
        tables.append((rows, lo))
        return pickable(rows, lo, *rest)

    monkeypatch.setattr(_kernels, "_pickable", spy_pickable)
    phi = np.linspace(-3.0, 3.0, 2 * BLOCK + 7)
    if case == "shipped":
        linkage.oracle_deviation(geometry, np.linspace(*geometry.theta1_range, 5000))
    elif case == "small-chunks":
        monkeypatch.setattr(_kernels, "FINE_CELLS", 16)
        for branch in (1, -1, 0):
            _assert_same((*PARTIAL[:3], phi[::16], PARTIAL[3], branch, 0.3, 4096))
    else:
        (k1, k2, k3, fixed), n_scan, zero = ORDER_CASES[case]
        if zero is not None:
            phi[zero] = 0.0
        theta = _kernels.loop_bisect_batch(k1, k2, k3, phi, fixed, 1, 0.0, n_scan)
        assert zero is None or theta[zero] == 0.0
    # some row has more than one bracket, so the order within rows is tested
    assert any((np.diff(rows) == 0).any() for rows, _ in tables)
    for rows, lo in tables:
        assert (np.diff(rows) >= 0).all()
        assert (np.diff(lo)[np.diff(rows) == 0] >= 0.0).all()


@pytest.mark.parametrize("n_scan", [0, 100, 4095])
def test_oracle_takes_only_whole_top_cells(n_scan):
    """The scan takes its grid in whole cells of the top stride, so
    ``n_scan`` must be a positive multiple of it."""
    with pytest.raises(ValueError, match="n_scan must be a positive multiple of 256"):
        _kernels.loop_bisect_batch(*PARTIAL[:3], np.zeros(3), PARTIAL[3], 1, 0.0, n_scan)


def test_rows_that_cannot_close_skip_the_scan(monkeypatch):
    """A NaN phi makes ``k3 + cos(phi)``, and so the residual at every
    point, NaN: such rows return NaN without one residual evaluated,
    30 000 of them in under 0.1 s, and mixed among other rows they leave
    the dense reference's angles unchanged."""
    evaluated = []
    residual = _kernels._residual

    def spy_residual(*args, **kwargs):
        out = residual(*args, **kwargs)
        evaluated.append(out.size)
        return out

    monkeypatch.setattr(_kernels, "_residual", spy_residual)
    phi = np.full(30_000, np.nan)
    started = time.perf_counter()
    theta = _kernels.loop_bisect_batch(*PARTIAL[:3], phi, PARTIAL[3], 1, 0.0, 4096)
    assert time.perf_counter() - started < 0.1
    assert np.isnan(theta).all()
    assert sum(evaluated) == 0
    mixed = np.random.default_rng(3).uniform(-math.pi, math.pi, 600)
    mixed[::3] = np.nan
    for branch in (1, -1, 0):
        _assert_same((*PARTIAL[:3], mixed, PARTIAL[3], branch, 0.3, 4096))


# a row's roots as the scan finds them: at distinct grid points, each one
# single, as exact copies (a zero on a shared cell end), or
# as a pair within the merge tolerance, drawn toward the inside of [-pi, pi];
# the table goes by row, then root, as the scan lists and bisects them
ROOT_GROUP = st.sampled_from(["single", "copies", "pair"])
PROBE = st.sampled_from([0.0, 5e-13, -5e-13, 0.3, -0.3, math.nan])


@st.composite
def root_tables(draw):
    n_scan = draw(st.sampled_from([256, 512, 4096]))
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)
    points = st.integers(0, n_scan)
    n_rows = draw(st.integers(1, 5))
    table = []
    for row in range(n_rows):
        at = draw(st.lists(points, max_size=6, unique=True))
        if len(at) <= 4 and draw(st.booleans()):
            at = list({*at, 0, n_scan})
        for k in at:
            r = float(xs[k])
            group = draw(ROOT_GROUP)
            if group == "copies":
                found = [r] * draw(st.integers(2, 3))
            elif group == "pair":
                d = draw(st.floats(0.0, _ROOT_MERGE_TOL))
                found = [r, r + d] if r < 0.0 else [r - d, r]
            else:
                found = [r]
            table += [(row, x) for x in found]
    table.sort()
    probe = draw(st.lists(PROBE, min_size=n_rows, max_size=n_rows))
    return table, np.array(probe)


@settings(max_examples=max(300, settings().max_examples), deadline=None)
@given(tables=root_tables(), branch=st.sampled_from([1, -1, 0]),
       ref=st.floats(-4.0, 4.0))
# an exact tie: wrap moves 0.25 and -0.25 through pi without rounding
@example(tables=([(0, 0.25), (0, 0.75)], np.array([0.3])), branch=0, ref=0.5)
def test_array_root_selection_matches_python(tables, branch, ref):
    table, probe = tables
    rows = np.array([r for r, _ in table], dtype=np.intp)
    roots = np.array([x for _, x in table], dtype=np.float64)
    theta = np.full(probe.shape, np.nan)
    _kernels._select_roots(rows, roots, probe, 1e-12, branch, ref, theta)
    expected = [_select_root_py(_merge_roots_py([x for r, x in table if r == i]),
                                probe[i], 1e-12, branch, ref)
                for i in range(probe.size)]
    assert [_bits(t) for t in theta.tolist()] == [_bits(t) for t in expected]


def _oracle_peak(phi):
    """Peak traced allocation of one oracle call over ``phi``."""
    tracemalloc.start()
    try:
        _kernels.loop_bisect_batch(0.9, 0.7, 1.3, phi, 0.4, 1, 0.0, 4096)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _working_sets(make_phi):
    """The traced peak less the output, 8 bytes a row, of oracle calls over
    ``make_phi(n)`` for one block and a row, and for four blocks and a row."""
    return [_oracle_peak(phi) - 8 * phi.size
            for phi in map(make_phi, (BLOCK + 1, 4 * BLOCK + 1))]


def test_oracle_memory_does_not_grow_with_rows():
    """The peak less the output does not grow with the rows: one block at a
    time."""
    # the dense grid took 32 KB per row: about 270 MB at 4 * BLOCK + 1 rows
    small, large = _working_sets(lambda n: np.linspace(-math.pi, math.pi, n))
    assert large < 64 * 2**20
    assert large <= 1.1 * small


def test_oracle_memory_with_no_cell_cleared():
    """At |phi| ~ 1e15 the rounding bound clears no cell at any level, each
    block's worst case, and the peak less the output stays under the same
    bounds."""
    small, large = _working_sets(
        lambda n: np.random.default_rng(7).uniform(1e15, 1e16, n))
    assert large < 64 * 2**20
    assert large <= 1.1 * small


def test_oracle_memory_within_a_fixed_budget():
    """Row blocks, each bisected after its own scan, and fine chunks keep the
    traced peak of 30 000 rows, the output included, under 5 MiB, whether
    the rows close or are NaN and clear no cell."""
    for phi in (np.linspace(-math.pi, math.pi, 30_000), np.full(30_000, np.nan)):
        assert _oracle_peak(phi) < 5 * 2**20

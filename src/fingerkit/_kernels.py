"""Hot numeric kernels, vectorized with numpy.

Sweeps, the bisection oracle, and the randomized property suites all funnel
through three batch kernels:

* ``loop_solve_batch``      closed-form positive root over an input array,
* ``loop_sweep_continuity`` sequential nearest-root sweep (no branch flips),
* ``loop_bisect_batch``     scan-and-bisect oracle in fixed memory: row
                            blocks, fine chunks and one bracket pool.

Each kernel returns the output angles, NaN exactly where the loop cannot
close.  The oracle's ``branch`` is +1 for the positive quadratic branch,
-1 for the negative one, and 0 for the root nearer ``ref`` (the smaller on
a tie).  Every closed-form angle comes from numpy's ``arctan``; nothing
here goes through libm.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVE_BACKEND = "numpy"

_TWO_PI = 2.0 * math.pi
# wrapped distance below which two residual roots count as one
_ROOT_MERGE_TOL = 1e-8
# roots this close to +/-pi are the vanishing-leading-coefficient artifact
_PI_ROOT_TOL = 1e-6
# oracle rows scanned at once; the coarse scan takes every SCAN_STRIDE-th
# grid point, the fine pass evaluates at most FINE_CELLS cells at once, and
# a pool of whole blocks gathers POOL_BRACKETS brackets (or rows) before its
# one bisection
BISECT_BLOCK_ROWS = 256
SCAN_STRIDE = 32
FINE_CELLS = 2048
POOL_BRACKETS = 4096


def quadratic(k1, k2, k3, phi, fixed_angle):
    """``(alpha, beta, gamma)`` of the half-angle quadratic in
    t = tan(theta_out / 2), elementwise over the inputs.

    The residual is A*cos(x) + B*sin(x) + C in the output angle, which the
    half-angle substitution turns into (C - A) t^2 + 2B t + (C + A) = 0.
    """
    a = k1 * np.cos(phi - fixed_angle) + k2 * math.cos(fixed_angle)
    b = -k1 * np.sin(phi - fixed_angle) + k2 * math.sin(fixed_angle)
    c = k3 + np.cos(phi)
    return c - a, 2.0 * b, c + a


def half_angle_roots(k1, k2, k3, phi, fixed_angle):
    """``(t_pos, t_neg)``: tan(theta_out / 2) of both quadratic branches,
    NaN exactly where the loop cannot close.

    Uses the cancellation-safe pairing q = -(beta + sign(beta)*sqrt(disc))/2
    so neither branch loses precision when alpha or gamma is small; a
    negative discriminant makes q, and so both roots, NaN.  Where the
    quadratic degenerates (alpha == 0) both hold the linear limit
    -gamma/beta, and NaN when beta == 0 too.
    """
    with np.errstate(all="ignore"):
        alpha, beta, gamma = quadratic(
            k1, k2, k3, np.asarray(phi, dtype=np.float64), fixed_angle)
        sq = np.sqrt(beta * beta - 4.0 * alpha * gamma)
        up = beta >= 0.0
        q = np.where(up, -0.5 * (beta + sq), -0.5 * (beta - sq))
        # q == 0 only when beta == 0 and disc == 0: double root at zero
        double = q == 0.0
        far = np.where(double, 0.0, gamma / q)
        near = np.where(double, 0.0, q / alpha)
        linear = np.where(beta != 0.0, -gamma / beta, np.nan)
        t_pos = np.where(alpha == 0.0, linear, np.where(up, far, near))
        t_neg = np.where(alpha == 0.0, linear, np.where(up, near, far))
    return t_pos, t_neg


def loop_solve_batch(k1, k2, k3, phi, fixed_angle):
    """Closed-form output angles of the positive root over an input array;
    ``2 * arctan`` of :func:`half_angle_roots` gives either root."""
    return 2.0 * np.arctan(half_angle_roots(k1, k2, k3, phi, fixed_angle)[0])


def wrap(angles):
    """Angles wrapped elementwise to the half-open interval (-pi, pi]."""
    wrapped = np.fmod(angles + math.pi, _TWO_PI)
    return np.where(wrapped <= 0.0, wrapped + _TWO_PI, wrapped) - math.pi


def positive_nearer(pos, neg, reference):
    """Whether the positive root is the one nearer ``reference`` on the
    circle, elementwise; a tie goes to the positive root."""
    return np.abs(wrap(pos - reference)) <= np.abs(wrap(neg - reference))


def loop_sweep_continuity(k1, k2, k3, phi, fixed_angle):
    """Nearest-branch sweep, vectorized.

    The sequential rule picks, at each closing sample, the root nearer the
    previous pick (the positive one on a tie), and at the first closing
    sample the positive root; samples that cannot close are skipped.
    Whether the positive root is picked depends only on which branch was
    picked before, so each step is one of four maps of that choice: always
    positive, always negative (both constants), keep, or flip.  The choice
    at a sample is the last constant before it, flipped once per flip step
    since.  Only already computed roots are selected, so the result is the
    sequential loop's, bit for bit.
    """
    t_pos, t_neg = half_angle_roots(k1, k2, k3, phi, fixed_angle)
    closes = ~np.isnan(t_pos)
    pos = 2.0 * np.arctan(t_pos[closes])
    neg = 2.0 * np.arctan(t_neg[closes])

    # the pick at each closing sample, given the pick before it; the first
    # one, measured from its own positive root, is positive either way
    after_pos = positive_nearer(pos, neg, np.concatenate((pos[:1], pos[:-1])))
    after_neg = positive_nearer(pos, neg, np.concatenate((pos[:1], neg[:-1])))
    constant = after_pos == after_neg
    flips = np.cumsum(after_neg & ~constant)
    last = np.maximum.accumulate(np.where(constant, np.arange(pos.size), 0))
    take_pos = after_pos[last] ^ ((flips - flips[last]) % 2 == 1)

    theta = np.full(closes.shape, np.nan)
    theta[closes] = np.where(take_pos, pos, neg)
    return theta


def _select_roots(rows, roots, probe, alpha_tol, branch, ref, theta):
    """Writes into ``theta`` one root per row by the branch rule, if one fits.

    ``rows`` and ``roots`` pair each root found with its row, in any order.
    Sorted by row, then root, a root within ``_ROOT_MERGE_TOL`` of the one
    before it, or of its row's first plus 2 pi (a last root at pi, as all
    lie in [-pi, pi]), is that root again, though the one before may itself
    be dropped: no three roots chain, as none is next to an exact zero and
    a grid interval, far wider than the tolerance, gives one bracket at
    most.  ``probe`` (the residual at pi, the leading coefficient) says by
    its sign whether branch +1 or -1 takes the largest or smallest root;
    near zero (``alpha_tol``), roots within ``_PI_ROOT_TOL`` of +/-pi do
    not count.  Branch 0 takes the root nearest ``ref``, the smaller on a tie.
    """
    order = np.lexsort((roots, rows))
    rows, roots = rows[order], roots[order]
    new_row = np.diff(rows, prepend=-1) != 0
    first = roots[new_row][np.cumsum(new_row) - 1]
    keep = new_row | ((np.diff(roots, prepend=-np.inf) > _ROOT_MERGE_TOL)
                      & ~(_TWO_PI - (roots - first) < _ROOT_MERGE_TOL))
    if branch == 0:
        score = np.abs(wrap(roots - ref))
    else:
        small = np.abs(probe) <= alpha_tol
        keep &= ~small[rows] | (math.pi - np.abs(roots) > _PI_ROOT_TOL)
        take_max = (small | (probe > 0.0)) == (branch > 0)
        score = np.where(take_max[rows], -roots, roots)
    # a row's lowest score wins; the stable sort keeps the smaller of a tie
    order = np.flatnonzero(keep)[np.lexsort((score[keep], rows[keep]))]
    picked, at = np.unique(rows[order], return_index=True)
    theta[picked] = roots[order[at]]


def _residual(k1, fixed_angle, phi, c, x, x_term, out=None):
    """The residual ``(c + k1 * cos((phi + x) - fixed_angle)) + x_term``,
    broadcast, where ``c = k3 + cos(phi)`` and ``x_term = k2 * cos(x -
    fixed_angle)``: the oracle's only formula for it, so a grid point's
    float does not depend on the pass or the block that evaluates it."""
    r = np.add(phi, x, out=out)
    np.subtract(r, fixed_angle, out=r)
    np.cos(r, out=r)
    np.multiply(r, k1, out=r)
    np.add(r, c, out=r)
    return np.add(r, x_term, out=r)


def _coarse_scan(k1, k2, fixed_angle, phi, c, xs, x_term, cell_change):
    """``(probe, cell_rows, cells)``: each row's residual at pi, and the
    cells of the coarse scan that the Lipschitz bound cannot clear."""
    coarse = _residual(k1, fixed_angle, phi[:, None], c[:, None],
                       xs[::SCAN_STRIDE], x_term[::SCAN_STRIDE])
    # several times the rounding error of one residual, which grows with
    # |phi| and |fixed_angle| through (phi + x) - fixed_angle
    err = 2.0**-48 * (abs(k1) * (np.abs(phi) + abs(fixed_angle) + 4.0)
                      + abs(k2) * (abs(fixed_angle) + 4.0) + np.abs(c))
    # Shubert's bound: no fine point of a cell is zero or of the other sign if
    # its ends share a sign and sum to more than the residual can change across
    # it, four rounding errors and an underflow floor; NaN clears nothing
    probe = coarse[:, -1].copy()
    ends = np.add(coarse[:, :-1], coarse[:, 1:])
    cleared = np.abs(ends, out=ends) > cell_change + 4.0 * err[:, None] + 2.0**-1000
    sign = np.sign(coarse, out=coarse)
    cleared &= sign[:, :-1] == sign[:, 1:]
    return (probe, *np.nonzero(~cleared))


def _scan_block(k1, k2, k3, phi, fixed_angle, xs, x_term, cell_change):
    """The scan of one block of rows: ``(probe, brackets)``.

    ``probe`` is each row's residual at pi, and ``brackets`` a list of
    ``(rows, lo, hi, flo)`` arrays, one entry per fine chunk: a strict sign
    change between neighbouring grid points, ``flo`` the residual at
    ``lo``, or an exact zero x as the bracket [x, x], which bisection keeps
    at x.  ``xs`` is the scan grid padded with copies of pi to whole cells
    of ``SCAN_STRIDE`` steps, ``x_term`` its column term and
    ``cell_change`` the most the exact residual can change across one cell.
    """
    c = k3 + np.cos(phi)
    probe, cell_rows, cells = _coarse_scan(k1, k2, fixed_angle, phi, c, xs,
                                           x_term, cell_change)

    # the fine pass: every grid point of the uncleared cells, FINE_CELLS
    # cells at a time; a zero on an end two cells share, or on a copy of
    # pi, shows twice, and the merge drops the copy
    brackets = []
    xs_cells, term_cells = (sliding_window_view(a, SCAN_STRIDE + 1)[::SCAN_STRIDE]
                            for a in (xs, x_term))
    for s in range(0, cells.size, FINE_CELLS):
        rows, at = cell_rows[s:s + FINE_CELLS], cells[s:s + FINE_CELLS]
        fine = xs_cells[at]
        _residual(k1, fixed_angle, phi[rows, None], c[rows, None], fine,
                  term_cells[at], out=fine)
        # strict sign changes between grid points, neither one zero; then
        # the zeros, each a bracket of width 0
        neg = fine < 0.0
        i, j = np.nonzero(neg[:, :-1] != neg[:, 1:])
        strict = (fine[i, j] != 0.0) & (fine[i, j + 1] != 0.0)
        zi, zj = np.nonzero(fine == 0.0)
        i, j = np.concatenate((i[strict], zi)), np.concatenate((j[strict], zj))
        col = at[i] * SCAN_STRIDE + j
        width = np.arange(i.size) < np.count_nonzero(strict)
        brackets.append((rows[i], xs[col], xs[col + width], fine[i, j]))
    return probe, brackets


def _bisect(k1, k2, fixed_angle, phi, c, lo, hi, flo):
    """The midpoints of the brackets ``[lo, hi]`` after bisecting them in
    place, ``flo`` the residual at ``lo`` and ``c = k3 + cos(phi)``.

    Each step halves every bracket, keeping the half whose ends change
    sign, for at most 60 steps.  ``flo`` is always the residual at ``lo``,
    bit for bit: the scan's at first, then that of the step that moved
    ``lo``, from the one formula ``_residual``.  So a step whose ``mid``
    equals ``lo`` changes nothing, and a step whose ``mid`` equals ``hi``
    either keeps the bracket, as each later step then does, or makes it
    [hi, hi].  Once one step has had every ``mid`` equal to its ``lo`` or
    its ``hi``, every later step is a no-op, and the loop stops there:
    the result is the 60 steps', bit for bit.
    """
    mid, fm, term = np.empty_like(lo), np.empty_like(lo), np.empty_like(lo)
    go_hi, go_lo = np.empty(lo.shape, dtype=bool), np.empty(lo.shape, dtype=bool)
    for _ in range(60):
        np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)
        settled = ((mid == lo) | (mid == hi)).all()
        np.subtract(mid, fixed_angle, out=term)
        np.multiply(np.cos(term, out=term), k2, out=term)
        _residual(k1, fixed_angle, phi, c, mid, term, out=fm)
        np.not_equal(flo < 0.0, fm < 0.0, out=go_hi)
        np.logical_not(go_hi, out=go_lo)
        np.copyto(hi, mid, where=go_hi)
        np.copyto(lo, mid, where=go_lo)
        np.copyto(flo, fm, where=go_lo)
        if settled:
            break
    return np.multiply(np.add(lo, hi, out=mid), 0.5, out=mid)


def loop_bisect_batch(k1, k2, k3, phi, fixed_angle, branch, ref, n_scan):
    """Scan-and-bisect oracle: never forms the quadratic's roots.

    The roots are those of a residual scan at ``n_scan + 1`` points of
    [-pi, pi]: each sign change bisected 60 times, and each point where the
    residual is exactly zero; ``_select_roots`` picks one per row.  The scan
    takes every ``SCAN_STRIDE``-th point, then every point of the cells
    between them that a Lipschitz bound, rounding included, cannot clear of
    sign changes and zeros: so every angle is the full scan's, bit for bit.

    Memory is set by fixed budgets, not by the number of rows.  Rows are
    scanned in blocks of ``BISECT_BLOCK_ROWS``, the fine pass at most
    ``FINE_CELLS`` cells at a time.  The blocks' brackets gather in a pool
    of consecutive rows, which is bisected in one pass, and its rows'
    roots selected, at the end of the block that brings it to
    ``POOL_BRACKETS`` brackets or rows, and after the last block.
    """
    phi = np.asarray(phi, dtype=np.float64)
    n = phi.shape[0]
    n_cells = max(-(-n_scan // SCAN_STRIDE), 1)
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)[
        np.minimum(np.arange(n_cells * SCAN_STRIDE + 1), n_scan)]
    x_term = k2 * np.cos(xs - fixed_angle)
    # the Lipschitz constant times the widest cell, rounded up
    cell_change = 1.001 * (abs(k1) + abs(k2)) * np.diff(
        xs[::SCAN_STRIDE]).max(initial=0.0)
    alpha_tol = 1e-12 * (1.0 + abs(k1) + abs(k2) + abs(k3))
    theta = np.full(n, np.nan)
    pool, probes, held, start = [], [], 0, 0
    for block in range(0, n, BISECT_BLOCK_ROWS):
        stop = min(block + BISECT_BLOCK_ROWS, n)
        probe, brackets = _scan_block(k1, k2, k3, phi[block:stop], fixed_angle,
                                      xs, x_term, cell_change)
        probes.append(probe)
        for rows, lo, hi, flo in brackets:
            pool.append((rows + (block - start), lo, hi, flo))
            held += rows.size
        if stop < n and max(held, stop - start) < POOL_BRACKETS:
            continue
        if pool:
            rows, lo, hi, flo = (np.concatenate(column) for column in zip(*pool))
            phi_b = phi[start:stop][rows]
            roots = _bisect(k1, k2, fixed_angle, phi_b, k3 + np.cos(phi_b),
                            lo, hi, flo)
            _select_roots(rows, roots, np.concatenate(probes), alpha_tol,
                          branch, ref, theta[start:stop])
        pool, probes, held, start = [], [], 0, stop
    return theta

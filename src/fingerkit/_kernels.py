"""Hot numeric kernels, vectorized with numpy.

Sweeps, the bisection oracle, and the randomized property suites all funnel
through three batch kernels:

* ``loop_solve_batch``      closed-form positive root over an input array,
* ``loop_sweep_continuity`` sequential nearest-root sweep (no branch flips),
* ``loop_bisect_batch``     scan-and-bisect oracle in fixed memory: one
                            block of rows at a time, a multi-level certified
                            scan and a bisection of the one bracket per row
                            the branch rule can pick.

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
# oracle rows scanned at once; the scan's levels take every SCAN_STRIDES[i]-th
# grid point, each stride dividing the one before, and then every point; each
# level evaluates at most FINE_CELLS finer cells at once
BISECT_BLOCK_ROWS = 2048
SCAN_STRIDES = (256, 32, 4)
FINE_CELLS = 8192


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


def _distinct(first, lo, hi):
    """Whether each root, in ``[lo, hi]``, is no copy of one before it: the
    merge rule, on roots (``lo`` is ``hi``) or on bracket ends.

    Entries go by row, then ``lo``; ``first`` marks each row's first.  A
    root counts if it is its row's first, or lies more than
    ``_ROOT_MERGE_TOL`` past the one before and less than 2 pi -
    ``_ROOT_MERGE_TOL`` past its row's first (pi is -pi; all lie in
    [-pi, pi]).  No three roots chain, as none is next to an exact zero and
    a grid interval, far wider than the tolerance, holds one bracket at most.
    Float subtraction is monotone, so a counted bracket holds a counted root.
    """
    row_first = lo[first][np.cumsum(first) - 1]
    return first | ((lo - np.roll(hi, 1) > _ROOT_MERGE_TOL)
                    & ~(_TWO_PI - (hi - row_first) < _ROOT_MERGE_TOL))


def _select_roots(rows, roots, probe, alpha_tol, branch, ref, theta):
    """Writes into ``theta`` one root per row by the branch rule, if one fits.

    ``rows`` and ``roots`` pair each root found with its row, sorted by row,
    then root, and only the roots ``_distinct`` counts are candidates.
    ``probe`` (the residual at pi, the leading coefficient) says by its sign
    whether branch +1 or -1 takes the largest or smallest root; near zero
    (``alpha_tol``), roots within ``_PI_ROOT_TOL`` of +/-pi do not count.
    Branch 0 takes the root nearest ``ref``, the smaller on a tie.
    """
    keep = _distinct(np.diff(rows, prepend=-1) != 0, roots, roots)
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
    float does not depend on the level or the block that evaluates it."""
    r = np.add(phi, x, out=out)
    np.subtract(r, fixed_angle, out=r)
    np.cos(r, out=r)
    np.multiply(r, k1, out=r)
    np.add(r, c, out=r)
    return np.add(r, x_term, out=r)


def _pickable(rows, lo, hi, probe, alpha_tol, branch):
    """Whether the branch rule can pick each bracket's root.

    The brackets go by row, then ``lo``, and no two of a row overlap, so
    their roots are sorted too.  Where branch +1 or -1 takes a row's
    smallest root, it is its first bracket's.  Where it takes the largest,
    it is the last bracket's, and only that bracket is kept if
    ``_distinct`` counts it: then neither the merge nor the wrap onto -pi
    can drop its root.  Every other row keeps all of its brackets, as do
    rows with |probe| <= alpha_tol, whose +/-pi rule can drop a root, and
    every row of branch 0.
    """
    first = np.diff(rows, prepend=-1) != 0
    last = np.diff(rows, append=probe.size) != 0
    alone = np.zeros(probe.size, dtype=bool)
    alone[rows[last & _distinct(first, lo, hi)]] = True
    take_max = ((probe > 0.0) == (branch > 0))[rows]
    keep = np.where(take_max, last | ~alone[rows], first)
    return keep | (np.abs(probe) <= alpha_tol)[rows] | (branch == 0)


class _Oracle:
    """The per-call constants of ``loop_bisect_batch``, and its one step:
    the roots of a block of rows.

    ``xs`` is the scan grid of ``n_scan + 1`` points, whole cells of
    ``SCAN_STRIDES[0]`` steps, and ``x_term`` its column term.  The scan's
    level 0 has one cell, the whole grid, and takes every
    ``SCAN_STRIDES[0]``-th point of it.  Each later level, and then a last
    one that takes every point, evaluates the points of the cells that the
    level before could not clear, at its own stride, their ends included.
    """

    def __init__(self, k1, k2, k3, fixed_angle, branch, ref, n_scan):
        self.k1, self.k2, self.k3, self.fixed_angle = k1, k2, k3, fixed_angle
        self.branch, self.ref = branch, ref
        self.alpha_tol = 1e-12 * (1.0 + abs(k1) + abs(k2) + abs(k3))
        self.err_k2 = abs(k2) * (abs(fixed_angle) + 4.0)
        self.xs = np.linspace(-math.pi, math.pi, n_scan + 1)
        self.x_term = k2 * np.cos(self.xs - fixed_angle)
        # per level: the Lipschitz constant times its widest cell, rounded up
        self.change = [1.001 * (abs(k1) + abs(k2)) * np.diff(self.xs[::s]).max()
                       for s in SCAN_STRIDES]
        # per level: the k + 1 points of each of its cells at the next stride
        self.cells = []
        for coarse, fine in zip((n_scan,) + SCAN_STRIDES, SCAN_STRIDES + (1,)):
            k = coarse // fine
            self.cells.append((k, *(sliding_window_view(a[::fine], k + 1)[::k]
                                    for a in (self.xs, self.x_term))))

    def solve(self, phi, theta):
        """Writes each root of the block of rows ``phi`` into ``theta``.

        ``probe`` is each row's residual at pi.  A bracket is a strict sign
        change between neighbouring grid points, ``flo`` the residual at
        ``lo``, or an exact zero x as the bracket [x, x], which bisection
        keeps at x.  A zero on an end two finest cells share shows twice, and
        the merge drops the copy.
        Only the brackets whose root the branch rule can pick (``_pickable``)
        are bisected.  A row whose ``c = k3 + cos(phi)`` is NaN has a NaN
        residual at every point, so no root, and it is not scanned.
        """
        c = self.k3 + np.cos(phi)
        probe = np.full(phi.size, np.nan)
        live = np.flatnonzero(~np.isnan(c))
        phi, c = phi[live], c[live]
        # several times the rounding error of one residual, which grows with
        # |phi| and |fixed_angle| through (phi + x) - fixed_angle
        err = 2.0**-48 * (abs(self.k1) * (np.abs(phi) + abs(self.fixed_angle) + 4.0)
                          + self.err_k2 + np.abs(c))
        probe[live] = _residual(self.k1, self.fixed_angle, phi, c, self.xs[-1],
                                self.x_term[-1])
        found = [(live[:0], probe[:0], probe[:0], probe[:0])]
        self._refine(0, phi, c, err, np.arange(live.size), np.zeros_like(live),
                     found)
        rows, lo, hi, flo = (np.concatenate(column) for column in zip(*found))
        keep = _pickable(rows, lo, hi, probe[live], self.alpha_tol, self.branch)
        rows = rows[keep]
        roots = _bisect(self.k1, self.k2, self.fixed_angle, phi[rows], c[rows],
                        lo[keep], hi[keep], flo[keep])
        _select_roots(live[rows], roots, probe, self.alpha_tol, self.branch,
                      self.ref, theta)

    def _uncleared(self, vals, level, err):
        """Row and cell indices of the cells ``vals[i, j:j + 2]``, at the
        stride of ``level``, that Shubert's bound cannot clear.

        No grid point of a cell is zero or of the other sign if its ends have
        one sign and sum to more than the residual can change across it,
        four rounding errors and an underflow floor; NaN clears nothing.
        """
        lo, hi = vals[:, :-1], vals[:, 1:]
        bound = self.change[level] + 4.0 * err[:, None] + 2.0**-1000
        ends = np.add(lo, hi)
        cleared = np.abs(ends, out=ends) > bound
        cleared &= np.multiply(lo, hi) > 0.0
        return np.nonzero(~cleared)

    def _refine(self, level, phi, c, err, rows, cells, found):
        """Appends to ``found`` the brackets inside the cells of ``level``
        numbered ``cells``, cell ``cells[i]`` of the input ``rows[i]``.

        Each cell gets its points at the next stride, ends included,
        FINE_CELLS finer cells at a time, and their uncleared cells go one
        level deeper before the next chunk, depth first.  The last level
        lists each grid point's exact zero, then its strict sign change to
        the next; rows and cells go in row-major order, so ``found`` is
        sorted by input, then ``lo``."""
        k, xs_cells, term_cells = self.cells[level]
        step = max(FINE_CELLS // k, 1)
        for s in range(0, rows.size, step):
            r, at = rows[s:s + step], cells[s:s + step]
            sub = xs_cells[at]
            _residual(self.k1, self.fixed_angle, phi[r, None], c[r, None], sub,
                      term_cells[at], out=sub)
            if level + 1 < len(self.cells):
                i, j = self._uncleared(sub, level, err[r])
                # held across the recursion, it would add a chunk per level
                del sub
                self._refine(level + 1, phi, c, err, r[i], at[i] * k + j, found)
                continue
            # mark each grid point's exact zero (a bracket of width 0), or
            # else its strict sign change to the next
            mark = sub == 0.0
            mark[:, :-1] |= ((sub[:, :-1] < 0.0) != (sub[:, 1:] < 0.0)) & ~mark[:, 1:]
            i, j = np.nonzero(mark)
            col = at[i] * k + j
            flo = sub[i, j]
            found.append((r[i], self.xs[col], self.xs[col + (flo != 0.0)], flo))


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
    [-pi, pi], ``n_scan`` a positive multiple of ``SCAN_STRIDES[0]``: each
    sign change bisected 60 times, and each point where the residual is
    exactly zero; ``_select_roots`` picks one per row.  The scan
    is multi-level: every ``SCAN_STRIDES[0]``-th point, then the points of
    each finer stride inside the cells that a Lipschitz bound, rounding
    included, cannot clear of sign changes and zeros, then every point of
    the finest uncleared cells: so the brackets, the zeros and every angle
    are the full scan's, bit for bit.  Only the brackets whose root the
    branch rule can pick are bisected (``_pickable``), and a row whose
    ``k3 + cos(phi)`` is NaN, NaN at every point, is not scanned.

    Memory is set by fixed budgets, not by the number of rows.  Rows go
    in blocks of ``BISECT_BLOCK_ROWS``, each scanned, its brackets bisected
    in one pass and its rows' roots selected before the next; each scan
    level evaluates at most ``FINE_CELLS`` finer cells at a time.
    """
    if n_scan <= 0 or n_scan % SCAN_STRIDES[0]:
        raise ValueError(f"n_scan must be a positive multiple of "
                         f"{SCAN_STRIDES[0]}, not {n_scan}")
    phi = np.asarray(phi, dtype=np.float64)
    oracle = _Oracle(k1, k2, k3, fixed_angle, branch, ref, n_scan)
    theta = np.full(phi.shape[0], np.nan)
    for block in range(0, phi.shape[0], BISECT_BLOCK_ROWS):
        stop = block + BISECT_BLOCK_ROWS
        oracle.solve(phi[block:stop], theta[block:stop])
    return theta

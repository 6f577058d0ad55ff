"""Hot numeric kernels, vectorized with numpy.

Sweeps, the bisection oracle, and the randomized property suites all funnel
through three batch kernels:

* ``loop_solve_batch``      closed-form loop solve over an input array,
* ``loop_sweep_continuity`` sequential nearest-root sweep (no branch flips),
* ``loop_bisect_batch``     scan-and-bisect oracle over an input array.

Each kernel returns the output angles, NaN exactly where the loop cannot
close.  ``branch`` is +1 for the positive quadratic branch, -1 for the
negative one, and 0 for the root nearer ``ref``, the positive one on a tie
(both ``loop_solve_batch`` and ``loop_bisect_batch``).  Every angle comes
from numpy's ``arctan``; nothing here goes through libm.
"""

from __future__ import annotations

import math
import os

import numpy as np

ACTIVE_BACKEND = "numpy"

_TWO_PI = 2.0 * math.pi
# wrapped distance below which two residual roots count as one
_ROOT_MERGE_TOL = 1e-8
# roots this close to +/-pi are the vanishing-leading-coefficient artifact
_PI_ROOT_TOL = 1e-6
# oracle rows scanned at once: one (rows x (n_scan + 1)) grid per worker
BISECT_BLOCK_ROWS = 256


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


def loop_solve_batch(k1, k2, k3, phi, fixed_angle, branch, ref=None):
    """Closed-form output angles over an input array: the positive root
    (``branch`` +1), the negative one (-1), or the one nearer ``ref`` (0)."""
    pos, neg = 2.0 * np.arctan(half_angle_roots(k1, k2, k3, phi, fixed_angle))
    if branch:
        return pos if branch > 0 else neg
    return np.where(positive_nearer(pos, neg, ref), pos, neg)


def wrap(angles):
    """Angles wrapped elementwise to the half-open interval (-pi, pi]."""
    wrapped = np.fmod(angles + math.pi, _TWO_PI)
    return np.where(wrapped <= 0.0, wrapped + _TWO_PI, wrapped) - math.pi


def positive_nearer(pos, neg, reference):
    """Whether the positive root is the one nearer ``reference`` on the
    circle, elementwise; a tie goes to the positive root."""
    return np.abs(wrap(pos - reference)) <= np.abs(wrap(neg - reference))


def loop_sweep_continuity(k1, k2, k3, phi, fixed_angle, seed):
    """Nearest-branch sweep, vectorized.

    The sequential rule picks, at each closing sample, the root nearer the
    previous pick (the positive one on a tie); samples that cannot close
    are skipped.  Whether the positive root is picked depends only on which
    branch was picked before, so each step is one of four maps of that
    choice: always positive, always negative (both constants), keep, or
    flip.  The choice at a sample is the last constant before it, flipped
    once per flip step since.  Only already computed roots are selected,
    so the result is the sequential loop's, bit for bit.
    """
    t_pos, t_neg = half_angle_roots(k1, k2, k3, phi, fixed_angle)
    closes = ~np.isnan(t_pos)
    pos = 2.0 * np.arctan(t_pos[closes])
    neg = 2.0 * np.arctan(t_neg[closes])

    # the pick at each closing sample, given the pick before it; the first
    # one follows the seed either way
    after_pos = positive_nearer(pos, neg, np.concatenate(([seed], pos[:-1])))
    after_neg = positive_nearer(pos, neg, np.concatenate(([seed], neg[:-1])))
    constant = after_pos == after_neg
    flips = np.cumsum(after_neg & ~constant)
    last = np.maximum.accumulate(np.where(constant, np.arange(pos.size), 0))
    take_pos = after_pos[last] ^ ((flips - flips[last]) % 2 == 1)

    theta = np.full(closes.shape, np.nan)
    theta[closes] = np.where(take_pos, pos, neg)
    return theta


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


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _bisect_block(k1, k2, k3, phi, fixed_angle, xs, x_term, grid,
                  branch, ref, alpha_tol, theta):
    """The oracle on one block of rows; fills this block's ``theta``.

    ``grid`` is the caller's buffer for this block's residual scan and
    ``x_term`` the column term ``k2 * cos(xs - fixed_angle)``.  Every
    residual is ``((k3 + cos phi) + k1 * cos((phi + x) - fixed_angle))
    + k2 * cos(x - fixed_angle)``, the same operations in the same order
    whether the grid is evaluated per block or whole, so the floats do not
    depend on how the rows are split.
    """
    c = k3 + np.cos(phi)
    np.add(phi[:, None], xs, out=grid)
    np.subtract(grid, fixed_angle, out=grid)
    np.cos(grid, out=grid)
    np.multiply(grid, k1, out=grid)
    np.add(grid, c[:, None], out=grid)
    np.add(grid, x_term, out=grid)

    # brackets: strict sign changes between grid points, neither one zero
    neg = grid < 0.0
    change = neg[:, :-1] != neg[:, 1:]
    zero = grid == 0.0
    has_zero = zero.any()
    if has_zero:
        change &= ~zero[:, :-1]
        change &= ~zero[:, 1:]
    rows, cols = np.divmod(np.flatnonzero(change), change.shape[1])

    lo = xs[cols]
    hi = xs[cols + 1]
    flo = grid[rows, cols]
    phi_b = phi[rows]
    c_b = c[rows]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = (c_b + k1 * np.cos(phi_b + mid - fixed_angle)
              + k2 * np.cos(mid - fixed_angle))
        go_hi = (flo < 0.0) != (fm < 0.0)
        hi = np.where(go_hi, mid, hi)
        lo = np.where(go_hi, lo, mid)
        flo = np.where(go_hi, flo, fm)

    per_row: list[list[float]] = [[] for _ in range(len(phi))]
    for r, root in zip(rows.tolist(), (0.5 * (lo + hi)).tolist()):
        per_row[r].append(root)
    if has_zero:
        zero_rows, zero_cols = np.nonzero(zero)
        for r, x in zip(zero_rows.tolist(), xs[zero_cols].tolist()):
            per_row[r].append(x)

    # the residual at pi is the quadratic's leading coefficient
    probe = grid[:, -1].tolist()
    for i, roots in enumerate(per_row):
        theta[i] = _select_root_py(
            _merge_roots_py(roots), probe[i], alpha_tol, branch, ref)


def loop_bisect_batch(k1, k2, k3, phi, fixed_angle, branch, ref, n_scan):
    """Scan-and-bisect oracle: never forms the quadratic's roots.

    Each input scans the residual at ``n_scan + 1`` points of [-pi, pi],
    bisects every sign change 60 times and adds the grid points where the
    residual is exactly zero; the branch rule then picks one root.  Rows go
    in blocks of ``BISECT_BLOCK_ROWS``, each worker thread reusing one grid
    buffer, so memory does not grow with the number of inputs.  numpy
    releases the GIL in its ufuncs, so the blocks run on all CPUs.
    """
    phi = np.asarray(phi, dtype=np.float64)
    n = phi.shape[0]
    xs = np.linspace(-math.pi, math.pi, n_scan + 1)
    x_term = k2 * np.cos(xs - fixed_angle)
    alpha_tol = 1e-12 * (1.0 + abs(k1) + abs(k2) + abs(k3))
    theta = np.empty(n)
    starts = range(0, n, BISECT_BLOCK_ROWS)

    def run(block_starts):
        buffer = np.empty((min(n, BISECT_BLOCK_ROWS), n_scan + 1))
        for start in block_starts:
            stop = min(start + BISECT_BLOCK_ROWS, n)
            _bisect_block(
                k1, k2, k3, phi[start:stop], fixed_angle, xs, x_term,
                buffer[:stop - start], branch, ref, alpha_tol,
                theta[start:stop],
            )

    workers = min(_worker_count(), len(starts))
    if workers <= 1:
        run(starts)
        return theta
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, starts[w::workers]) for w in range(workers)]
        for future in futures:
            future.result()
    return theta


"""Hot numeric kernels with numba and pure-numpy twin implementations.

Sweeps, the bisection oracle, and the randomized property suites all funnel
through three batch kernels:

* ``loop_solve_batch``      closed-form loop solve over an input array,
* ``loop_sweep_continuity`` sequential nearest-root sweep (no branch flips),
* ``loop_bisect_batch``     scan-and-bisect oracle over an input array.

Each kernel exists twice: an ``@njit`` version and a vectorized numpy
version.  The numba path is used when available; set ``FINGERKIT_NO_NUMBA=1``
(before import) to force the numpy fallback.

All kernels return ``(ok, theta)`` where ``ok`` is a boolean mask and
``theta`` holds NaN wherever the loop cannot close.  ``branch`` is +1 for
the positive quadratic branch, -1 for the negative one, and 0 (oracle only)
for nearest-to-reference selection.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_FLAG = "FINGERKIT_NO_NUMBA"

_TWO_PI = 2.0 * math.pi
# wrapped distance below which two residual roots count as one
_ROOT_MERGE_TOL = 1e-8
# roots this close to +/-pi are the vanishing-leading-coefficient artifact
_PI_ROOT_TOL = 1e-6


def _numpy_forced() -> bool:
    return os.environ.get(ENV_FLAG, "").strip() not in ("", "0")


# ---------------------------------------------------------------------------
# pure numpy implementations
# ---------------------------------------------------------------------------

def _linear_coeffs_numpy(k1, k2, k3, phi, fixed_angle):
    """Residual as A*cos(x) + B*sin(x) + C over an array of inputs."""
    a = k1 * np.cos(phi - fixed_angle) + k2 * math.cos(fixed_angle)
    b = -k1 * np.sin(phi - fixed_angle) + k2 * math.sin(fixed_angle)
    c = k3 + np.cos(phi)
    return a, b, c


def half_angle_roots_numpy(k1, k2, k3, phi, fixed_angle):
    """``(ok, t_pos, t_neg)``: tan(theta_out / 2) of both quadratic branches.

    Uses the same cancellation-safe root pairing as the scalar solver; where
    the quadratic degenerates (alpha == 0) both entries hold the linear
    limit -gamma/beta.  Both are NaN wherever the loop cannot close.
    """
    phi = np.asarray(phi, dtype=np.float64)
    a_lin, b_lin, c_lin = _linear_coeffs_numpy(k1, k2, k3, phi, fixed_angle)
    alpha = c_lin - a_lin
    beta = 2.0 * b_lin
    gamma = c_lin + a_lin

    t_pos = np.full(phi.shape, np.nan)
    t_neg = np.full(phi.shape, np.nan)
    ok = np.zeros(phi.shape, dtype=bool)

    linear = alpha == 0.0
    lin_ok = linear & (beta != 0.0)
    if lin_ok.any():
        t_pos[lin_ok] = t_neg[lin_ok] = -gamma[lin_ok] / beta[lin_ok]
        ok[lin_ok] = True

    disc = beta * beta - 4.0 * alpha * gamma
    quad_ok = ~linear & (disc >= 0.0)
    if quad_ok.any():
        a = alpha[quad_ok]
        b = beta[quad_ok]
        g = gamma[quad_ok]
        sq = np.sqrt(disc[quad_ok])
        q = np.where(b >= 0.0, -0.5 * (b + sq), -0.5 * (b - sq))
        with np.errstate(divide="ignore", invalid="ignore"):
            pos = np.where(b >= 0.0, g / q, q / a)
            neg = np.where(b >= 0.0, q / a, g / q)
        # q == 0 only when beta == 0 and disc == 0: double root at zero
        zero_q = q == 0.0
        pos[zero_q] = 0.0
        neg[zero_q] = 0.0
        t_pos[quad_ok] = pos
        t_neg[quad_ok] = neg
        ok[quad_ok] = True
    return ok, t_pos, t_neg


def loop_solve_batch_numpy(k1, k2, k3, phi, fixed_angle, branch):
    ok, t_pos, t_neg = half_angle_roots_numpy(k1, k2, k3, phi, fixed_angle)
    return ok, 2.0 * np.arctan(t_pos if branch > 0 else t_neg)


def _wrap_numpy(angles):
    """Elementwise ``_wrap_scalar``: the same fmod, so the same floats."""
    wrapped = np.fmod(angles + math.pi, _TWO_PI)
    return np.where(wrapped <= 0.0, wrapped + _TWO_PI, wrapped) - math.pi


def loop_sweep_continuity_numpy(k1, k2, k3, phi, fixed_angle, seed):
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
    ok, t_pos, t_neg = half_angle_roots_numpy(k1, k2, k3, phi, fixed_angle)
    pos = 2.0 * np.arctan(t_pos[ok])
    neg = 2.0 * np.arctan(t_neg[ok])

    def pos_nearer(prev):
        return np.abs(_wrap_numpy(pos - prev)) <= np.abs(_wrap_numpy(neg - prev))

    # the pick at each closing sample, given the pick before it; the first
    # one follows the seed either way
    after_pos = pos_nearer(np.concatenate(([seed], pos[:-1])))
    after_neg = pos_nearer(np.concatenate(([seed], neg[:-1])))
    constant = after_pos == after_neg
    flips = np.cumsum(after_neg & ~constant)
    last = np.maximum.accumulate(np.where(constant, np.arange(pos.size), 0))
    take_pos = after_pos[last] ^ ((flips - flips[last]) % 2 == 1)

    theta = np.full(ok.shape, np.nan)
    theta[ok] = np.where(take_pos, pos, neg)
    return ok, theta


def _wrap_scalar(angle):
    wrapped = math.fmod(angle + math.pi, _TWO_PI)
    if wrapped <= 0.0:
        wrapped += _TWO_PI
    return wrapped - math.pi


def libm(fn, *arrays):
    """``fn``, a scalar :mod:`math` function, applied elementwise.

    numpy's vectorized atan, atan2 and hypot may differ from libm in the
    last ulp.  Batch paths that must reproduce the scalar API's floats bit
    for bit apply those functions through here.
    """
    return np.fromiter(map(fn, *(np.asarray(a).tolist() for a in arrays)),
                       np.float64, count=len(arrays[0]))


def _residual_numpy(k1, k2, k3, phi, x, fixed_angle):
    return (
        k3
        + np.cos(phi)
        + k1 * np.cos(phi + x - fixed_angle)
        + k2 * np.cos(x - fixed_angle)
    )


def _select_root_py(roots, alpha_probe, alpha_tol, branch, ref):
    """Pick one residual root per the branch rule; returns NaN when none fit.

    The residual evaluated at pi equals the leading quadratic coefficient,
    so its sign decides whether the positive branch is the larger or the
    smaller root without ever forming the closed-form roots.
    """
    if not roots:
        return math.nan
    if branch == 0:
        best = roots[0]
        best_d = abs(_wrap_scalar(best - ref))
        for r in roots[1:]:
            d = abs(_wrap_scalar(r - ref))
            if d < best_d:
                best, best_d = r, d
        return best
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


def loop_bisect_batch_numpy(k1, k2, k3, phi, fixed_angle, branch, ref, n_scan):
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


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

_HAVE_NUMBA = False
if not _numpy_forced():
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:
        _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True)
    def _wrap_nb(angle):
        wrapped = (angle + math.pi) % _TWO_PI
        if wrapped == 0.0:
            wrapped = _TWO_PI
        return wrapped - math.pi

    @njit(cache=True)
    def _residual_nb(k1, k2, k3, phi, x, fixed_angle):
        return (
            k3
            + math.cos(phi)
            + k1 * math.cos(phi + x - fixed_angle)
            + k2 * math.cos(x - fixed_angle)
        )

    @njit(cache=True)
    def _roots_scalar_nb(k1, k2, k3, phi, fixed_angle):
        """(ok, theta_positive, theta_negative) of the half-angle quadratic."""
        a_lin = k1 * math.cos(phi - fixed_angle) + k2 * math.cos(fixed_angle)
        b_lin = -k1 * math.sin(phi - fixed_angle) + k2 * math.sin(fixed_angle)
        c_lin = k3 + math.cos(phi)
        alpha = c_lin - a_lin
        beta = 2.0 * b_lin
        gamma = c_lin + a_lin
        if alpha == 0.0:
            if beta == 0.0:
                return False, math.nan, math.nan
            theta = 2.0 * math.atan(-gamma / beta)
            return True, theta, theta
        disc = beta * beta - 4.0 * alpha * gamma
        if disc < 0.0:
            return False, math.nan, math.nan
        sq = math.sqrt(disc)
        if beta >= 0.0:
            q = -0.5 * (beta + sq)
            if q == 0.0:
                return True, 0.0, 0.0
            t_pos = gamma / q
            t_neg = q / alpha
        else:
            q = -0.5 * (beta - sq)
            t_pos = q / alpha
            t_neg = gamma / q
        return True, 2.0 * math.atan(t_pos), 2.0 * math.atan(t_neg)

    @njit(cache=True)
    def _loop_solve_batch_nb(k1, k2, k3, phi, fixed_angle, branch):
        n = phi.shape[0]
        ok = np.zeros(n, dtype=np.bool_)
        theta = np.full(n, np.nan)
        for i in range(n):
            good, t_pos, t_neg = _roots_scalar_nb(k1, k2, k3, phi[i], fixed_angle)
            if good:
                ok[i] = True
                theta[i] = t_pos if branch > 0 else t_neg
        return ok, theta

    @njit(cache=True)
    def _loop_sweep_continuity_nb(k1, k2, k3, phi, fixed_angle, seed):
        n = phi.shape[0]
        ok = np.zeros(n, dtype=np.bool_)
        theta = np.full(n, np.nan)
        prev = seed
        for i in range(n):
            good, t_pos, t_neg = _roots_scalar_nb(k1, k2, k3, phi[i], fixed_angle)
            if not good:
                continue
            ok[i] = True
            d_pos = abs(_wrap_nb(t_pos - prev))
            d_neg = abs(_wrap_nb(t_neg - prev))
            theta[i] = t_pos if d_pos <= d_neg else t_neg
            prev = theta[i]
        return ok, theta

    @njit(cache=True)
    def _loop_bisect_batch_nb(k1, k2, k3, phi, fixed_angle, branch, ref, n_scan):
        n = phi.shape[0]
        ok = np.zeros(n, dtype=np.bool_)
        theta = np.full(n, np.nan)
        alpha_tol = 1e-12 * (1.0 + abs(k1) + abs(k2) + abs(k3))
        step = _TWO_PI / n_scan
        roots = np.empty(8)
        for i in range(n):
            p = phi[i]
            nroots = 0
            x0 = -math.pi
            f0 = _residual_nb(k1, k2, k3, p, x0, fixed_angle)
            alpha_probe = 0.0
            if f0 == 0.0 and nroots < 8:
                roots[nroots] = x0
                nroots += 1
            for j in range(1, n_scan + 1):
                x1 = -math.pi + step * j if j < n_scan else math.pi
                f1 = _residual_nb(k1, k2, k3, p, x1, fixed_angle)
                if j == n_scan:
                    alpha_probe = f1
                if f1 == 0.0:
                    if nroots < 8:
                        roots[nroots] = x1
                        nroots += 1
                elif f0 != 0.0 and ((f0 < 0.0) != (f1 < 0.0)):
                    lo = x0
                    hi = x1
                    flo = f0
                    for _ in range(60):
                        mid = 0.5 * (lo + hi)
                        fm = _residual_nb(k1, k2, k3, p, mid, fixed_angle)
                        if fm == 0.0:
                            lo = mid
                            hi = mid
                            break
                        if (flo < 0.0) != (fm < 0.0):
                            hi = mid
                        else:
                            lo = mid
                            flo = fm
                    if nroots < 8:
                        roots[nroots] = 0.5 * (lo + hi)
                        nroots += 1
                x0 = x1
                f0 = f1
            if nroots == 0:
                continue
            # insertion sort (nroots is tiny)
            for a in range(1, nroots):
                key = roots[a]
                b = a - 1
                while b >= 0 and roots[b] > key:
                    roots[b + 1] = roots[b]
                    b -= 1
                roots[b + 1] = key
            # merge near-duplicates, including the -pi / pi seam
            m = 1
            for a in range(1, nroots):
                if roots[a] - roots[m - 1] > _ROOT_MERGE_TOL:
                    roots[m] = roots[a]
                    m += 1
            if m > 1 and _TWO_PI - (roots[m - 1] - roots[0]) < _ROOT_MERGE_TOL:
                m -= 1
            nroots = m

            if branch == 0:
                best = roots[0]
                best_d = abs(_wrap_nb(best - ref))
                for a in range(1, nroots):
                    d = abs(_wrap_nb(roots[a] - ref))
                    if d < best_d:
                        best = roots[a]
                        best_d = d
                theta[i] = best
                ok[i] = True
            elif abs(alpha_probe) <= alpha_tol:
                found = False
                best = math.nan
                for a in range(nroots):
                    r = roots[a]
                    if math.pi - abs(r) > _PI_ROOT_TOL:
                        if not found:
                            best = r
                            found = True
                        elif branch > 0 and r > best:
                            best = r
                        elif branch < 0 and r < best:
                            best = r
                if found:
                    theta[i] = best
                    ok[i] = True
            else:
                take_max = (alpha_probe > 0.0) == (branch > 0)
                theta[i] = roots[nroots - 1] if take_max else roots[0]
                ok[i] = True
        return ok, theta

    def loop_solve_batch_numba(k1, k2, k3, phi, fixed_angle, branch):
        phi = np.ascontiguousarray(phi, dtype=np.float64)
        return _loop_solve_batch_nb(
            float(k1), float(k2), float(k3), phi, float(fixed_angle), int(branch)
        )

    def loop_sweep_continuity_numba(k1, k2, k3, phi, fixed_angle, seed):
        phi = np.ascontiguousarray(phi, dtype=np.float64)
        return _loop_sweep_continuity_nb(
            float(k1), float(k2), float(k3), phi, float(fixed_angle), float(seed)
        )

    def loop_bisect_batch_numba(k1, k2, k3, phi, fixed_angle, branch, ref, n_scan):
        phi = np.ascontiguousarray(phi, dtype=np.float64)
        return _loop_bisect_batch_nb(
            float(k1), float(k2), float(k3), phi, float(fixed_angle),
            int(branch), float(ref), int(n_scan),
        )

else:
    loop_solve_batch_numba = None
    loop_sweep_continuity_numba = None
    loop_bisect_batch_numba = None


if _HAVE_NUMBA:
    ACTIVE_BACKEND = "numba"
    loop_solve_batch = loop_solve_batch_numba
    loop_sweep_continuity = loop_sweep_continuity_numba
    loop_bisect_batch = loop_bisect_batch_numba
else:
    ACTIVE_BACKEND = "numpy"
    loop_solve_batch = loop_solve_batch_numpy
    loop_sweep_continuity = loop_sweep_continuity_numpy
    loop_bisect_batch = loop_bisect_batch_numpy

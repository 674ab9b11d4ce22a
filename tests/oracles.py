"""Shared independent oracles and synthetic-data builders for the test suite."""

import math

import numpy as np

from satotate.angles import AngleSeries, FormMeta
from satotate.discrepancy import pi_of_x
from satotate.measure import ENDPOINT_COLLAR, cheb_u_table, st_cdf
from satotate.primes import primes_array


def brute_force_interval_discrepancy(u, eps=1e-13):
    """All-interval discrepancy by scanning endpoints in the point set +- eps."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    if n == 0:
        return 0.0
    cands = np.unique(np.clip(np.concatenate([u - eps, u, u + eps, [0.0, 1.0]]), 0.0, 1.0))
    lo = np.searchsorted(u, cands, side="left")
    hi = np.searchsorted(u, cands, side="right")
    counts = hi[None, :] - lo[:, None]
    lengths = cands[None, :] - cands[:, None]
    dev = np.abs(counts / n - lengths)
    dev[lengths < 0] = 0.0
    return float(dev.max())


def st_quantile_vec(u: np.ndarray, iters: int = 60) -> np.ndarray:
    """Vectorised inverse Sato-Tate CDF by plain bisection (test-side oracle)."""
    u = np.asarray(u, dtype=float)
    lo = np.zeros_like(u)
    hi = np.full_like(u, math.pi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = st_cdf(mid) < u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


_PRIME_POOL = primes_array(2, 400_000)


def synthetic_series(n: int, seed: int, level: int = 1) -> AngleSeries:
    """n angles drawn i.i.d. from the Sato-Tate measure, on the first n primes."""
    rng = np.random.default_rng(seed)
    ps = _PRIME_POOL[:n]
    thetas = st_quantile_vec(rng.uniform(0.0, 1.0, n))
    meta = FormMeta(f"sim{seed}", 2, level)
    return AngleSeries(meta, int(ps[-1]), ps, thetas)


def same_points(a: AngleSeries, b: AngleSeries) -> bool:
    """True when the two series hold the same (p, theta_p) points, bit for bit."""
    return np.array_equal(a.primes, b.primes) and np.array_equal(a.thetas, b.thetas)


def st_quantile_scalar(u: float) -> float:
    """The scalar safeguarded Newton that the array st_quantile must match bit for bit.

    Kept verbatim on the test side, CDF included: math.sin for the derivative
    and numpy's sin inside F(theta) = (theta - sin(2 theta) / 2) / pi.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError("u must lie in [0, 1]")
    if u == 0.0:
        return 0.0
    if u == 1.0:
        return math.pi
    lo, hi = 0.0, math.pi
    theta = math.pi * u
    for _ in range(200):
        f = float((theta - np.sin(2.0 * theta) / 2.0) / math.pi) - u
        if f > 0:
            hi = theta
        elif f < 0:
            lo = theta
        else:
            return theta
        deriv = (2.0 / math.pi) * math.sin(theta) ** 2
        if deriv > 0:
            step = theta - f / deriv
        else:
            step = 0.5 * (lo + hi)
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        if abs(step - theta) < 1e-15:
            theta = step
            break
        theta = step
    return theta


# -- the analysis layer before it shared arrays per (series, x) ------------------
# Kept verbatim (range checks aside) so the one-pass code can be held to them bit for bit.


def common_good_intersect1d(series1: AngleSeries, series2: AngleSeries, x: int):
    """(primes, thetas1, thetas2) over primes <= x good for both forms."""
    p1, t1 = series1.upto(x)
    p2, t2 = series2.upto(x)
    common, i1, i2 = np.intersect1d(p1, p2, assume_unique=True, return_indices=True)
    return common, t1[i1], t2[i2]


def cheb_sum_bound_table(series: AngleSeries, x: int, M: int, c_et1: float = 4.0) -> float:
    """cheb_sum_bound by the whole (M+1) x n recurrence table."""
    if M < 3:
        raise ValueError("M must be >= 3")
    _, thetas = series.upto(x)
    table = cheb_u_table(M, thetas)
    sums = np.abs(table[1:].sum(axis=1))
    ms = np.arange(1, M + 1)
    return c_et1 * (pi_of_x(series, x) / M + float(np.sum(sums / ms)))


def cheb_sum_bound_2d_intersect1d(series1, series2, x: int, M: int, c_et2: float = 4.0) -> float:
    """cheb_sum_bound_2d of the intersect1d join of two series up to x, with pi(x) from series1."""
    if M < 3:
        raise ValueError("M must be >= 3")
    _, t1, t2 = common_good_intersect1d(series1, series2, x)
    u1 = cheb_u_table(M, t1)
    u2 = cheb_u_table(M, t2)
    cross = np.abs(u1 @ u2.T)  # (M+1, M+1); [m1, m2] = |sum_p U_m1 U_m2|
    weights = 1.0 / np.outer(np.arange(1, M + 2), np.arange(1, M + 2))
    total = float(np.sum(cross * weights) - cross[0, 0] * weights[0, 0])
    return float(c_et2 * (pi_of_x(series1, x) / M + total))


def joint_count_intersect1d(series1, series2, i1, i2, x: int) -> int:
    """joint_count of the intersect1d join of two series up to x, by explicit comparisons."""
    _, t1, t2 = common_good_intersect1d(series1, series2, x)
    in1 = (t1 >= i1.alpha) & (t1 <= i1.beta)
    in2 = (t2 >= i2.alpha) & (t2 <= i2.beta)
    return int(np.count_nonzero(in1 & in2))


def joint_box_discrepancy_loop(series1, series2, x: int, grid: int = 64) -> float:
    """joint_box_discrepancy of the intersect1d join of two series up to x, by the double loop over (i1, i2)."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    _, t1, t2 = common_good_intersect1d(series1, series2, x)
    n = t1.size
    if n == 0:
        return 0.0
    u = np.clip((st_cdf(t1) * grid).astype(np.int64), 0, grid - 1)
    v = np.clip((st_cdf(t2) * grid).astype(np.int64), 0, grid - 1)
    hist = np.zeros((grid, grid))
    np.add.at(hist, (u, v), 1.0)
    # prefix[i, j] = #points with u-bin < i, v-bin < j
    prefix = np.zeros((grid + 1, grid + 1))
    prefix[1:, 1:] = hist.cumsum(axis=0).cumsum(axis=1)
    edges = np.arange(grid + 1) / grid
    worst = 0.0
    for i1 in range(grid):
        for i2 in range(i1 + 1, grid + 1):
            row = prefix[i2] - prefix[i1]  # counts in u-range, cumulative in v
            counts = row[None, :] - row[:, None]  # [j1, j2]
            areas = (edges[i2] - edges[i1]) * (edges[None, :] - edges[:, None])
            dev = np.abs(counts / n - areas)
            worst = max(worst, float(np.max(np.triu(dev, k=1))))
    return worst


def erdos_turan_bound_copying(series: AngleSeries, x: int, M: int) -> float:
    """erdos_turan_bound of st_cdf of the series' angles up to x, with a fresh array per power (cur = cur * base)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    _, thetas = series.upto(x)
    n = thetas.size
    if n == 0:
        raise ValueError("series has no points up to x")
    base = np.exp(2j * math.pi * st_cdf(thetas))
    cur = np.ones_like(base)
    total = 0.0
    for m in range(1, M + 1):
        cur = cur * base
        total += abs(cur.sum()) / m
    return 1.0 / (M + 1) + (3.0 / n) * total


def _residual_from_terms(w: np.ndarray, logp: np.ndarray, x: int) -> float:
    lx = math.log(x)
    w_ld = w.astype(np.longdouble)
    logp_ld = logp.astype(np.longdouble)
    lhs = np.sum(w_ld)
    weighted = np.sum(w_ld * logp_ld)
    integral = np.sum(w_ld * logp_ld * (1.0 / logp_ld - np.longdouble(1.0) / np.longdouble(lx)))
    rhs = weighted / np.longdouble(lx) + integral
    return float(abs(lhs - rhs))


def cheb_u_masked(m: int, theta):
    """cheb_u as it was before ChebU: the endpoint split redone on every call."""
    theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
    if m == 0:
        return np.ones_like(theta_arr)
    out = np.empty_like(theta_arr)
    near_edge = (theta_arr < ENDPOINT_COLLAR) | (theta_arr > math.pi - ENDPOINT_COLLAR)
    interior = ~near_edge
    if np.any(interior):
        t = theta_arr[interior]
        out[interior] = np.sin((m + 1) * t) / np.sin(t)
    if np.any(near_edge):
        x = np.cos(theta_arr[near_edge])
        u_prev, u = np.ones_like(x), 2.0 * x
        for _ in range(m - 1):
            u_prev, u = u, 2.0 * x * u - u_prev
        out[near_edge] = u
    return out


def cheb_prime_sum_pair(series: AngleSeries, m: int, x: int) -> tuple[float, float, float]:
    """(sum_plain, sum_weighted, residual) by the two calls cheb-sums used to make.

    cheb_prime_sum and partial_summation_residual each evaluate U_m(cos theta_p)
    and log p on their own.
    """
    ps, thetas = series.upto(x)
    if ps.size == 0:
        plain, weighted = 0.0, 0.0
    else:
        u = cheb_u_masked(m, thetas)
        plain, weighted = float(np.sum(u)), float(np.sum(u * np.log(ps)))
    if x < 3:
        raise ValueError("x must be >= 3")
    if ps.size == 0:
        return plain, weighted, 0.0
    return plain, weighted, _residual_from_terms(cheb_u_masked(m, thetas), np.log(ps), x)


def theta_joint_whole(series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int) -> float:
    """theta_joint by one np.sum over the whole row of the intersect1d join."""
    ps, t1, t2 = common_good_intersect1d(series1, series2, x)
    if ps.size == 0:
        return 0.0
    return float(np.sum(cheb_u_masked(m1, t1) * cheb_u_masked(m2, t2) * np.log(ps)))


def partial_summation_residual_joint_whole(series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int):
    """partial_summation_residual_joint by long-double np.sums over the whole row of the intersect1d join."""
    if x < 3:
        raise ValueError("x must be >= 3")
    ps, t1, t2 = common_good_intersect1d(series1, series2, x)
    if ps.size == 0:
        return 0.0
    return _residual_from_terms(cheb_u_masked(m1, t1) * cheb_u_masked(m2, t2), np.log(ps), x)

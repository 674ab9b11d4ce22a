"""Empirical counts, exact discrepancies, and discrepancy-bound machinery.

Angle sets are pushed through the Sato-Tate CDF, which turns equidistribution
against mu_ST into equidistribution against the uniform measure on [0, 1];
all discrepancy work happens there.  "Exact discrepancy" always means the
supremum over all closed subintervals (including degenerate ones, so the
value is never below 1/n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

import numpy as np

from satotate.angles import AngleSeries, angle_from_ap, curve_meta
from satotate.curves import CurveSpec, _residues, ec_ap, ec_ap_array, lockstep_rows
from satotate.errors import DegenerateFit, SatotateError, SearchExceeded
from satotate.measure import Interval, check_m, cheb_u_rows, cheb_u_table, mu_st, pairwise_sums, st_cdf
from satotate.primes import PrimeRange, prime_count, prime_divisors, primes_in


def pi_of_x(series: AngleSeries, x: int) -> int:
    """pi(x) recovered from the series: good primes <= x plus ramified p <= x."""
    good, _ = series.upto(x)
    return int(good.size) + len(prime_divisors(series.meta.level_q, x))


def count_in_interval(thetas: np.ndarray, interval: Interval) -> int:
    """pi_{f,I}(x): how many of the angles thetas = series.upto(x)[1] lie in the closed interval."""
    return int(np.count_nonzero(interval.contains(thetas)))


def joint_count(t1: np.ndarray, t2: np.ndarray, i1: Interval, i2: Interval) -> int:
    """Joint count per the product indicator; t1, t2 are common_good's paired angles."""
    return int(np.count_nonzero(i1.contains(t1) & i2.contains(t2)))


# -- exact interval discrepancy -------------------------------------------------


def exact_discrepancy_1d(u: np.ndarray) -> float:
    """Exact sup over closed intervals [a,b] of |#{u_i in [a,b]}/n - (b-a)|, u = st_cdf(thetas).

    Sorted sweep: with g_i = i/n - u_(i) the overshoot side is
    max_{i<=j}(g_j - g_i) + 1/n (intervals pinched onto points), and with
    h_i = u_(i) - i/n plus sentinels u_0 = 0, u_{n+1} = 1 the undershoot side
    is max_{i<j}(h_j - h_i) + 1/n (open gaps between points).  O(n log n).
    """
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    if n == 0:
        return 0.0
    idx = np.arange(1, n + 1) / n
    g = idx - u
    over = float(np.max(g - np.minimum.accumulate(g))) + 1.0 / n
    h = np.concatenate(([0.0], u - idx, [-1.0 / n]))
    under = float(np.max(h - np.minimum.accumulate(h))) + 1.0 / n
    return max(over, under)


def erdos_turan_bound(u: np.ndarray, M: int) -> float:
    """One-dimensional Erdos-Turan bound for the CDF-transformed angles u = st_cdf(thetas).

    1/(M+1) + (3/n) sum_{m<=M} |S_m|/m with S_m = sum_p e(m u_p); dominates
    the exact all-interval discrepancy for every point set and every M >= 1.
    Each S_m is summed node by node (pairwise_sums), bit-identical to np.sum.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    n = u.size
    if n == 0:
        raise ValueError("series has no points up to x")

    def node(start: int, stop: int) -> tuple[np.ndarray]:
        base = np.exp(2j * math.pi * u[start:stop])
        # e(m u) = e(u)^m: one running product keeps memory at O(node) for any M;
        # the unit-modulus drift is ~M eps, far below every tolerance in play
        cur, sums = np.ones_like(base), np.empty(M, dtype=complex)
        for m in range(M):
            cur = cur * base
            sums[m] = cur.sum()
        return (sums,)

    total = 0.0
    for m, s in enumerate(pairwise_sums(n, node, unit=2)[0], 1):
        total += abs(s) / m
    return 1.0 / (M + 1) + (3.0 / n) * total


# -- Chebyshev-sum bound shapes ---------------------------------------------------

DEFAULT_ET_CONSTANT = 4.0


def check_constant(name: str, value: float) -> None:
    """Raise ValueError, naming name and value, unless value is a finite positive number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def cheb_sum_bound(thetas: np.ndarray, M: int, pi_x: int, c_et1: float = DEFAULT_ET_CONSTANT) -> float:
    """c * (pi(x)/M + sum_{m<=M} |sum_p U_m(cos theta_p)| / m), thetas = series.upto(x)[1].

    An absolute-count bound candidate; the hidden constant is configurable
    and reports record whether the candidate dominates the observed error
    rather than asserting it.  Each row is summed node by node (pairwise_sums).
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    check_constant("c_et1", c_et1)

    def node(start: int, stop: int) -> tuple[np.ndarray]:
        # U_1 .. U_M of the node, each summed as it is made, so no (M+1) x n table is held
        return (np.array([np.sum(row) for row in islice(cheb_u_rows(M, thetas[start:stop]), 1, None)]),)

    sums = np.abs(pairwise_sums(thetas.size, node)[0])
    return c_et1 * (pi_x / M + float(np.sum(sums / np.arange(1, M + 1))))


def cheb_sum_bound_2d(
    t1: np.ndarray, t2: np.ndarray, M: int, pi_x: int, c_et2: float = DEFAULT_ET_CONSTANT
) -> float:
    """Joint bound shape over pairs 0 <= m1, m2 <= M, (m1, m2) != (0, 0).

    c * (pi(x)/M + sum |sum_p U_{m1} U_{m2}| / ((m1+1)(m2+1))), the pair sum
    taken over common_good's paired angles t1, t2; marginal pairs (m, 0) and
    (0, m) are included, so M = 3 expands to 15 terms.
    """
    check_m(M, 3, "M")  # M <= M_MAX: it holds two (M + 1) x n tables
    check_constant("c_et2", c_et2)
    u1 = cheb_u_table(M, t1)
    u2 = cheb_u_table(M, t2)
    cross = np.abs(u1 @ u2.T)  # (M+1, M+1); [m1, m2] = |sum_p U_m1 U_m2|
    weights = 1.0 / np.outer(np.arange(1, M + 2), np.arange(1, M + 2))
    total = float(np.sum(cross * weights) - cross[0, 0] * weights[0, 0])
    return float(c_et2 * (pi_x / M + total))


# bounds joint --grid; the sweep is O(grid^3): 60 ms at 256 on 664k points, 2-core host
GRID_MAX = 256


def _check_grid(grid: int) -> None:
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid > GRID_MAX:
        raise ValueError(f"grid must be <= {GRID_MAX}")


def joint_box_discrepancy(t1: np.ndarray, t2: np.ndarray, grid: int = 64) -> float:
    """Sup over boxes with corners on a (grid+1)^2 lattice of |empirical - area|.

    t1, t2 are common_good's paired angles, CDF-transformed so that the product
    measure of a box is its area; lattice corners under-resolve the true sup by
    at most 2 * (2/G).  The box [i1/G, i2/G) x [j1/G, j2/G) has n G^2 (count/n -
    area) = r[j2] - r[j1], r[j] = G^2 #points([i1, i2) x [0, j)) - n (i2 - i1) j,
    so the worst box of the u-range [i1, i2) scores max(r) - min(r), an exact
    integer.  The float |count/n - area| is taken on the u-ranges of top score: its
    rounding stays below half the gap 1/(n G^2) between exact values while n G^2 < 2^48.
    """
    _check_grid(grid)
    n = t1.size
    if n == 0:
        return 0.0
    u = np.clip((st_cdf(t1) * grid).astype(np.int64), 0, grid - 1)
    v = np.clip((st_cdf(t2) * grid).astype(np.int64), 0, grid - 1)
    hist = np.bincount(u * grid + v, minlength=grid * grid).reshape(grid, grid)
    # prefix[i, j] = #points with u-bin < i, v-bin < j; r of [i1, i2) is scaled[i2] - scaled[i1]
    prefix = np.pad(hist.cumsum(axis=0).cumsum(axis=1), (1, 0))
    cols = np.arange(grid + 1)
    scaled = grid * grid * prefix - n * np.outer(cols, cols)
    score = np.full((grid, grid + 1), -1)  # [i1, i2] = max(r) - min(r); -1 where i2 <= i1
    for i1 in range(grid):
        score[i1, i1 + 1 :] = np.ptp(scaled[i1 + 1 :] - scaled[i1], axis=1)
    lo, hi = np.triu_indices(grid + 1, k=1)  # every j1 < j2
    edges = cols / grid
    widths = edges[hi] - edges[lo]
    worst = 0.0
    for i1, i2 in np.argwhere(score == score.max()):
        row = prefix[i2] - prefix[i1]  # counts in the u-range, cumulative in v
        worst = max(worst, float(np.max(np.abs((row[hi] - row[lo]) / n - (edges[i2] - edges[i1]) * widths))))
    return worst


# -- least prime with theta_p in I ------------------------------------------------

DEFAULT_SEARCH_CEILING = 10**7
DEFAULT_GRH_LEAST_PRIME_C = 100.0


@dataclass(frozen=True)
class LeastPrimeResult:
    p: int
    grh_ceiling: int


def grh_least_prime_ceiling(k: int, q: int, mu: float, c: float = DEFAULT_GRH_LEAST_PRIME_C) -> int:
    """ceil(c * mu^-4 * log(kq/mu)^2): the GRH-shape ceiling for comparison."""
    if mu <= 0:
        raise ValueError("interval must have positive measure")
    check_constant("c", c)
    bound = c * mu**-4 * math.log(k * q / mu) ** 2
    if not math.isfinite(bound):
        raise ValueError(f"the GRH-shape ceiling overflows a float at c = {c!r}")
    return math.ceil(bound)


# primes pulled from the stream per window test, doubling up to the cap,
# so a long scan's kept primes come in few large ec_ap_array blocks
_WINDOW_CHUNK, _WINDOW_CHUNK_CAP = 4096, 1 << 16


def _window_primes(curve: CurveSpec, interval: Interval, k: int, ceiling: int) -> Iterator[list[int]]:
    """The primes <= ceiling whose a_p can put theta_p in I, one list per chunk of primes_in.

    theta_p is a function of the integer a_p, and lies in [alpha, beta] only
    if a_p lies in B [cos beta, cos alpha], B = 2 p^((k-1)/2).  A prime is
    kept when that window, widened by 1e-9 B on each side (orders of
    magnitude above the float error of acos and cos), holds an integer, or
    when it divides the model's discriminant, so that a singular model still
    fails loudly at its first such prime.  Where 1e-9 B >= 1 every prime is kept.
    """
    stream = primes_in(PrimeRange(2, ceiling))
    disc = curve.discriminant()
    lo, hi = math.cos(interval.beta), math.cos(interval.alpha)
    size = _WINDOW_CHUNK
    while (chunk := np.fromiter(islice(stream, size), dtype=np.int64)).size:
        size = min(2 * size, _WINDOW_CHUNK_CAP)
        bound = 2.0 * chunk.astype(np.float64) ** ((k - 1) / 2)
        slack = 1e-9 * bound
        keep = np.floor(bound * hi + slack) >= np.ceil(bound * lo - slack)
        keep |= _residues(disc, chunk) == 0
        yield chunk[keep].tolist()


def least_prime_in_interval(
    source: "CurveSpec | AngleSeries",
    interval: Interval,
    ceiling: int = DEFAULT_SEARCH_CEILING,
    c: float = DEFAULT_GRH_LEAST_PRIME_C,
) -> LeastPrimeResult:
    """Smallest good prime with theta_p in I, plus the GRH bound-shape value.

    A CurveSpec source streams primes and computes a_p on demand, so no
    prebuilt series bounds the search; an AngleSeries source scans its
    cached points (and cannot see past its x_max).  The stream counts points
    only at primes whose Hasse window can reach I (see _window_primes): about
    sum_p min(1, 2 sqrt(p) sin(theta) |I|) of them, theta in I, so a short
    interval counts at a handful of primes up to a hit that thousands of
    good primes precede; primes dividing the discriminant are always
    counted.  The kept good primes of each chunk go to ec_ap_array in blocks
    that double from 64 primes up to lockstep_rows of the chunk's largest
    prime, and Interval.contains on angle_from_ap decides every hit, so the
    answer is the one a scan of every good prime gives.
    """
    mu = mu_st(interval)
    if mu <= 0.0:
        raise ValueError("interval must have positive Sato-Tate measure")
    meta = source.meta if isinstance(source, AngleSeries) else curve_meta(source)
    bound = grh_least_prime_ceiling(meta.weight_k, meta.level_q, mu, c)

    if isinstance(source, AngleSeries):
        limit = min(ceiling, source.x_max)
        ps, thetas = source.upto(limit)
        hits = np.flatnonzero(interval.contains(thetas))
        if hits.size == 0:
            raise SearchExceeded(f"no good prime <= {limit} with theta_p in I")
        return LeastPrimeResult(int(ps[hits[0]]), bound)

    curve = source
    bad = prime_divisors(meta.level_q, ceiling)
    size = 64
    for kept in _window_primes(curve, interval, meta.weight_k, ceiling):
        good = (p for p in kept if p not in bad)
        cap = lockstep_rows(kept[-1]) if kept else 1  # kept is increasing
        while block := list(islice(good, min(size, cap))):
            try:
                thetas = angle_from_ap(ec_ap_array(curve, block), block, meta.weight_k).tolist()
            except SatotateError:
                # recount one prime at a time, so an error past the hit stays unseen
                thetas = (angle_from_ap(float(ec_ap(curve, p)), p, meta.weight_k) for p in block)
            for p, theta in zip(block, thetas):
                if interval.contains(theta):
                    return LeastPrimeResult(p, bound)
            size = min(2 * size, cap)
    raise SearchExceeded(f"no good prime <= {ceiling} with theta_p in I")


# -- theoretical bound shapes and decay fits --------------------------------------


def theoretical_bound_curve(
    x: int, k: int, q: int, variant: str, c: float = 1.0, pi_x: int | None = None
) -> float:
    """Evaluate a named bound shape with a user constant.

    'unconditional-st1': c * pi(x) * log(kq log x) / sqrt(log x)
    'grh-thm13':         c * x^(3/4) * log(kq x) / log x
    The absolute constants are non-explicit, so c exists for empirical
    calibration only.
    """
    if x < 3:
        raise ValueError("x must be >= 3")
    check_constant("c", c)
    lx = math.log(x)
    if variant == "unconditional-st1":
        if pi_x is None:
            pi_x = prime_count(x)
        return c * pi_x * math.log(k * q * lx) / math.sqrt(lx)
    if variant == "grh-thm13":
        return c * x**0.75 * math.log(k * q * x) / lx
    raise ValueError(f"unknown variant {variant!r}")


def fit_decay_exponent(xs, errors) -> tuple[float, float]:
    """(slope, intercept) of log(error) against log(x), by least squares."""
    xs = np.asarray(xs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if xs.size != errors.size or xs.size < 3:
        raise DegenerateFit("need at least 3 samples")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(errors))):
        raise DegenerateFit("xs and errors must be finite")
    if np.any(xs <= 0):
        raise DegenerateFit("xs must be positive")
    if np.any(errors <= 0):
        raise DegenerateFit("errors must be positive")
    if np.any(np.diff(xs) <= 0):
        raise DegenerateFit("xs must be strictly increasing")
    (slope, intercept), _, rank, _, _ = np.polyfit(np.log(xs), np.log(errors), 1, full=True)
    if rank < 2:  # full=True hands back polyfit's rank instead of printing its RankWarning
        raise DegenerateFit("log(xs) are too close together to fit a line")
    return float(slope), float(intercept)


# -- reports -----------------------------------------------------------------------


@dataclass(frozen=True)
class DiscrepancyReport:
    x: int
    pi_x: int
    count: int
    expected: float
    error_abs: float
    exact_sup_discrepancy: float
    et_bound: float
    cheb_bound: float


@dataclass(frozen=True)
class JointReport:
    x: int
    pi_x: int
    joint_count: int
    expected: float
    error_abs: float
    box_discrepancy_grid: float
    cheb2_bound: float


def discrepancy_report(
    series: AngleSeries,
    interval: Interval,
    x: int,
    M: int = 50,
    c_et1: float = DEFAULT_ET_CONSTANT,
) -> DiscrepancyReport:
    check_m(M, 1, "M")  # before any column runs; M = 1 or 2 fails in cheb_sum_bound's column
    pi_x = pi_of_x(series, x)
    _, thetas = series.upto(x)  # shared by every column
    count = count_in_interval(thetas, interval)
    expected = mu_st(interval) * pi_x
    u = st_cdf(thetas)  # shared by the exact and the Erdos-Turan columns
    return DiscrepancyReport(
        x=x,
        pi_x=pi_x,
        count=count,
        expected=expected,
        error_abs=abs(count - expected),
        exact_sup_discrepancy=exact_discrepancy_1d(u),
        et_bound=erdos_turan_bound(u, M),
        cheb_bound=cheb_sum_bound(thetas, M, pi_x, c_et1),
    )


def joint_report(
    series1: AngleSeries,
    series2: AngleSeries,
    i1: Interval,
    i2: Interval,
    x: int,
    M: int = 10,
    grid: int = 64,
    c_et2: float = DEFAULT_ET_CONSTANT,
) -> JointReport:
    check_m(M, 3, "M")  # before any column runs
    _check_grid(grid)
    pi_x = pi_of_x(series1, x)
    t1, t2 = series1.common_good(series2, x)[1:]  # shared by every column; the primes are not kept
    jc = joint_count(t1, t2, i1, i2)
    expected = mu_st(i1) * mu_st(i2) * pi_x
    return JointReport(
        x=x,
        pi_x=pi_x,
        joint_count=jc,
        expected=expected,
        error_abs=abs(jc - expected),
        box_discrepancy_grid=joint_box_discrepancy(t1, t2, grid),
        cheb2_bound=cheb_sum_bound_2d(t1, t2, M, pi_x, c_et2),
    )

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
from satotate.curves import CurveSpec, _residues, ec_ap, ec_ap_array, lockstep_rows, split_map
from satotate.errors import DegenerateFit, SatotateError, SearchExceeded
from satotate.measure import Interval, check_m, cheb_u_rows, cheb_u_table, mu_st, st_cdf
from satotate.primes import PrimeRange, prime_count, prime_divisors, primes_in


def pi_of_x(series: AngleSeries, x: int) -> int:
    """pi(x) recovered from the series: good primes <= x plus ramified p <= x."""
    good, _ = series.upto(x)
    return int(good.size) + len(prime_divisors(series.meta.level_q, x))


def count_in_interval(series: AngleSeries, interval: Interval, x: int) -> int:
    """pi_{f,I}(x): good primes p <= x with theta_p in the closed interval."""
    _, thetas = series.upto(x)
    return int(np.count_nonzero(interval.contains(thetas)))


def _joint_count(t1: np.ndarray, t2: np.ndarray, i1: Interval, i2: Interval) -> int:
    return int(np.count_nonzero(i1.contains(t1) & i2.contains(t2)))


def joint_count(
    series1: AngleSeries, series2: AngleSeries, i1: Interval, i2: Interval, x: int
) -> int:
    """Joint count over primes good for both forms, per the product indicator."""
    _, t1, t2 = series1.common_good(series2, x)
    return _joint_count(t1, t2, i1, i2)


# -- exact interval discrepancy -------------------------------------------------


def uniform_interval_discrepancy(u: np.ndarray) -> float:
    """Exact sup over closed intervals [a,b] of |#{u_i in [a,b]}/n - (b-a)|.

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


def exact_discrepancy_1d(series: AngleSeries, x: int) -> float:
    """Exact all-interval discrepancy of {F_ST(theta_p) : p <= x} vs uniform."""
    _, thetas = series.upto(x)
    return uniform_interval_discrepancy(st_cdf(thetas))


def _erdos_turan(u: np.ndarray, M: int) -> float:
    if M < 1:
        raise ValueError("M must be >= 1")
    n = u.size
    if n == 0:
        raise ValueError("series has no points up to x")
    base = np.exp(2j * math.pi * u)
    # e(m u) = e(u)^m: one running product keeps memory at O(n) for any M;
    # the unit-modulus drift is ~M eps, far below every tolerance in play
    cur = np.ones_like(base)
    total = 0.0
    for m in range(1, M + 1):
        cur = cur * base
        total += abs(cur.sum()) / m
    return 1.0 / (M + 1) + (3.0 / n) * total


def erdos_turan_bound(series: AngleSeries, x: int, M: int) -> float:
    """One-dimensional Erdos-Turan bound for the CDF-transformed angles.

    1/(M+1) + (3/n) sum_{m<=M} |S_m|/m with S_m = sum_p e(m u_p); dominates
    the exact all-interval discrepancy for every point set and every M >= 1.
    """
    _, thetas = series.upto(x)
    return _erdos_turan(st_cdf(thetas), M)


# -- Chebyshev-sum bound shapes ---------------------------------------------------

DEFAULT_ET_CONSTANT = 4.0


def check_constant(name: str, value: float) -> None:
    """Raise ValueError, naming name and value, unless value is a finite positive number."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def cheb_sum_bound(
    series: AngleSeries,
    x: int,
    M: int,
    c_et1: float = DEFAULT_ET_CONSTANT,
) -> float:
    """c * (pi(x)/M + sum_{m<=M} |sum_p U_m(cos theta_p)| / m).

    An absolute-count bound candidate; the hidden constant is configurable
    and reports record whether the candidate dominates the observed error
    rather than asserting it.
    """
    if M < 3:
        raise ValueError("M must be >= 3")
    check_constant("c_et1", c_et1)
    _, thetas = series.upto(x)
    # U_1 .. U_M, each summed as it is made, so no (M+1) x n table is held
    sums = np.abs([np.sum(row) for row in islice(cheb_u_rows(M, thetas), 1, None)])
    ms = np.arange(1, M + 1)
    return c_et1 * (pi_of_x(series, x) / M + float(np.sum(sums / ms)))


def cheb_sum_bound_2d(
    series1: AngleSeries,
    series2: AngleSeries,
    x: int,
    M: int,
    c_et2: float = DEFAULT_ET_CONSTANT,
) -> float:
    """Joint bound shape over pairs 0 <= m1, m2 <= M, (m1, m2) != (0, 0).

    c * (pi(x)/M + sum |sum_p U_{m1} U_{m2}| / ((m1+1)(m2+1))), the pair sum
    taken over primes good for both forms; marginal pairs (m, 0) and (0, m)
    are included, so M = 3 expands to 15 terms.
    """
    _, t1, t2 = series1.common_good(series2, x)
    return _cheb2_bound(t1, t2, M, c_et2, pi_of_x(series1, x))


def _cheb2_bound(t1: np.ndarray, t2: np.ndarray, M: int, c_et2: float, pi_x: int) -> float:
    check_m(M, 3, "M")  # M <= M_MAX: it holds two (M + 1) x n tables
    check_constant("c_et2", c_et2)
    u1 = cheb_u_table(M, t1)
    u2 = cheb_u_table(M, t2)
    cross = np.abs(u1 @ u2.T)  # (M+1, M+1); [m1, m2] = |sum_p U_m1 U_m2|
    weights = 1.0 / np.outer(np.arange(1, M + 2), np.arange(1, M + 2))
    total = float(np.sum(cross * weights) - cross[0, 0] * weights[0, 0])
    return float(c_et2 * (pi_x / M + total))


def joint_box_discrepancy(
    series1: AngleSeries, series2: AngleSeries, x: int, grid: int = 64
) -> float:
    """Sup over boxes with corners on a (grid+1)^2 lattice of |empirical - area|.

    Coordinates are CDF-transformed, so the product measure of a box is its
    area.  Boxes are [i1/G, i2/G) x [j1/G, j2/G) via binned prefix sums; the
    restriction to lattice corners under-resolves the true sup by at most
    2 * (2/G) by continuity of the uniform measure.
    """
    _, t1, t2 = series1.common_good(series2, x)
    return _box_discrepancy(t1, t2, grid)


# elements per block of the box sweep: 8 MB per float64 temporary
_BOX_BLOCK = 1 << 20

# the sweep visits about grid^4 / 4 boxes: 10 s at 256 on a 2-core host
GRID_MAX = 256


def _check_grid(grid: int) -> None:
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid > GRID_MAX:
        raise ValueError(f"grid must be <= {GRID_MAX}")


def _box_discrepancy(t1: np.ndarray, t2: np.ndarray, grid: int) -> float:
    _check_grid(grid)
    n = t1.size
    if n == 0:
        return 0.0
    u = np.clip((st_cdf(t1) * grid).astype(np.int64), 0, grid - 1)
    v = np.clip((st_cdf(t2) * grid).astype(np.int64), 0, grid - 1)
    hist = np.bincount(u * grid + v, minlength=grid * grid).reshape(grid, grid)
    # prefix[i, j] = #points with u-bin < i, v-bin < j (exact integers)
    prefix = np.zeros((grid + 1, grid + 1))
    prefix[1:, 1:] = hist.cumsum(axis=0).cumsum(axis=1)
    edges = np.arange(grid + 1) / grid
    # every corner pair a < b of one axis; boxes are [i1, i2) x [j1, j2)
    lo, hi = np.triu_indices(grid + 1, k=1)
    widths = edges[hi] - edges[lo]
    step = max(1, _BOX_BLOCK // lo.size)
    worst = 0.0
    for s in range(0, lo.size, step):
        block = slice(s, s + step)
        rows = prefix[hi[block]] - prefix[lo[block]]  # counts in the u-range, cumulative in v
        counts = rows[:, hi] - rows[:, lo]  # [u-range, (j1, j2)]
        areas = widths[block, None] * widths[None, :]
        worst = max(worst, float(np.max(np.abs(counts / n - areas))))
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
    slope, intercept = np.polyfit(np.log(xs), np.log(errors), 1)
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
    count = count_in_interval(series, interval, x)
    expected = mu_st(interval) * pi_x
    _, thetas = series.upto(x)
    u = st_cdf(thetas)  # shared by the exact and the Erdos-Turan columns
    # two shares, dealt round-robin: the Erdos-Turan column runs in a forked
    # worker, the other two in this process (cheb_sum_bound stays here, where
    # a caller's tracing of it sees it); errors come in column order
    exact, et, cheb = split_map(
        lambda column: column(),
        (
            lambda: uniform_interval_discrepancy(u),
            lambda: _erdos_turan(u, M),
            lambda: cheb_sum_bound(series, x, M, c_et1),
        ),
        cap=2,
    )
    return DiscrepancyReport(
        x=x,
        pi_x=pi_x,
        count=count,
        expected=expected,
        error_abs=abs(count - expected),
        exact_sup_discrepancy=exact,
        et_bound=et,
        cheb_bound=cheb,
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
    _, t1, t2 = series1.common_good(series2, x)  # shared by every column
    jc = _joint_count(t1, t2, i1, i2)
    expected = mu_st(i1) * mu_st(i2) * pi_x
    return JointReport(
        x=x,
        pi_x=pi_x,
        joint_count=jc,
        expected=expected,
        error_abs=abs(jc - expected),
        box_discrepancy_grid=_box_discrepancy(t1, t2, grid),
        cheb2_bound=_cheb2_bound(t1, t2, M, c_et2, pi_x),
    )

import itertools
import math
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satotate.angles import AngleSeries, FormMeta
from satotate.curves import CURVE_11A1, CURVE_32A, CURVE_37A1
from satotate.discrepancy import (
    _window_primes,
    cheb_sum_bound,
    cheb_sum_bound_2d,
    count_in_interval,
    erdos_turan_bound,
    exact_discrepancy_1d,
    GRID_MAX,
    fit_decay_exponent,
    grh_least_prime_ceiling,
    joint_box_discrepancy,
    joint_count,
    joint_report,
    least_prime_in_interval,
    pi_of_x,
    theoretical_bound_curve,
)
from satotate.errors import DegenerateFit, RangeExceeded, SearchExceeded
from satotate.measure import Interval, cheb_u, mu_st, st_cdf, st_quantile
from satotate.primes import prime_divisors, primes_array

from oracles import (
    brute_force_interval_discrepancy,
    cheb_sum_bound_2d_intersect1d,
    synthetic_series,
)

HALF = Interval(0.0, math.pi / 2)
MIDDLE = Interval(math.pi / 4, 3 * math.pi / 4)


def toy_series(primes, thetas, level=1, x_max=None):
    meta = FormMeta("toy", 2, level)
    primes = np.asarray(primes, dtype=np.int64)
    return AngleSeries(meta, x_max or int(primes[-1]), primes, np.asarray(thetas, float))


# -- counting ---------------------------------------------------------------------


def test_count_full_interval(series_11a1_small):
    x = 10_000
    full = Interval(0.0, math.pi)
    assert count_in_interval(series_11a1_small.upto(x)[1], full) == pi_of_x(series_11a1_small, x) - 1


def test_count_spec_example_11a1():
    s = toy_series(
        [2, 3, 5, 7],
        [2.356194490192345, 1.8636379537468051, 1.3452829232971373, 1.9583930704960592],
        level=11,
        x_max=10,
    )
    assert count_in_interval(s.upto(10)[1], HALF) == 1  # only p = 5 has a_p >= 0


def test_count_degenerate_interval(series_11a1_small):
    assert count_in_interval(series_11a1_small.upto(10_000)[1], Interval(0.123, 0.123)) == 0


def test_count_range_exceeded(series_11a1_small):
    with pytest.raises(RangeExceeded):
        count_in_interval(series_11a1_small.upto(20_000)[1], HALF)


def test_upto_and_pi_of_x_range_exceeded(series_11a1_small):
    s = series_11a1_small
    assert pi_of_x(s, s.x_max) == len(s) + 1  # p = 11 is the one ramified prime
    with pytest.raises(RangeExceeded, match="exceeds series coverage"):
        s.upto(s.x_max + 1)
    with pytest.raises(RangeExceeded, match="exceeds series coverage"):
        pi_of_x(s, s.x_max + 1)


def test_count_complement(series_11a1_small):
    x = 10_000
    a = count_in_interval(series_11a1_small.upto(x)[1], Interval(0.0, 1.0))
    b = count_in_interval(series_11a1_small.upto(x)[1], Interval(np.nextafter(1.0, 2.0), math.pi))
    total = count_in_interval(series_11a1_small.upto(x)[1], Interval(0.0, math.pi))
    assert a + b == total  # no theta is exactly 1.0


def test_joint_count_full_is_common_good(series_11a1_small, series_37a1_small):
    x = 10_000
    full = Interval(0.0, math.pi)
    jc = joint_count(*series_11a1_small.common_good(series_37a1_small, x)[1:], full, full)
    assert jc == pi_of_x(series_11a1_small, x) - 2  # drop p=11 and p=37


def test_joint_count_brute_force(series_11a1_small, series_37a1_small):
    x = 100
    jc = joint_count(*series_11a1_small.common_good(series_37a1_small, x)[1:], HALF, HALF)
    # direct double-indicator loop
    t11 = {int(p): t for p, t in zip(*series_11a1_small.upto(x))}
    t37 = {int(p): t for p, t in zip(*series_37a1_small.upto(x))}
    manual = sum(
        1
        for p in t11
        if p in t37
        and HALF.alpha <= t11[p] <= HALF.beta
        and HALF.alpha <= t37[p] <= HALF.beta
    )
    assert jc == manual


def test_joint_marginal_reduction(series_11a1_small, series_37a1_small):
    x = 10_000
    full = Interval(0.0, math.pi)
    jc = joint_count(*series_11a1_small.common_good(series_37a1_small, x)[1:], HALF, full)
    p37 = set(series_37a1_small.upto(x)[0].tolist())
    ps, ts = series_11a1_small.upto(x)
    manual = sum(
        1 for p, t in zip(ps.tolist(), ts) if p in p37 and HALF.alpha <= t <= HALF.beta
    )
    assert jc == manual


# -- exact discrepancy --------------------------------------------------------------


def test_discrepancy_trivial_cases():
    assert exact_discrepancy_1d(np.array([])) == 0.0
    assert exact_discrepancy_1d(np.array([0.0])) == 1.0
    assert exact_discrepancy_1d(np.array([0.5])) == pytest.approx(1.0)


def test_discrepancy_midpoint_grid():
    # oracle-computed: a single-point interval already deviates by 1/n
    for n in (2, 5, 40):
        u = (np.arange(1, n + 1) - 0.5) / n
        expected = brute_force_interval_discrepancy(u)
        assert expected == pytest.approx(1.0 / n, abs=1e-12)
        assert exact_discrepancy_1d(u) == pytest.approx(expected, abs=1e-12)


def test_discrepancy_matches_brute_force_seeded():
    rng = np.random.default_rng(1234)
    for trial in range(50):
        n = int(rng.integers(1, 201))
        u = rng.uniform(0.0, 1.0, n)
        fast = exact_discrepancy_1d(u)
        slow = brute_force_interval_discrepancy(u)
        assert abs(fast - slow) <= 1e-12, (trial, n)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=60))
def test_discrepancy_matches_brute_force_property(us):
    u = np.array(us)
    assert exact_discrepancy_1d(u) == pytest.approx(
        brute_force_interval_discrepancy(u), abs=1e-12
    )


def test_exact_discrepancy_empty_series():
    s = toy_series([5], [1.0])
    assert exact_discrepancy_1d(st_cdf(s.upto(3)[1])) == 0.0


# -- Erdos-Turan domination ----------------------------------------------------------


def test_et_single_point():
    s = toy_series([2], [st_quantile(0.37)])
    bound = erdos_turan_bound(st_cdf(s.upto(2)[1]), 1)
    assert bound == pytest.approx(0.5 + 3.0, abs=1e-12)
    assert bound >= exact_discrepancy_1d(st_cdf(s.upto(2)[1]))


def test_et_equidistributed_grid():
    n = 128
    u = np.arange(1, n + 1) / n
    thetas = np.array([st_quantile(float(v)) for v in u])
    s = toy_series(primes_array(2, 10**4)[:n], thetas)
    bound = erdos_turan_bound(st_cdf(s.upto(int(s.primes[-1]))[1]), n - 1)
    exact = exact_discrepancy_1d(st_cdf(s.upto(int(s.primes[-1]))[1]))
    assert bound >= exact
    assert bound <= 10 * math.log(n) / n + 1.0 / n  # O(log n / n) scale


def test_et_domination_seeded_sets():
    rng = np.random.default_rng(99)
    for trial in range(100):
        n = int(rng.integers(1, 10_000))
        s = synthetic_series(min(n, 5000), int(rng.integers(2**31)))
        x = int(s.primes[-1])
        for M in (1, 10, 50):
            assert erdos_turan_bound(st_cdf(s.upto(x)[1]), M) >= exact_discrepancy_1d(st_cdf(s.upto(x)[1])), (trial, M)


def test_et_domination_real_series(series_11a1_small):
    x = 10_000
    for M in (5, 50, 200):
        assert erdos_turan_bound(st_cdf(series_11a1_small.upto(x)[1]), M) >= exact_discrepancy_1d(
            st_cdf(series_11a1_small.upto(x)[1])
        )


def test_et_incremental_update_consistency(series_11a1_small):
    """Recomputing at M+1 equals the M value plus the new term and the 1/(M+1) shift."""
    x = 10_000
    _, thetas = series_11a1_small.upto(x)
    u = st_cdf(thetas)
    n = u.size
    for M in (3, 17, 64):
        b_m = erdos_turan_bound(u, M)
        b_next = erdos_turan_bound(u, M + 1)
        s_new = abs(np.exp(2j * math.pi * (M + 1) * u).sum())
        manual = b_m - 1.0 / (M + 1) + 1.0 / (M + 2) + (3.0 / n) * s_new / (M + 1)
        assert b_next == pytest.approx(manual, abs=1e-12)


# -- Chebyshev-sum bound shapes --------------------------------------------------------


def test_cheb_bound_monte_carlo_domination():
    hits = 0
    for seed in range(100):
        s = synthetic_series(500, seed + 1)
        x = int(s.primes[-1])
        count = count_in_interval(s.upto(x)[1], MIDDLE)
        expected = mu_st(MIDDLE) * pi_of_x(s, x)
        bound = cheb_sum_bound(s.upto(x)[1], M=20, pi_x=pi_of_x(s, x), c_et1=4.0)
        if bound >= abs(count - expected):
            hits += 1
    assert hits >= 99


def test_cheb_bound_structure(series_11a1_small):
    # all Chebyshev sums zero -> bound reduces to c * pi(x) / M
    s = toy_series([2, 3, 5, 7], [st_quantile(0.2), st_quantile(0.4), st_quantile(0.6), st_quantile(0.8)])
    M = 2000
    bound = cheb_sum_bound(series_11a1_small.upto(10_000)[1], M=M, pi_x=pi_of_x(series_11a1_small, 10_000), c_et1=4.0)
    assert bound >= 4.0 * pi_of_x(series_11a1_small, 10_000) / M


def test_cheb_bound_2d_hand_expansion():
    s1 = toy_series([2, 3, 5], [0.4, 1.3, 2.2])
    s2 = toy_series([2, 3, 5], [2.8, 0.9, 1.7])
    M = 3
    c = 2.5
    got = cheb_sum_bound_2d(*s1.common_good(s2, 5)[1:], M, pi_of_x(s1, 5), c_et2=c)
    total = 0.0
    terms = 0
    for m1 in range(M + 1):
        for m2 in range(M + 1):
            if m1 == 0 and m2 == 0:
                continue
            terms += 1
            inner = sum(
                cheb_u(m1, t1) * cheb_u(m2, t2) for t1, t2 in zip(s1.thetas, s2.thetas)
            )
            total += abs(inner) / ((m1 + 1) * (m2 + 1))
    assert terms == 15
    expected = c * (pi_of_x(s1, 5) / M + total)
    assert got == pytest.approx(expected, rel=1e-12)


def test_cheb_bound_2d_real(series_11a1_small, series_37a1_small):
    val = cheb_sum_bound_2d(
        *series_11a1_small.common_good(series_37a1_small, 10_000)[1:], 10, pi_of_x(series_11a1_small, 10_000)
    )
    assert np.isfinite(val) and val > 0


# -- joint box discrepancy ---------------------------------------------------------------


def test_box_discrepancy_independent_pairs():
    rng = np.random.default_rng(5)
    n = 10_000
    ps = primes_array(2, 200_000)[:n]
    t1 = st_quantile(rng.uniform(0, 1, n))
    t2 = st_quantile(rng.uniform(0, 1, n))
    s1 = toy_series(ps, t1)
    s2 = toy_series(ps, t2)
    val = joint_box_discrepancy(*s1.common_good(s2, int(ps[-1]))[1:], grid=64)
    assert val <= 0.05


def test_box_discrepancy_dependent_control():
    s = synthetic_series(2000, 31)
    val = joint_box_discrepancy(*s.common_good(s, int(s.primes[-1]))[1:], grid=64)
    assert val >= 0.2


def test_box_discrepancy_empty():
    s1 = toy_series([2], [1.0], level=2)
    s2 = toy_series([3], [1.0], level=3)
    # no common good prime <= 3: series1 good primes exclude 2, series2 exclude 3
    assert joint_box_discrepancy(*s1.common_good(s2, 2)[1:], grid=8) == 0.0


def test_box_grid_above_grid_max_raises_before_the_sweep():
    s1, s2 = synthetic_series(500, 1), synthetic_series(500, 2)
    x = int(s1.primes[-1])
    for grid in (GRID_MAX + 1, 10**12):
        with pytest.raises(ValueError, match=f"^grid must be <= {GRID_MAX}$"):
            joint_box_discrepancy(*s1.common_good(s2, x)[1:], grid=grid)
        with pytest.raises(ValueError, match=f"^grid must be <= {GRID_MAX}$"):
            joint_report(s1, s2, HALF, HALF, x, grid=grid)


def test_cheb_bound_2d_takes_M_up_to_M_MAX():
    s1, s2 = synthetic_series(300, 1), synthetic_series(300, 2)
    x = int(s1.primes[-1])
    t1, t2, pi_x = *s1.common_good(s2, x)[1:], pi_of_x(s1, x)
    assert cheb_sum_bound_2d(t1, t2, 512, pi_x) == cheb_sum_bound_2d_intersect1d(s1, s2, x, 512)
    for M in (513, 600, 10**12):
        with pytest.raises(ValueError, match="^M must be <= 512$"):
            cheb_sum_bound_2d(t1, t2, M, pi_x)


# -- least prime -----------------------------------------------------------------------


def test_least_prime_11a1_half():
    res = least_prime_in_interval(CURVE_11A1, HALF)
    assert res.p == 5


def test_least_prime_full_interval():
    res = least_prime_in_interval(CURVE_11A1, Interval(0.0, math.pi))
    assert res.p == 2


def test_least_prime_series_scan(series_11a1_small):
    res = least_prime_in_interval(series_11a1_small, Interval(0.0, 0.3))
    # oracle: scan the cached series directly
    hits = [
        int(p)
        for p, t in zip(series_11a1_small.primes, series_11a1_small.thetas)
        if t <= 0.3
    ]
    assert res.p == hits[0]
    # streaming search from the curve agrees
    stream = least_prime_in_interval(CURVE_11A1, Interval(0.0, 0.3))
    assert stream.p == res.p


def test_least_prime_exceeds(series_11a1_small):
    tiny = Interval(0.0, 1e-3)
    with pytest.raises(SearchExceeded):
        least_prime_in_interval(series_11a1_small, tiny)


def oracle_intervals(series, rng, n):
    """(interval, ceiling) pairs: widths 1e-12 to pi, ends on cached angles (each side of the tie), at 0 and pi."""
    out = []
    while len(out) < n:
        ceiling = int(math.exp(rng.uniform(math.log(50), math.log(series.x_max))))
        width = math.exp(rng.uniform(math.log(1e-12), math.log(math.pi)))
        kind = rng.randrange(4)
        if kind == 0:
            lo = rng.uniform(0.0, math.pi - width)
            hi = lo + width
        elif kind == 1:  # an end exactly on theta_p (p inside) or one ulp past it (p outside)
            _, thetas = series.upto(ceiling)
            t = float(thetas[rng.randrange(thetas.size)])
            lo, hi = [(t, t + width), (t - width, t), (np.nextafter(t, 4.0), t + width),
                      (t - width, np.nextafter(t, -1.0))][rng.randrange(4)]
        elif kind == 2:
            lo, hi = 0.0, width
        else:
            lo, hi = math.pi - width, math.pi
        lo, hi = max(0.0, float(lo)), min(math.pi, float(hi))
        if lo <= hi and mu_st(Interval(lo, hi)) > 0:
            out.append((Interval(lo, hi), ceiling))
    return out


def least_prime_or_none(source, interval, ceiling):
    try:
        return least_prime_in_interval(source, interval, ceiling)
    except SearchExceeded:
        return None


@pytest.mark.parametrize(
    "fixture, curve",
    [("series_11a1_big", CURVE_11A1), ("series_37a1_big", CURVE_37A1), ("series_32a_medium", CURVE_32A)],
    ids=["11a1", "37a1", "32a"],
)
def test_least_prime_from_the_curve_equals_the_cached_series(fixture, curve, request):
    series = request.getfixturevalue(fixture)
    cases = oracle_intervals(series, random.Random(curve.conductor), 110)
    if curve is CURVE_32A:  # a_p = 0 at every supersingular p: theta_p = pi/2 exactly
        cases.append((Interval(math.pi / 2, math.pi / 2 + 1e-12), series.x_max))
    for interval, ceiling in cases:
        want = least_prime_or_none(series, interval, ceiling)
        assert least_prime_or_none(curve, interval, ceiling) == want, (interval, ceiling)
        # no prime with theta_p in I is ever skipped, hit or not
        ps, thetas = series.upto(ceiling)
        kept = set(itertools.chain.from_iterable(_window_primes(curve, interval, 2, ceiling)))
        assert kept.issuperset(ps[interval.contains(thetas)].tolist()), (interval, ceiling)


def test_grh_ceiling_formula():
    mu = 0.25
    assert grh_least_prime_ceiling(2, 11, mu, c=100.0) == math.ceil(
        100.0 * mu**-4 * math.log(2 * 11 / mu) ** 2
    )
    with pytest.raises(ValueError, match="overflows a float at c = 1e"):
        grh_least_prime_ceiling(2, 11, mu, c=1e306)


# -- theoretical curves and fits -----------------------------------------------------------


def test_theoretical_curves_formulas():
    x = int(math.e**4) + 1  # formula evaluation is exact in its inputs
    got = theoretical_bound_curve(x, 2, 11, "grh-thm13", c=1.0)
    assert got == pytest.approx(x**0.75 * math.log(22 * x) / math.log(x), rel=1e-15)
    got1 = theoretical_bound_curve(3, 2, 11, "unconditional-st1", c=1.0)
    assert got1 == pytest.approx(2 * math.log(22 * math.log(3)) / math.sqrt(math.log(3)), rel=1e-15)


def test_theoretical_curve_monotone_grh():
    for x in (10, 100, 10_000):
        assert theoretical_bound_curve(2 * x, 2, 11, "grh-thm13") > theoretical_bound_curve(
            x, 2, 11, "grh-thm13"
        )


def test_theoretical_curve_rejects():
    with pytest.raises(ValueError):
        theoretical_bound_curve(100, 2, 11, "unknown")
    with pytest.raises(ValueError):
        theoretical_bound_curve(2, 2, 11, "grh-thm13")


def test_fit_decay_exponent_exact_power():
    xs = np.array([1e3, 1e4, 1e5, 1e6])
    slope, intercept = fit_decay_exponent(xs, xs**-0.5)
    assert slope == pytest.approx(-0.5, abs=1e-12)
    slope0, _ = fit_decay_exponent(xs, np.full(4, 0.123))
    assert slope0 == pytest.approx(0.0, abs=1e-12)


def test_fit_degenerate():
    with pytest.raises(DegenerateFit):
        fit_decay_exponent([1.0, 2.0], [0.1, 0.2])
    with pytest.raises(DegenerateFit):
        fit_decay_exponent([1.0, 2.0, 3.0], [0.1, -0.2, 0.3])
    with pytest.raises(DegenerateFit):
        fit_decay_exponent([1.0, 3.0, 2.0], [0.1, 0.2, 0.3])
    for xs, errors in (([1.0, 2.0, 3.0], [0.1, np.inf, 0.3]), ([1.0, np.nan, 3.0], [0.1, 0.2, 0.3])):
        with pytest.raises(DegenerateFit, match="must be finite"):
            fit_decay_exponent(xs, errors)


def test_fit_rejects_non_positive_x():
    # log(x) of such an x is -inf or nan, which the least-squares solver fails on
    with pytest.raises(DegenerateFit, match="^xs must be positive$"):
        fit_decay_exponent([-1.0, 0.0, 1.0], [0.1, 0.2, 0.3])


@pytest.mark.parametrize("c", [math.nan, math.inf, -1.0, 0.0])
def test_library_constants_must_be_finite_and_positive(series_11a1_small, series_37a1_small, c):
    s1, s2 = series_11a1_small, series_37a1_small
    calls = [
        ("c_et1", lambda: cheb_sum_bound(s1.upto(1000)[1], 10, pi_of_x(s1, 1000), c_et1=c)),
        ("c_et2", lambda: cheb_sum_bound_2d(*s1.common_good(s2, 1000)[1:], 10, pi_of_x(s1, 1000), c_et2=c)),
        ("c", lambda: theoretical_bound_curve(1000, 2, 11, "grh-thm13", c=c)),
        ("c", lambda: grh_least_prime_ceiling(2, 11, 0.25, c=c)),
        ("c", lambda: least_prime_in_interval(s1, HALF, c=c)),
    ]
    for name, call in calls:
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got {c!r}$"):
            call()


def test_joint_report_fields(series_11a1_small, series_37a1_small):
    rep = joint_report(series_11a1_small, series_37a1_small, HALF, HALF, 10_000)
    d = asdict(rep)
    assert set(d) == {
        "x",
        "pi_x",
        "joint_count",
        "expected",
        "error_abs",
        "box_discrepancy_grid",
        "cheb2_bound",
    }
    assert rep.joint_count <= rep.pi_x


def test_pi_of_x_factors_each_level_once():
    series = synthetic_series(200, seed=3, level=7907 * 7919)
    xs = (1, 2, 100, series.x_max)
    before = prime_divisors.cache_info()
    counts = [pi_of_x(series, x) for x in xs + xs]
    after = prime_divisors.cache_info()
    # one trial division per (level, x): the second pass over xs hits the memo
    assert after.misses - before.misses <= len(xs) and after.hits - before.hits >= len(xs)
    assert counts == [0, 1, 25, 200] * 2  # both ramified primes lie above x_max = 1223

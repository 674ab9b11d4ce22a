"""The one-pass analysis code equals the code it replaced, bit for bit.

The replaced forms are kept in oracles.py.  Every comparison is == on the
float64 bytes (so -0.0 and 0.0 differ), never a tolerance.
"""

import math

import numpy as np
import pytest

import satotate.curves as curves_module
import satotate.measure as measure_module
from satotate.angles import AngleSeries, FormMeta, load_cache, save_cache
from satotate.cli import main, write_rows
from satotate.discrepancy import (
    cheb_sum_bound,
    cheb_sum_bound_2d,
    count_in_interval,
    discrepancy_report,
    erdos_turan_bound,
    exact_discrepancy_1d,
    joint_box_discrepancy,
    joint_count,
    joint_report,
    pi_of_x,
    theoretical_bound_curve,
)
from satotate.errors import RangeExceeded
from satotate.measure import ENDPOINT_COLLAR, ChebU, Interval, cheb_u, mu_st, st_cdf, st_quantile
from satotate.prime_sums import (
    cheb_prime_sum,
    cheb_sum_rows,
    partial_summation_residual,
    partial_summation_residual_joint,
    theta_joint,
)

from oracles import (
    cheb_prime_sum_pair,
    cheb_sum_bound_2d_intersect1d,
    cheb_sum_bound_table,
    cheb_u_masked,
    common_good_intersect1d,
    erdos_turan_bound_copying,
    joint_box_discrepancy_loop,
    joint_count_intersect1d,
    partial_summation_residual_joint_whole,
    synthetic_series,
    theta_joint_whole,
)

# angles inside the collar of 0 and of pi, on both sides of its edge
COLLAR_ANGLES = [0.0, 1e-9, 0.5 * ENDPOINT_COLLAR, ENDPOINT_COLLAR, 2 * ENDPOINT_COLLAR,
                 math.pi - 2 * ENDPOINT_COLLAR, math.pi - ENDPOINT_COLLAR,
                 math.pi - 0.5 * ENDPOINT_COLLAR, math.pi - 1e-9, math.pi]
HALF = Interval(0.0, math.pi / 2.0)
MIDDLE = Interval(math.pi / 4.0, 3.0 * math.pi / 4.0)


def same(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def with_collar(series: AngleSeries, level: int = 1) -> AngleSeries:
    """The series with COLLAR_ANGLES written over every 97th angle."""
    thetas = series.thetas.copy()
    spots = np.arange(3, thetas.size, 97)
    thetas[spots] = np.resize(COLLAR_ANGLES, spots.size)
    return AngleSeries(FormMeta("collar", 2, level), series.x_max, series.primes, thetas)


def subset(series: AngleSeries, keep: np.ndarray, level: int) -> AngleSeries:
    return AngleSeries(FormMeta("sub", 2, level), series.x_max, series.primes[keep], series.thetas[keep])


@pytest.fixture(scope="module")
def pairs():
    """(name, series1, series2) with identical, overlapping and disjoint prime sets."""
    a = with_collar(synthetic_series(3000, seed=11))
    b = synthetic_series(3000, seed=12)
    idx = np.arange(len(a))
    evens, odds = subset(a, idx % 2 == 0, 1), subset(b, idx % 2 == 1, 1)
    # level 77: 7 and 11 are bad primes of the second series, and pi(x) counts them
    thirds = subset(b, (idx % 3 != 0) & (b.primes != 7) & (b.primes != 11), 77)
    return [("identical", a, b), ("same-series", a, a), ("disjoint", evens, odds), ("overlap", a, thirds)]


# a prefix that is empty (x below the first prime), tiny, and the whole series
XS = (1, 2, 3, 12, 100, 27449)


@pytest.fixture(params=["one-node", "many-nodes"])
def nodes(request, monkeypatch):
    """Whole series in one node, or nodes of 128 elements (numpy's block) dealt to 2 CPUs."""
    if request.param == "many-nodes":
        monkeypatch.setattr(measure_module, "PAIRWISE_LEAF", 128)
        monkeypatch.setattr(curves_module.os, "sched_getaffinity", lambda pid: {0, 1})


def test_cheb_u_equals_masked_form():
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 5000), COLLAR_ANGLES])
    for m in (0, 1, 2, 3, 7, 50, 512):
        assert same(cheb_u(m, theta), cheb_u_masked(m, theta))
        assert same(ChebU(theta)(m), cheb_u_masked(m, theta))
        assert same(cheb_u(m, theta[:4000]), cheb_u_masked(m, theta[:4000]))  # no collar points
        assert same(cheb_u(m, np.empty(0)), cheb_u_masked(m, np.empty(0)))
        for t in COLLAR_ANGLES + [1.0]:
            assert same(cheb_u(m, t), cheb_u_masked(m, t)[0])


def test_cheb_sum_bound_equals_table_form(pairs, nodes):
    for _, series, _ in pairs:
        for x in XS:
            for M in (3, 4, 50):
                got = cheb_sum_bound(series.upto(x)[1], M, pi_of_x(series, x))
                assert same(got, cheb_sum_bound_table(series, x, M))
    assert cheb_sum_bound(pairs[2][1].upto(1)[1], 3, pi_of_x(pairs[2][1], 1)) == 0.0  # empty prefix, no ramified primes


def test_erdos_turan_bound_equals_copying_form(pairs, nodes):
    for _, series, _ in pairs:
        for x in XS[1:]:  # x = 1 has no points, which both reject
            if not len(series.upto(x)[0]):
                continue
            for M in (1, 2, 50):
                assert same(erdos_turan_bound(st_cdf(series.upto(x)[1]), M), erdos_turan_bound_copying(series, x, M))
    # one point, the smallest prefix that has a bound
    meta = FormMeta("one", 2, 1)
    for theta in pairs[0][1].thetas[:40]:
        one_point = AngleSeries(meta, 2, [2], [theta])
        assert same(erdos_turan_bound(st_cdf(one_point.upto(2)[1]), 50), erdos_turan_bound_copying(one_point, 2, 50))


def test_discrepancy_report_equals_column_calls(pairs):
    series = pairs[0][1]
    for x in (2, 100, 27449):
        rep = discrepancy_report(series, MIDDLE, x, M=20)
        assert same(rep.exact_sup_discrepancy, exact_discrepancy_1d(st_cdf(series.upto(x)[1])))
        assert same(rep.et_bound, erdos_turan_bound_copying(series, x, 20))
        assert same(rep.cheb_bound, cheb_sum_bound_table(series, x, 20))


def test_common_good_equals_intersect1d(pairs):
    for _, s1, s2 in pairs:
        for x in XS:
            new, old = s1.common_good(s2, x), common_good_intersect1d(s1, s2, x)
            for a, b in zip(new, old):
                assert a.dtype == b.dtype and np.array_equal(a, b)
    _, s1, s2 = pairs[2]
    assert s1.common_good(s2, s1.x_max)[0].size == 0
    with pytest.raises(RangeExceeded):
        s1.common_good(s2, s2.x_max + 1)


def test_joint_columns_equal_loop_forms(pairs):
    for _, s1, s2 in pairs:
        for x in XS:
            _, t1, t2 = s1.common_good(s2, x)
            for grid in (2, 3, 16, 64):
                assert same(joint_box_discrepancy(t1, t2, grid), joint_box_discrepancy_loop(s1, s2, x, grid))
            assert same(cheb_sum_bound_2d(t1, t2, 5, pi_of_x(s1, x)), cheb_sum_bound_2d_intersect1d(s1, s2, x, 5))
            assert joint_count(t1, t2, HALF, MIDDLE) == joint_count_intersect1d(s1, s2, HALF, MIDDLE, x)
            rep = joint_report(s1, s2, HALF, MIDDLE, x, M=4, grid=8)
            assert same(rep.box_discrepancy_grid, joint_box_discrepancy_loop(s1, s2, x, 8))
            assert same(rep.cheb2_bound, cheb_sum_bound_2d_intersect1d(s1, s2, x, 4))
            assert rep.joint_count == joint_count_intersect1d(s1, s2, HALF, MIDDLE, x)


def test_joint_box_discrepancy_equals_loop_form_where_maxima_tie():
    a, b = synthetic_series(2000, seed=13), synthetic_series(2000, seed=14)
    l1, l2 = (np.round(t * (6 / math.pi)) * (math.pi / 6) for t in (a.thetas, b.thetas))  # seven angles
    # one point per cell of the 7 x 7 grid, the first 49 primes: at grid 7 every box is exact and every u-range ties
    c7 = st_quantile((np.arange(7) + 0.5) / 7)
    cases = [  # (t1, t2, x)
        (a.thetas, a.thetas, a.x_max),
        (a.thetas, math.pi - a.thetas, a.x_max),
        (np.full(len(a), 1.0), np.full(len(a), 2.0), a.x_max),  # every point in one bin
        (a.thetas, b.thetas, 2),  # n = 1
        (a.thetas, b.thetas, 3),  # n = 2
        (l1, l2, a.x_max),
        (np.append(np.repeat(c7, 7), a.thetas[49:]), np.append(np.tile(c7, 7), b.thetas[49:]), int(a.primes[48])),
    ]
    for k, (t1, t2, x) in enumerate(cases):
        s1, s2 = (AngleSeries(FormMeta("tie", 2, 1), a.x_max, a.primes, t) for t in (t1, t2))
        for grid in (2, 3, 7, 100 if k % 2 else 128):  # the loop form takes about 1 s at 128
            got = joint_box_discrepancy(*s1.common_good(s2, x)[1:], grid)
            assert same(got, joint_box_discrepancy_loop(s1, s2, x, grid)), (k, grid)


def test_cheb_sum_rows_equal_two_call_pair(pairs, nodes):
    ms = range(0, 9)
    for _, series, _ in pairs:
        for x in XS[2:]:
            rows = cheb_sum_rows(series, ms, x)
            assert [r[0] for r in rows] == list(ms)
            for m, plain, weighted, residual in rows:
                assert same((plain, weighted, residual), cheb_prime_sum_pair(series, m, x))
                assert same((plain, weighted), cheb_prime_sum(series, m, x))
                assert same(residual, partial_summation_residual(series, m, x))
    late = pairs[0][1]
    late = AngleSeries(late.meta, late.x_max, late.primes[5:], late.thetas[5:])  # first prime 13
    assert cheb_sum_rows(late, ms, 12) == [(m, 0.0, 0.0, 0.0) for m in ms]  # empty prefix


def test_cheb_prime_sum_at_2_is_the_first_term(pairs):
    series = pairs[0][1]
    theta_2 = series.thetas[0]
    for m in (0, 1, 5, 512):
        u = cheb_u_masked(m, theta_2)[0]
        assert same(cheb_prime_sum(series, m, 2), (u, u * math.log(2)))  # x = 2 does not raise


def test_joint_sums_equal_whole_array_forms(pairs, nodes):
    for _, s1, s2 in pairs:
        for x in XS:
            for m1, m2 in ((0, 0), (3, 0), (1, 7), (20, 2)):
                assert same(theta_joint(s1, s2, m1, m2, x), theta_joint_whole(s1, s2, m1, m2, x))
                if x < 3:
                    with pytest.raises(ValueError, match="x must be >= 3"):
                        partial_summation_residual_joint(s1, s2, m1, m2, x)
                    continue
                got = partial_summation_residual_joint(s1, s2, m1, m2, x)
                assert same(got, partial_summation_residual_joint_whole(s1, s2, m1, m2, x))


def test_cheb_sum_rows_errors_match_two_call_pair(pairs):
    series = pairs[0][1]
    for x in (1, 2):  # empty and one-point prefixes, both below 3
        with pytest.raises(ValueError, match="x must be >= 3"):
            cheb_sum_rows(series, [0, 1], x)
        with pytest.raises(ValueError, match="x must be >= 3"):
            cheb_prime_sum_pair(series, 0, x)
    with pytest.raises(ValueError, match="m must be >= 0"):
        cheb_sum_rows(series, [-1, 0], 2)  # as cheb_prime_sum, the m check comes first
    with pytest.raises(RangeExceeded):
        cheb_sum_rows(series, [0], series.x_max + 1)


# -- the CLI, byte for byte --------------------------------------------------------


@pytest.fixture(scope="module")
def caches(tmp_path_factory):
    """Two simulate caches; the second is cut down to level 77 (no 7, no 11)."""
    work = tmp_path_factory.mktemp("one_pass")
    a, b = work / "a.stan", work / "b.stan"
    assert main(["simulate", "--seed", "3", "--xmax", "30000", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "4", "--xmax", "30000", "--out", str(b)]) == 0
    full = load_cache(b)
    keep = (full.primes % 7 != 0) & (full.primes % 11 != 0)
    save_cache(AngleSeries(FormMeta("b", 2, 77), full.x_max, full.primes[keep], full.thetas[keep]), b)
    return work, a, b


def written(path, rows, command) -> bytes:
    write_rows(rows, "csv", str(path), command)
    return path.read_bytes()


def test_cheb_sums_csv_bytes(caches):
    work, a, _ = caches
    out = work / "cheb.csv"
    assert main(["cheb-sums", "--cache", str(a), "--m-min", "0", "--m", "6", "--x", "100,5000,30000",
                 "--out", str(out)]) == 0
    series = load_cache(a)
    rows = [dict(zip(("m", "x", "sum_plain", "sum_weighted", "partial_summation_residual"),
                     (m, x, *cheb_prime_sum_pair(series, m, x))))
            for x in (100, 5000, 30000) for m in range(0, 7)]
    assert out.read_bytes() == written(work / "cheb_oracle.csv", rows, "cheb-sums")


def test_verify_csv_bytes(caches):
    work, _, b = caches
    out = work / "verify.csv"
    assert main(["verify", "--cache", str(b), "--interval", "middle", "--x", "100,5000,30000",
                 "--out", str(out)]) == 0
    series = load_cache(b)
    rows = []
    for x in (100, 5000, 30000):
        pi_x = pi_of_x(series, x)
        count = count_in_interval(series.upto(x)[1], MIDDLE)
        expected = mu_st(MIDDLE) * pi_x
        rows.append({
            "x": x, "pi_x": pi_x, "count": count, "expected": expected, "error_abs": abs(count - expected),
            "exact_sup_discrepancy": exact_discrepancy_1d(st_cdf(series.upto(x)[1])),
            "et_bound": erdos_turan_bound_copying(series, x, 50),
            "cheb_bound": cheb_sum_bound_table(series, x, 50),
            "st1_curve": theoretical_bound_curve(x, 2, 77, "unconditional-st1", 1.0, pi_x=pi_x),
            "grh_curve": theoretical_bound_curve(x, 2, 77, "grh-thm13", 1.0),
        })
    assert out.read_bytes() == written(work / "verify_oracle.csv", rows, "verify")


def test_joint_csv_bytes(caches):
    work, a, b = caches
    out = work / "joint.csv"
    assert main(["joint", "--cache1", str(a), "--cache2", str(b), "--interval1", "half", "--interval2", "middle",
                 "--x", "100,5000,30000", "--out", str(out)]) == 0
    s1, s2 = load_cache(a), load_cache(b)
    rows = []
    for x in (100, 5000, 30000):
        pi_x = pi_of_x(s1, x)
        jc = joint_count_intersect1d(s1, s2, HALF, MIDDLE, x)
        expected = mu_st(HALF) * mu_st(MIDDLE) * pi_x
        rows.append({
            "x": x, "pi_x": pi_x, "joint_count": jc, "expected": expected, "error_abs": abs(jc - expected),
            "box_discrepancy_grid": joint_box_discrepancy_loop(s1, s2, x, 64),
            "cheb2_bound": cheb_sum_bound_2d_intersect1d(s1, s2, x, 10),
        })
    assert out.read_bytes() == written(work / "joint_oracle.csv", rows, "joint")

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from satotate.angles import AngleSeries, FormMeta
from satotate.errors import RangeExceeded
from satotate.prime_sums import (
    SmoothingWeight,
    cheb_prime_sum,
    partial_summation_residual,
    partial_summation_residual_joint,
    smoothed_psi,
    theta_fm,
    theta_joint,
    weight_laplace,
    weight_phi,
    weight_selfcheck,
)


from oracles import synthetic_series


def toy_series(primes, thetas, level=1, x_max=None):
    meta = FormMeta("toy", 2, level)
    primes = np.asarray(primes, dtype=np.int64)
    return AngleSeries(meta, x_max or int(primes[-1]), primes, np.asarray(thetas, float))


TOY = toy_series([2, 3], [math.pi / 2, math.pi / 3], x_max=3)


# -- plain and weighted sums ------------------------------------------------------


def test_theta_fm_m0_is_chebyshev_theta():
    s = synthetic_series(100, 3)
    x = int(s.primes[-1])
    assert theta_fm(s, 0, x) == pytest.approx(float(np.sum(np.log(s.primes))), rel=1e-12)


def test_theta_fm_toy_hand_value():
    # U_2(0) log 2 + U_2(1/2) log 3 = -log 2 + 0
    assert theta_fm(TOY, 2, 3) == pytest.approx(-math.log(2.0), abs=1e-12)


def test_theta_fm_range_exceeded():
    with pytest.raises(RangeExceeded):
        theta_fm(TOY, 0, 100)


def test_cheb_prime_sum_pair(series_11a1_small):
    plain, weighted = cheb_prime_sum(series_11a1_small, 0, 100)
    ps, _ = series_11a1_small.upto(100)
    assert plain == len(ps)
    assert weighted == pytest.approx(float(np.sum(np.log(ps))), rel=1e-12)


def test_theta_joint_reductions(series_11a1_small):
    x = 5000
    assert theta_joint(series_11a1_small, series_11a1_small, 3, 0, x) == pytest.approx(
        theta_fm(series_11a1_small, 3, x), rel=1e-12
    )
    assert theta_joint(series_11a1_small, series_11a1_small, 0, 0, x) == pytest.approx(
        theta_fm(series_11a1_small, 0, x), rel=1e-12
    )


def test_theta_joint_toy():
    s1 = toy_series([2, 3, 5], [0.3, 1.1, 2.0], x_max=5)
    s2 = toy_series([2, 3, 5], [2.5, 0.7, 1.4], x_max=5)
    manual = sum(
        (math.sin(2 * t1) / math.sin(t1)) * (math.sin(2 * t2) / math.sin(t2)) * math.log(p)
        for p, t1, t2 in zip([2, 3, 5], s1.thetas, s2.thetas)
    )
    assert theta_joint(s1, s2, 1, 1, 5) == pytest.approx(manual, rel=1e-12)


# -- partial summation identity ------------------------------------------------------


def test_partial_summation_trivial():
    assert partial_summation_residual(TOY, 0, 3) <= 1e-12
    empty = toy_series([5], [1.0], x_max=5)
    assert partial_summation_residual(empty, 4, 3) == 0.0


def test_partial_summation_small_series(series_11a1_small):
    for m in range(0, 21):
        for x in (1_000, 10_000):
            res = partial_summation_residual(series_11a1_small, m, x)
            lhs = abs(cheb_prime_sum(series_11a1_small, m, x)[0])
            assert res <= 1e-9 * (1.0 + lhs), (m, x, res)


def test_partial_summation_joint_small(series_11a1_small, series_37a1_small):
    for m1 in (0, 1, 7, 20):
        for m2 in (0, 3, 20):
            res = partial_summation_residual_joint(
                series_11a1_small, series_37a1_small, m1, m2, 10_000
            )
            assert res <= 1e-9 * (
                1.0
                + abs(
                    theta_joint(series_11a1_small, series_37a1_small, m1, m2, 10_000)
                )
            ), (m1, m2, res)


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=10_000),
    n=st.integers(min_value=2, max_value=300),
)
def test_partial_summation_random_series(m, seed, n):
    s = synthetic_series(n, seed)
    x = int(s.primes[-1])
    res = partial_summation_residual(s, m, x)
    assert res <= 1e-9 * (1.0 + abs(cheb_prime_sum(s, m, x)[0]))


# -- the smoothing weight ---------------------------------------------------------------


W_DEFAULT = SmoothingWeight(10**6, 4, 0.1)


def test_weight_parameters():
    w = W_DEFAULT
    assert w.A == pytest.approx(0.1 / (2 * 4 * math.log(1e6)), rel=1e-15)
    lo, hi = w.support
    assert lo == pytest.approx(0.5 - 0.1 / math.log(1e6), rel=1e-14)
    assert hi == pytest.approx(1.0 + 0.1 / math.log(1e6), rel=1e-14)
    with pytest.raises(ValueError):
        SmoothingWeight(10**6, 4, 0.3)
    with pytest.raises(ValueError):
        SmoothingWeight(10**6, 0, 0.1)
    with pytest.raises(ValueError):
        SmoothingWeight(2, 4, 0.1)


def test_weight_plateau_and_support_grid():
    """Plateau == 1 on [1/2, 1]; support inside [1/2 - eps/log x, 1 + eps/log x]."""
    w = W_DEFAULT
    lo, hi = w.support
    t = np.linspace(-0.5, 1.5, 100_001)
    vals = weight_phi(w, t)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    plateau = (t >= 0.5) & (t <= 1.0)
    assert np.all(vals[plateau] == 1.0)
    outside = (t < lo) | (t > hi)
    assert np.all(vals[outside] == 0.0)
    # sandwich: indicator[1/2,1] <= phi <= indicator[support]
    assert np.all(vals >= plateau.astype(float))
    assert np.all(vals <= ((t >= lo) & (t <= hi)).astype(float))


def test_weight_phi_scalar_matches_array():
    w = W_DEFAULT
    t = np.linspace(0.45, 1.05, 997)
    arr = weight_phi(w, t)
    for ti, vi in zip(t[::37], arr[::37]):
        v = weight_phi(w, float(ti))
        assert type(v) is float and v == vi  # one code path serves both, so bit for bit


def test_weight_phi_edge_values():
    w = W_DEFAULT
    assert weight_phi(w, 0.75) == 1.0
    assert weight_phi(w, 0.0) == 0.0
    lo, _ = w.support
    mid_edge = 0.5 * (lo + 0.5)
    v = weight_phi(w, mid_edge)
    assert 0.0 < v < 1.0
    # rising edge is monotone
    edge = np.linspace(lo, 0.5, 200)
    vals = weight_phi(w, edge)
    assert np.all(np.diff(vals) >= -1e-15)


def test_weight_laplace_at_zero():
    w = W_DEFAULT
    phi0 = weight_laplace(w, 0.0)
    assert phi0.imag == 0.0
    expect = 0.5 + w.eps / w.log_x
    assert abs(phi0.real - expect) <= 1e-12
    assert 0.5 < phi0.real < 0.75


def test_weight_laplace_vs_scipy_quadrature():
    w = W_DEFAULT
    lo, hi = w.support
    for z in (1.0, -1.0, 1j, -1j, 2 + 3j):
        z = complex(z)
        re, _ = quad(lambda t: weight_phi(w, t) * math.cos(z.imag * t) * math.exp(-z.real * t),
                     lo, hi, limit=200, epsabs=1e-12)
        im, _ = quad(lambda t: -weight_phi(w, t) * math.sin(z.imag * t) * math.exp(-z.real * t),
                     lo, hi, limit=200, epsabs=1e-12)
        closed = weight_laplace(w, z)
        assert abs(complex(re, im) - closed) <= 1e-8, z


def test_e_ratio_series_fallback_consistency():
    """Series and direct formula agree where both are accurate (near the switch)."""
    from satotate.prime_sums import _e_ratio

    for wv in (1.0001e-4, 1.2e-4, 5e-4, 1j * 1.1e-4, (1 + 1j) * 1e-4):
        direct = (cmath.exp(wv) - 1.0) / wv
        series = 1.0 + wv / 2 + wv**2 / 6 + wv**3 / 24 + wv**4 / 120
        assert abs(direct - series) <= 1e-11 * abs(direct)
        # the public entry point picks one of them; it must match both
        assert abs(_e_ratio(wv) - direct) <= 1e-11 * abs(direct)


def test_weight_property4_bounds():
    w = W_DEFAULT
    rng = np.random.default_rng(23)
    for _ in range(200):
        sigma = float(rng.uniform(0.005, 1.5))
        t = float(rng.uniform(-200.0, 200.0))
        s = complex(sigma, t)
        val = abs(weight_laplace(w, -s * w.log_x))
        assert val <= math.exp(sigma * w.eps) * w.x**sigma * (1 + 1e-12)


def test_weight_selfcheck_gate():
    w = W_DEFAULT
    assert weight_selfcheck(w, [0.0]) <= 1e-10
    assert weight_selfcheck(w, [1j]) <= 1e-8
    grid = [complex(a, b) for a in np.linspace(-5, 5, 5) for b in np.linspace(-5, 5, 5)]
    assert weight_selfcheck(w, grid) <= 1e-8


def test_weight_selfcheck_other_parameters():
    for x, ell, eps in ((10**4, 2, 0.2), (10**5, 6, 0.05), (10**7, 1, 0.12)):
        w = SmoothingWeight(x, ell, eps)
        grid = [0.0, 1.0, -1.0, 2j, complex(-3, 4)]
        assert weight_selfcheck(w, grid) <= 1e-8, (x, ell, eps)


def test_weight_property6_calibrated_bound_and_decay():
    """|Phi((1/4 - it) log x)| <= C (x^{-1/4}/log x)(2l/eps)^l (1/16+t^2)^{-l/2}."""
    w = W_DEFAULT
    shape_const = w.x**-0.25 / w.log_x * (2 * w.ell / w.eps) ** w.ell

    def ratio(t: float) -> float:
        s = complex(-0.25, t)
        val = abs(weight_laplace(w, -s * w.log_x))
        return val / (shape_const * (1.0 / 16.0 + t * t) ** (-w.ell / 2.0))

    coarse = np.linspace(0.0, 100.0, 2001)
    c_cal = max(ratio(float(t)) for t in coarse)
    assert np.isfinite(c_cal) and c_cal > 0
    fine = np.linspace(0.0, 100.0, 20_001)
    c_fine = max(ratio(float(t)) for t in fine)
    assert c_fine <= 1.5 * c_cal  # calibrated once, asserted across the grid

    # envelope decay exponent ~ -ell: window maxima of |Phi| * |s| log x vs t,
    # sampled well inside the asymptotic regime t >> ell/eps
    ts = np.logspace(3.0, 5.0, 6000)
    ys = np.array(
        [
            abs(weight_laplace(w, -complex(-0.25, t) * w.log_x)) * abs(complex(-0.25, t)) * w.log_x
            for t in ts
        ]
    )
    n_windows = 24
    env_t, env_y = [], []
    for block_t, block_y in zip(np.array_split(ts, n_windows), np.array_split(ys, n_windows)):
        i = int(np.argmax(block_y))
        env_t.append(block_t[i])
        env_y.append(block_y[i])
    slope = np.polyfit(np.log(env_t), np.log(env_y), 1)[0]
    assert abs(slope - (-w.ell)) <= 0.1, slope


def _irwin_hall_cdf_exact(y: Fraction, ell: int) -> Fraction:
    """P(U_1 + ... + U_ell <= y) in exact rationals, from the textbook alternating sum."""
    if y <= 0:
        return Fraction(0)
    if y >= ell:
        return Fraction(1)
    terms = ((-1) ** k * math.comb(ell, k) * (y - k) ** ell for k in range(math.floor(y) + 1))
    return sum(terms, Fraction(0)) / math.factorial(ell)


@pytest.mark.parametrize("ell", range(1, 15))
def test_weight_phi_matches_exact_rationals_on_both_edges(ell):
    for x, eps in ((10**6, 0.2), (3.0, 0.01)):
        w = SmoothingWeight(x, ell, eps)
        two_a = 2.0 * w.A
        a = 0.5 - w.ell * two_a  # the boxcar's left end, as weight_phi forms it in floats
        lo, hi = w.support
        ts = np.concatenate([np.linspace(lo, 0.5, 301), np.linspace(1.0, hi, 301)])
        for t, got in zip(ts.tolist(), weight_phi(w, ts).tolist()):
            t_q = Fraction(t)
            exact = _irwin_hall_cdf_exact((t_q - Fraction(a)) / Fraction(two_a), ell)
            exact -= _irwin_hall_cdf_exact((t_q - 1) / Fraction(two_a), ell)
            assert abs(got - float(exact)) <= 1e-9, (ell, x, eps, t)


@pytest.mark.parametrize("ell", [0, 15, 17, 170])
def test_smoothing_weight_rejects_ell_outside_1_to_14(ell):
    with pytest.raises(ValueError, match=rf"ell must lie in \[1, 14\], got ell = {ell}"):
        SmoothingWeight(10**6, ell, 0.1)


# -- smoothed psi ------------------------------------------------------------------------


def test_smoothed_psi_requires_coverage(series_11a1_small):
    with pytest.raises(RangeExceeded):
        smoothed_psi(series_11a1_small, 0, SmoothingWeight(10_000, 4, 0.1))


def test_smoothed_psi_lower_bound_by_plateau(series_11a1_small):
    """phi >= indicator of [1/2, 1], so psi_0 dominates the plateau Lambda-sum."""
    x = 9000
    w = SmoothingWeight(x, 4, 0.1)
    psi0 = smoothed_psi(series_11a1_small, 0, w)
    plateau = 0.0
    for p in series_11a1_small.primes.tolist():
        ell = 1
        while p**ell <= x:
            if math.sqrt(x) <= p**ell:
                plateau += math.log(p)
            ell += 1
    assert psi0 >= plateau - 1e-9


def test_smoothed_psi_pnt_small_scale(series_11a1_small):
    x = 9000
    w = SmoothingWeight(x, 4, 0.1)
    psi0 = smoothed_psi(series_11a1_small, 0, w)
    assert abs(psi0 - x) <= 3 * w.eps * x


def test_smoothed_psi_cancellation_small_scale(series_11a1_small):
    x = 9000
    w = SmoothingWeight(x, 4, 0.1)
    for m in (1, 2, 3):
        assert abs(smoothed_psi(series_11a1_small, m, w)) / x <= 0.10


def test_cancellation_trend_with_slack(series_11a1_big):
    """|theta_m|/x and |psi_m|/x trend downward over decades, within 2x slack."""
    xs = (10**4, 10**5, 10**6)
    for m in range(1, 7):
        tv = [abs(theta_fm(series_11a1_big, m, x)) / x for x in xs]
        pv = [
            abs(smoothed_psi(series_11a1_big, m, SmoothingWeight(x, 4, 0.1))) / x
            for x in xs
        ]
        for a, b in zip(tv, tv[1:]):
            assert b <= 2.0 * a + 1e-12, (m, tv)
        for a, b in zip(pv, pv[1:]):
            assert b <= 2.0 * a + 1e-12, (m, pv)


def test_smoothed_psi_prime_power_terms():
    # single tiny series: contributions enumerable by hand
    s = toy_series([2, 3], [1.0, 2.0], x_max=64)
    x = 36.0
    w = SmoothingWeight(x, 2, 0.2)
    manual = 0.0
    for p, theta in ((2, 1.0), (3, 2.0)):
        ell = 1
        while p**ell <= x * math.exp(w.eps):
            t = ell * math.log(p) / math.log(x)
            folded = abs(math.fmod(ell * theta + math.pi, 2 * math.pi) - math.pi)
            um = math.sin(3 * folded) / math.sin(folded)
            manual += weight_phi(w, t) * um * math.log(p)
            ell += 1
    assert smoothed_psi(s, 2, w) == pytest.approx(manual, rel=1e-12)

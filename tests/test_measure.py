import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from satotate.measure import (
    PAIRWISE_LEAF,
    Interval,
    check_x,
    cheb_inner_product,
    cheb_u,
    cheb_u_table,
    mu_st,
    pairwise_sums,
    st_cdf,
    st_quantile,
)

from oracles import st_quantile_scalar


def mu_st_quadrature(interval: Interval) -> float:
    """Adaptive-quadrature oracle for the Sato-Tate mass."""
    val, _ = quad(lambda t: (2.0 / math.pi) * math.sin(t) ** 2, interval.alpha, interval.beta,
                  epsabs=1e-14, epsrel=1e-14)
    return val


def test_mu_st_closed_form_values():
    assert mu_st(Interval(0.0, math.pi)) == pytest.approx(1.0, abs=1e-15)
    assert mu_st(Interval(0.0, math.pi / 2)) == pytest.approx(0.5, abs=1e-15)
    # value recomputed with the quadrature oracle: 1/3 + sqrt(3)/(2 pi)
    third = Interval(math.pi / 3, 2 * math.pi / 3)
    assert mu_st(third) == pytest.approx(1 / 3 + math.sqrt(3) / (2 * math.pi), abs=1e-15)
    assert mu_st(third) == pytest.approx(mu_st_quadrature(third), abs=1e-13)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.filterwarnings("ignore:.*roundoff error.*")
def test_mu_st_vs_quadrature_random_intervals():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a, b = np.sort(rng.uniform(0.0, math.pi, 2))
        interval = Interval(float(a), float(b))
        assert abs(mu_st(interval) - mu_st_quadrature(interval)) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=3, max_size=3))
def test_mu_st_additivity(points):
    a, b, c = sorted(points)
    lhs = mu_st(Interval(a, b)) + mu_st(Interval(b, c))
    assert lhs == pytest.approx(mu_st(Interval(a, c)), abs=1e-14)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(1.0, 0.5)
    with pytest.raises(ValueError):
        Interval(-0.1, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.pi + 0.1)


def test_interval_contains_both_ends():
    iv = Interval(0.5, 2.0)
    assert iv.contains(0.5) and iv.contains(2.0) and iv.contains(1.0)
    assert not iv.contains(np.nextafter(0.5, 0.0)) and not iv.contains(np.nextafter(2.0, 3.0))
    thetas = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, 1.0, 2.0, np.nextafter(2.0, 3.0), math.pi])
    assert iv.contains(thetas).tolist() == [False, False, True, True, True, False, False]
    point = Interval(1.0, 1.0)  # degenerate: holds its one point
    assert point.contains(1.0) and point.contains(np.array([1.0])).tolist() == [True]
    assert Interval(0.0, math.pi).contains(np.array([0.0, math.pi])).all()


def test_cheb_u_values():
    assert cheb_u(0, 1.234) == 1.0
    assert cheb_u(2, math.pi / 3) == pytest.approx(0.0, abs=1e-15)
    assert cheb_u(5, 0.0) == 6.0
    assert cheb_u(5, math.pi) == -6.0
    assert cheb_u(1, math.pi / 2) == pytest.approx(0.0, abs=1e-15)


def test_cheb_recurrence_matches_sine_ratio():
    thetas = np.linspace(1e-6, math.pi - 1e-6, 10_001)
    x2 = 2.0 * np.cos(thetas)
    u_prev = np.ones_like(thetas)
    u = x2.copy()
    for m in range(1, 65):
        direct = cheb_u(m, thetas)
        rel = np.abs(direct - u) / np.maximum(np.abs(u), 1.0)
        assert rel.max() < 1e-9, f"m={m}: {rel.max()}"
        u_prev, u = u, x2 * u - u_prev


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(min_value=0, max_value=64),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)
def test_cheb_u_bound(m, theta):
    assert abs(cheb_u(m, theta)) <= (m + 1) * (1 + 1e-12)


def test_cheb_u_table_consistent():
    thetas = np.linspace(0.0, math.pi, 257)
    table = cheb_u_table(20, thetas)
    for m in (0, 1, 7, 20):
        assert np.allclose(table[m], cheb_u(m, thetas), atol=1e-9, rtol=1e-9)


def test_st_cdf_values():
    assert float(st_cdf(math.pi / 2)) == pytest.approx(0.5, abs=1e-15)
    assert float(st_cdf(0.0)) == 0.0
    assert float(st_cdf(math.pi)) == pytest.approx(1.0, abs=1e-15)
    # oracle-recomputed: quad of the density over [0, 1]
    val, _ = quad(lambda t: (2.0 / math.pi) * math.sin(t) ** 2, 0.0, 1.0, epsabs=1e-14)
    assert float(st_cdf(1.0)) == pytest.approx(val, abs=1e-13)
    assert float(st_cdf(1.0)) == pytest.approx(0.1735907, abs=5e-8)


def test_st_quantile_endpoints():
    assert st_quantile(0.0) == 0.0
    assert st_quantile(1.0) == math.pi


def test_st_quantile_array_is_bit_identical_to_scalar_newton():
    # uniforms of seed 0 include quantiles where libm pow(s, 2.0) != s * s
    # changes the Newton path, so an np.sin(theta) ** 2 derivative fails here
    u = np.concatenate(
        [np.random.default_rng(0).uniform(0.0, 1.0, 200_000), [0.0, 1.0, 5e-324, 1 - 2**-53, 0.5]]
    )
    expected = np.array([st_quantile_scalar(v) for v in u.tolist()])
    got = st_quantile(u)
    assert got.dtype == np.float64 and got.shape == u.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    for v in (0.0, 1.0, 5e-324, 1 - 2**-53, 0.5):
        theta = st_quantile(v)
        assert type(theta) is float and theta == st_quantile_scalar(v)


def test_st_quantile_keeps_array_shape_and_rejects_out_of_range():
    u = np.array([[0.25, 0.5], [0.75, 1.0]])
    assert st_quantile(u).shape == (2, 2)
    assert st_quantile(np.empty(0)).shape == (0,)
    for bad in (-0.1, 1.5, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(ValueError):
            st_quantile(bad)


def test_quantile_inverts_cdf():
    rng = np.random.default_rng(11)
    for u in rng.uniform(0.0, 1.0, 1000):
        assert abs(float(st_cdf(st_quantile(float(u)))) - u) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_quantile_inversion_property(u):
    theta = st_quantile(u)
    assert 0.0 <= theta <= math.pi
    assert abs(float(st_cdf(theta)) - u) <= 1e-10


def test_orthonormality():
    for m in range(0, 31):
        for n in range(m, 31):
            expected = 1.0 if m == n else 0.0
            assert abs(cheb_inner_product(m, n) - expected) <= 1e-10, (m, n)


def test_inner_product_rejects_large_indices():
    with pytest.raises(ValueError):
        cheb_inner_product(65, 0)


def same_bits(a, b) -> bool:
    """a and b are the same number, sign of zero included, for float64, long double and complex128 alike."""
    parts = (lambda v: (v.real, v.imag)) if np.iscomplexobj(a) else (lambda v: (v,))
    return all(x == y and np.signbit(x) == np.signbit(y) for x, y in zip(parts(a), parts(b)))


def pairwise_data(kind: str, n: int, rng) -> np.ndarray:
    if kind == "cancelling":  # +-v pairs in random places, plus a little: the sum is all rounding
        v = rng.uniform(1.0, 2.0, (n + 1) // 2)
        return rng.permutation(np.concatenate([v, -v]))[:n] + 1e-17 * rng.standard_normal(n)
    if kind == "mixed":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    return np.where(rng.random(n) < 0.999, -0.0, 0.0)  # signed zeros, mostly -0.0


@pytest.mark.parametrize("kind", ["cancelling", "mixed", "zeros"])
def test_pairwise_sums_equal_np_sum_bit_for_bit(kind):
    # numpy's summation order, pinned: if numpy changes it, this fails before any output digest moves
    rng = np.random.default_rng(23)
    sizes = [0, 1, 7, 8, 9, 127, 128, 129, PAIRWISE_LEAF - 1, PAIRWISE_LEAF, PAIRWISE_LEAF + 1,
             2 * PAIRWISE_LEAF + 3, 664_579, *rng.integers(2, 300_000, 4).tolist()]
    for n in sizes:
        real = pairwise_data(kind, n, rng)
        cases = [(real, 1), (real.astype(np.longdouble), 1), (real + 1j * pairwise_data(kind, n, rng), 2)]
        for x, unit in cases:
            (got,) = pairwise_sums(n, lambda start, stop: (np.sum(x[start:stop]),), unit)
            assert same_bits(got, np.sum(x)), (kind, n, x.dtype)


@pytest.mark.parametrize("x", [2, 2.999, float("nan"), float("-inf")])
def test_check_x_refuses_x_below_3_and_nan(x):
    check_x(3)
    with pytest.raises(ValueError, match=r"^x must be >= 3$"):
        check_x(x)

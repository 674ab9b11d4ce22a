"""Weighted Chebyshev prime sums and the explicit smoothing weight.

The log-weighted sums theta_{f,m}(x) = sum_{p<=x, good} U_m(cos theta_p) log p
and their joint analogue are the raw material of every equidistribution
bound.  The smoothing weight phi(t; x, ell, eps) is a plateau on [1/2, 1]
with polynomial edges of width eps/log x: a boxcar convolved ell times with
a uniform density of width 2A, A = eps/(2 ell log x), so that its Laplace
transform has the closed product form used for the smoothed sums
psi(x) = sum phi(log n / log x) * Lambda(n)-type coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from satotate.angles import AngleSeries
from satotate.curves import split_map
from satotate.errors import RangeExceeded
from satotate.measure import ChebU, cheb_u, gauss_legendre_nodes

LONGDOUBLE = np.longdouble


def theta_fm(series: AngleSeries, m: int, x: int) -> float:
    """theta_{f,m}(x) = sum over good p <= x of U_m(cos theta_p) log p: cheb_prime_sum's weighted sum."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return cheb_prime_sum(series, m, x)[1]


def cheb_prime_sum(series: AngleSeries, m: int, x: int) -> tuple[float, float]:
    """(plain, weighted): sum of U_m(cos theta_p) and of U_m(cos theta_p) log p."""
    ps, thetas = series.upto(x)
    if ps.size == 0:
        return 0.0, 0.0
    u = cheb_u(m, thetas)
    return float(np.sum(u)), float(np.sum(u * np.log(ps)))


def theta_joint(series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int) -> float:
    """Joint weighted sum over primes good for both forms."""
    ps, t1, t2 = series1.common_good(series2, x)
    if ps.size == 0:
        return 0.0
    return float(np.sum(cheb_u(m1, t1) * cheb_u(m2, t2) * np.log(ps)))


def _residual_factors(logp: np.ndarray, x: int) -> tuple[np.ndarray, np.ndarray, LONGDOUBLE]:
    """(log p, 1/log p - 1/log x, log x) in extended precision: the w-free part of a residual."""
    lx = LONGDOUBLE(math.log(x))
    logp_ld = logp.astype(LONGDOUBLE)
    return logp_ld, 1.0 / logp_ld - LONGDOUBLE(1.0) / lx, lx


def _residual(w: np.ndarray, logp_ld: np.ndarray, factor: np.ndarray, lx: LONGDOUBLE) -> float:
    """|LHS - RHS| of the partial-summation identity for term weights w * log p.

    LHS is sum w_p; RHS routes through theta(x)/log x minus the integral of
    theta(t)/(t log^2 t), which the step structure of theta collapses to
    sum w_p log p (1/log p - 1/log x).  The two paths are algebraically
    identical, so the returned value is pure floating-point noise; sums are
    accumulated in extended precision to keep it far below 1e-9 relative.
    """
    w_ld = w.astype(LONGDOUBLE)
    lhs = np.sum(w_ld)
    # in place, in the order of the plain expressions: each of the rows that
    # cheb_sum_rows runs at once holds one long-double array, not three
    terms = np.multiply(w_ld, logp_ld, out=w_ld)
    rhs = np.sum(terms) / lx + np.sum(np.multiply(terms, factor, out=terms))
    return float(abs(lhs - rhs))


def partial_summation_residual(series: AngleSeries, m: int, x: int) -> float:
    """Residual of sum U_m = theta_{f,m}(x)/log x - int_2^x theta_{f,m}(t)/(t log^2 t) dt."""
    return cheb_sum_rows(series, [m], x)[0][3]


def cheb_sum_rows(series: AngleSeries, ms, x: int) -> list[tuple[int, float, float, float]]:
    """(m, sum_plain, sum_weighted, residual) for each m in ms, at one x.

    The sums of each row equal cheb_prime_sum(series, m, x) bit for bit;
    U_m is evaluated once per m, and log p, the sine-ratio split and the
    extended-precision factor 1/log p - 1/log x once per x.  The rows are
    shared among forked processes by split_map, so they do not depend on
    the CPU count.  x < 3 raises ValueError unless ms is empty.
    """
    ps, thetas = series.upto(x)
    if ps.size == 0:
        rows = [(m, 0.0, 0.0, 0.0) for m in ms]
        if rows and x < 3:
            raise ValueError("x must be >= 3")
        return rows
    cheb = ChebU(thetas)
    logp = np.log(ps)
    factors = _residual_factors(logp, x) if x >= 3 else None

    def row(m: int) -> tuple[int, float, float, float]:
        u = cheb(m)
        if factors is None:
            raise ValueError("x must be >= 3")
        return m, float(np.sum(u)), float(np.sum(u * logp)), _residual(u, *factors)

    return split_map(row, ms)


def partial_summation_residual_joint(
    series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int
) -> float:
    """Residual of the joint partial-summation identity."""
    if x < 3:
        raise ValueError("x must be >= 3")
    ps, t1, t2 = series1.common_good(series2, x)
    if ps.size == 0:
        return 0.0
    return _residual(cheb_u(m1, t1) * cheb_u(m2, t2), *_residual_factors(np.log(ps), x))


def _fold(angle):
    """angle reduced mod 2 pi into [0, pi], by the evenness of cos; scalar or array."""
    return np.abs(np.mod(angle + math.pi, 2.0 * math.pi) - math.pi)


# -- the smoothing weight ------------------------------------------------------

# weight_phi's alternating Irwin-Hall sum cancels terms of size up to about
# ell^ell / ell!; its error, against exact rationals, is 4e-10 at ell = 14,
# 2e-9 at 15, 5e-9 at 16 and over 0.06 at 30, so ell stops at 14
_MAX_ELL = 14


@dataclass(frozen=True)
class SmoothingWeight:
    """Parameters (x, ell, eps) of the plateau weight; A = eps/(2 ell log x)."""

    x: float
    ell: int
    eps: float

    def __post_init__(self) -> None:
        if self.x < 3:
            raise ValueError("x must be >= 3")
        if not 1 <= self.ell <= _MAX_ELL:
            raise ValueError(f"ell must lie in [1, {_MAX_ELL}], got ell = {self.ell}")
        if not 0.0 < self.eps < 0.25:
            raise ValueError("eps must lie in (0, 1/4)")

    @property
    def log_x(self) -> float:
        return math.log(self.x)

    @property
    def A(self) -> float:
        return self.eps / (2.0 * self.ell * self.log_x)

    @property
    def support(self) -> tuple[float, float]:
        half_width = self.eps / self.log_x
        return 0.5 - half_width, 1.0 + half_width


@lru_cache(maxsize=128)
def _irwin_hall_coeffs(ell: int) -> tuple[tuple[float, float], ...]:
    """((sign * C(ell,k) / ell!, k) for k = 0..ell); CDF pieces of sum of ell U[0,1]."""
    fact = math.factorial(ell)
    return tuple(((-1) ** k * math.comb(ell, k) / fact, float(k)) for k in range(ell + 1))


def weight_phi(w: SmoothingWeight, t):
    """phi(t): 1 on [1/2, 1], polynomial edges, 0 outside the support.

    Realised as the difference of two scaled Irwin-Hall CDFs, i.e. the boxcar
    1_[1/2 - eps/log x, 1] convolved with ell uniform densities of width 2A.
    The plateau and the complement of the support are returned exactly; the
    edge polynomials are clamped to [0, 1] against rounding noise.  ``t`` is
    a scalar (the result is a float) or an array; a scalar takes the array
    path on one element, so it equals the same point of an array call.
    """
    t_arr = np.asarray(t, dtype=float)
    t = np.atleast_1d(t_arr)
    two_a = 2.0 * w.A
    a = 0.5 - w.ell * two_a  # left end of the boxcar = 1/2 - eps/log x
    raw = _irwin_hall_cdf_array((t - a) / two_a, w.ell) - _irwin_hall_cdf_array(
        (t - 1.0) / two_a, w.ell
    )
    out = np.clip(raw, 0.0, 1.0)
    out[(t >= 0.5) & (t <= 1.0)] = 1.0
    lo, hi = w.support
    out[(t <= lo) | (t >= hi)] = 0.0
    return float(out[0]) if t_arr.ndim == 0 else out


def _irwin_hall_cdf_array(y: np.ndarray, ell: int) -> np.ndarray:
    """P(Y_1 + ... + Y_ell <= y) for iid uniform Y_i on [0, 1], elementwise."""
    out = np.zeros_like(y)
    out[y >= ell] = 1.0
    mid = (y > 0.0) & (y < ell)
    if np.any(mid):
        ym = y[mid]
        acc = np.zeros_like(ym)
        for coeff, k in _irwin_hall_coeffs(ell):
            acc += np.where(ym > k, coeff * np.maximum(ym - k, 0.0) ** ell, 0.0)
        out[mid] = acc
    return out


def _e_ratio(w: complex) -> complex:
    """(e^w - 1)/w, i.e. (1 - e^w)/(-w), with a series fallback for small |w|."""
    if abs(w) < 1e-4:
        return 1.0 + w / 2.0 + w * w / 6.0 + w * w * w / 24.0 + w * w * w * w / 120.0
    return (cmath.exp(w) - 1.0) / w


def weight_laplace(w: SmoothingWeight, z: complex) -> complex:
    """Phi(z) = int phi(t) e^(-zt) dt, entire, by the closed product form.

    Phi(0) = 1/2 + eps/log x exactly in the z -> 0 limit.
    """
    z = complex(z)
    two_la = 2.0 * w.ell * w.A
    plateau = 0.5 + two_la
    factor = plateau * _e_ratio(plateau * z)
    edges = _e_ratio(2.0 * w.A * z) ** w.ell
    return cmath.exp(-(1.0 + two_la) * z) * factor * edges


def _phi_breakpoints(w: SmoothingWeight) -> list[float]:
    two_a = 2.0 * w.A
    a = 0.5 - w.ell * two_a
    knots = [a + k * two_a for k in range(w.ell + 1)]  # rising edge
    knots += [1.0 + k * two_a for k in range(w.ell + 1)]  # falling edge
    return knots


def weight_laplace_quadrature(w: SmoothingWeight, z: complex) -> complex:
    """int phi(t) e^(-zt) dt by 40-node Gauss-Legendre on each polynomial piece of phi."""
    z = complex(z)
    pts = _phi_breakpoints(w)
    total = 0.0 + 0.0j
    for a, b in zip(pts[:-1], pts[1:]):
        if b <= a:
            continue
        xs, ws = gauss_legendre_nodes(40, a, b)
        phi_vals = weight_phi(w, xs)
        total += complex(np.sum(ws * phi_vals * np.exp(-z * xs)))
    return total


def weight_selfcheck(w: SmoothingWeight, zs) -> float:
    """max_z |quadrature(phi e^(-zt)) - Phi(z)|: the gate certifying phi vs Phi."""
    zs = list(zs)
    if not zs:
        raise ValueError("need at least one z")
    return max(abs(weight_laplace_quadrature(w, z) - weight_laplace(w, z)) for z in zs)


# -- smoothed prime-power sums ---------------------------------------------------


def smoothed_psi(series: AngleSeries, m: int, w: SmoothingWeight) -> float:
    """sum over good p, ell >= 1, p^ell <= x e^eps of phi(ell log p/log x) U_m(cos ell theta_p) log p.

    Requires series coverage up to x e^eps (the right edge of the support of
    phi); the left edge makes everything below sqrt(x) e^(-eps) vanish.
    """
    x = w.x
    upper = x * math.exp(w.eps)
    if series.x_max < upper:
        raise RangeExceeded(
            f"need series coverage to x e^eps = {upper:.0f}, have x_max = {series.x_max}"
        )
    log_x = w.log_x
    lower_t = w.support[0]
    total = 0.0
    max_ell = int(math.log(upper) / math.log(2.0)) + 1
    for ell in range(1, max_ell + 1):
        p_hi = upper ** (1.0 / ell)
        if p_hi < 2.0:
            break
        k = int(np.searchsorted(series.primes, math.floor(p_hi), side="right"))
        ps = series.primes[:k]
        thetas = series.thetas[:k]
        logp = np.log(ps)
        args = ell * logp / log_x
        mask = args >= lower_t  # phi vanishes below the support
        if not np.any(mask):
            continue
        args = args[mask]
        logp = logp[mask]
        folded = _fold(ell * thetas[mask])
        phi_vals = weight_phi(w, args)
        total += float(np.sum(phi_vals * cheb_u(m, folded) * logp))
    return total

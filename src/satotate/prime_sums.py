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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from satotate.angles import AngleSeries
from satotate.errors import RangeExceeded
from satotate.measure import ChebU, check_m, check_x, cheb_u, gauss_legendre_nodes, pairwise_sums

LONGDOUBLE = np.longdouble


def theta_fm(series: AngleSeries, m: int, x: int) -> float:
    """theta_{f,m}(x) = sum over good p <= x of U_m(cos theta_p) log p: cheb_prime_sum's weighted sum."""
    return cheb_prime_sum(series, m, x)[1]


def cheb_prime_sum(series: AngleSeries, m: int, x: int) -> tuple[float, float]:
    """(plain, weighted): sum of U_m(cos theta_p) and of U_m(cos theta_p) log p."""
    check_m(m)
    ps, thetas = series.upto(x)
    if ps.size == 0:
        return 0.0, 0.0
    return _sum_rows(ps, x, lambda start, stop: (cheb_u(m, thetas[start:stop]),))[0][:2]


def theta_joint(series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int) -> float:
    """Joint weighted sum over primes good for both forms."""
    return _joint_sums(series1, series2, m1, m2, x)[1]


def partial_summation_residual(series: AngleSeries, m: int, x: int) -> float:
    """Residual of sum U_m = theta_{f,m}(x)/log x - int_2^x theta_{f,m}(t)/(t log^2 t) dt."""
    return cheb_sum_rows(series, [m], x)[0][3]


def partial_summation_residual_joint(series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int) -> float:
    """Residual of the joint partial-summation identity."""
    check_x(x)
    return _joint_sums(series1, series2, m1, m2, x)[2]


def cheb_sum_rows(series: AngleSeries, ms, x: int) -> list[tuple[int, float, float, float]]:
    """(m, sum_plain, sum_weighted, residual) for each m in ms, at one x.

    One _sum_rows pass per x: each node builds one ChebU of its slice and
    yields U_m one m at a time.  Every m is checked, then x, before the series is read.
    """
    ms = list(ms)
    for m in ms:
        check_m(m)
    check_x(x)
    ps, thetas = series.upto(x)
    if ps.size == 0:
        return [(m, 0.0, 0.0, 0.0) for m in ms]
    sums = _sum_rows(ps, x, lambda start, stop: map(ChebU(thetas[start:stop]), ms))
    return [(m, *row) for m, row in zip(ms, sums)]


def _joint_sums(series1: AngleSeries, series2: AngleSeries, m1: int, m2: int, x: int) -> tuple:
    """_sum_rows of the one row U_m1(cos theta_p) U_m2(cos theta_p), an angle of each form, at common good p."""
    check_m(m1)
    check_m(m2)
    ps, t1, t2 = series1.common_good(series2, x)
    if ps.size == 0:
        return 0.0, 0.0, 0.0
    return _sum_rows(ps, x, lambda start, stop: (cheb_u(m1, t1[start:stop]) * cheb_u(m2, t2[start:stop]),))[0]


def _sum_rows(ps: np.ndarray, x: int, rows) -> list[tuple[float, float, float]]:
    """(sum u, sum u log p, residual) of each weight row u over the primes ps <= x: the prime sums' one pass.

    rows(start, stop) yields each row's u on the node ps[start:stop], one array at a time.  The
    residual is |LHS - RHS| of the partial-summation identity: LHS is sum u_p; RHS routes through
    theta(x)/log x minus the integral of theta(t)/(t log^2 t), which the step structure of theta
    collapses to sum u_p log p (1/log p - 1/log x).  The two paths are algebraically identical, so the
    residual is pure floating-point noise; its three sums are taken in extended precision to keep it
    far below 1e-9 relative.  log p, its long-double copy and 1/log p - 1/log x are made once per call.
    Every sum is taken node by node (pairwise_sums), the nodes in forked processes (map_nodes), so it
    equals np.sum over the whole row bit for bit on any CPU count.
    """
    logp = np.log(ps)
    lx = LONGDOUBLE(math.log(x))
    logp_ld = logp.astype(LONGDOUBLE)
    factor = 1.0 / logp_ld - LONGDOUBLE(1.0) / lx

    def node(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        plain, extended = [], []
        for u in rows(start, stop):
            plain.append((np.sum(u), np.sum(u * logp[start:stop])))
            w = u.astype(LONGDOUBLE)
            lhs = np.sum(w)
            # in place, in the order of the plain expressions: a row holds one long-double node, not three
            terms = np.multiply(w, logp_ld[start:stop], out=w)
            extended.append((lhs, np.sum(terms), np.sum(np.multiply(terms, factor[start:stop], out=terms))))
        return np.array(plain), np.array(extended, dtype=LONGDOUBLE)

    plain, extended = pairwise_sums(ps.size, node)
    return [(float(p), float(q), float(abs(lhs - (weighted / lx + integral))))
            for (p, q), (lhs, weighted, integral) in zip(plain, extended)]


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
        check_x(self.x)
        if not 1 <= self.ell <= _MAX_ELL:
            raise ValueError(f"ell must lie in [1, {_MAX_ELL}], got ell = {self.ell}")
        if not 0.0 < self.eps < 0.25:
            raise ValueError("eps must lie in (0, 1/4)")
        if 2.0 * self.A < sys.float_info.min:
            # weight_phi divides by the edge width 2A, which must stay a normal float
            raise ValueError(f"eps = {self.eps!r} is too small: the edge width eps / (ell log x) underflows")

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
    Each ell term is summed node by node (pairwise_sums), ell = 1's in forked processes.
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
        ps, thetas = series.upto(math.floor(p_hi))
        logp = np.log(ps)
        args = ell * logp / log_x
        mask = args >= lower_t  # phi vanishes below the support
        args, logp, thetas = args[mask], logp[mask], thetas[mask]

        def node(start: int, stop: int) -> tuple[np.float64]:
            phi_vals = weight_phi(w, args[start:stop])
            return (np.sum(phi_vals * cheb_u(m, _fold(ell * thetas[start:stop])) * logp[start:stop]),)

        total += float(pairwise_sums(args.size, node)[0])
    return total

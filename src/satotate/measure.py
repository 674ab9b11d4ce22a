"""Sato-Tate measure, Chebyshev-U evaluation, CDF/quantile, quadrature helpers.

The measure is d(mu) = (2/pi) sin^2(theta) d(theta) on [0, pi].  The
second-kind Chebyshev polynomials U_m(cos theta) = sin((m+1)theta)/sin(theta)
are an orthonormal family for it, which is what makes them the right test
functions for equidistribution sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from satotate.curves import split_map

M_MAX = 512

# pairwise_sums cuts numpy's summation tree at nodes of this many elements (at least numpy's block, 128)
PAIRWISE_LEAF = 1 << 15

# Within this distance of theta in {0, pi} the sine-ratio form loses digits,
# so evaluation switches to the three-term recurrence in x = cos(theta).
ENDPOINT_COLLAR = 1e-6


@dataclass(frozen=True)
class Interval:
    """Closed subinterval [alpha, beta] of [0, pi]."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= self.beta <= math.pi):
            raise ValueError(f"need 0 <= alpha <= beta <= pi, got [{self.alpha}, {self.beta}]")

    def contains(self, theta):
        """alpha <= theta <= beta, both ends included (the package's tie rule); scalar or array."""
        return (theta >= self.alpha) & (theta <= self.beta)


def mu_st(interval: Interval) -> float:
    """Sato-Tate mass of a closed interval, by the closed-form antiderivative."""
    a, b = interval.alpha, interval.beta
    return ((b - a) - (math.sin(2 * b) - math.sin(2 * a)) / 2.0) / math.pi


def st_cdf(theta):
    """F(theta) = mu_st([0, theta]); accepts scalars or numpy arrays."""
    return (theta - np.sin(2.0 * theta) / 2.0) / math.pi


def _half(n: int, unit: int) -> int:
    """Where np.sum splits a node of n elements of unit doubles (2 for complex128): half its doubles, down to 8."""
    return n * unit // 16 * 8 // unit


def pairwise_nodes(n: int, unit: int = 1) -> list[tuple[int, int]]:
    """(start, stop) of the nodes of numpy's pairwise tree over n elements of unit doubles, cut at PAIRWISE_LEAF."""
    if n <= PAIRWISE_LEAF:
        return [(0, n)]
    half = _half(n, unit)
    return pairwise_nodes(half, unit) + [(half + a, half + b) for a, b in pairwise_nodes(n - half, unit)]


def map_nodes(fn, n: int, unit: int = 1) -> list:
    """[fn(start, stop) for each of pairwise_nodes(n, unit)], dealt by split_map, two nodes a share at the least."""
    return split_map(lambda node: fn(*node), pairwise_nodes(n, unit))


def pairwise_sums(n: int, leaf, unit: int = 1) -> tuple:
    """The tuple of np.sum results that leaf(start, stop) takes on each node, the nodes added in np.sum's order.

    np.sum of a contiguous array adds the halves of each node split at _half, the split of pairwise_nodes,
    so each sum equals np.sum over all n elements bit for bit.
    """
    parts = iter(map_nodes(leaf, n, unit))

    def add(size: int) -> tuple:
        if size <= PAIRWISE_LEAF:
            return next(parts)
        half = _half(size, unit)
        return tuple(a + b for a, b in zip(add(half), add(size - half)))  # the left half's nodes come first

    return add(n)


def st_quantile(u):
    """Inverse CDF by safeguarded Newton iteration; scalar or array in, same out.

    F'(theta) = (2/pi) sin^2(theta) vanishes at the endpoints, so raw Newton
    can escape [0, pi]; every step is clipped back into a bisection bracket.
    All elements iterate in lockstep, and each takes exactly the steps of the
    scalar iteration: it returns theta when F(theta) = u exactly, stops once
    a step moves theta by less than 1e-15, and runs at most 200 steps.  The
    derivative is the scalar's math.sin(theta) ** 2.  Pass whole arrays: a
    scalar runs the same loop on one element, at about 0.5 ms a call.  Nodes
    of elements go to forked processes (map_nodes).
    """
    u = np.asarray(u, dtype=np.float64)
    if not ((u >= 0.0) & (u <= 1.0)).all():
        raise ValueError("u must lie in [0, 1]")
    flat = u.ravel()
    out = np.concatenate(map_nodes(lambda start, stop: _newton(flat[start:stop]), flat.size))
    return float(out[0]) if u.ndim == 0 else out.reshape(u.shape)


def _newton(flat: np.ndarray) -> np.ndarray:
    """st_quantile of a 1-D array of u in [0, 1], in this process."""
    out = np.where(flat == 1.0, math.pi, 0.0)
    live = np.flatnonzero((flat > 0.0) & (flat < 1.0))
    target = flat[live]
    lo, hi = np.zeros(live.size), np.full(live.size, math.pi)
    theta = math.pi * target  # decent start: uniform-measure guess
    for _ in range(200):
        if not live.size:
            break
        f = st_cdf(theta) - target
        hi = np.where(f > 0, theta, hi)
        lo = np.where(f < 0, theta, lo)
        # libm sin and pow element by element, not np.sin(theta) ** 2: numpy's
        # square is s * s, and libm pow(s, 2.0) differs from it in the last bit
        # on some inputs, which moves a quantile by one ulp.
        sin2 = map(math.pow, map(math.sin, theta.tolist()), repeat(2.0))
        deriv = (2.0 / math.pi) * np.fromiter(sin2, np.float64, count=theta.size)
        mid = 0.5 * (lo + hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(deriv > 0, theta - f / deriv, mid)
        step = np.where((lo < step) & (step < hi), step, mid)
        exact = f == 0
        done = exact | (np.abs(step - theta) < 1e-15)
        out[live[done]] = np.where(exact, theta, step)[done]
        keep = ~done
        live, target, lo, hi, theta = live[keep], target[keep], lo[keep], hi[keep], step[keep]
    out[live] = theta
    return out


def check_m(m: int, least: int = 0, name: str = "m") -> None:
    """Raise ValueError unless least <= m <= M_MAX: the one range check of a Chebyshev index or order."""
    if m < least:
        raise ValueError(f"{name} must be >= {least}")
    if m > M_MAX:
        raise ValueError(f"{name} must be <= {M_MAX}")


class ChebU:
    """U_m(cos theta) for one theta array and any m, sharing the per-theta work.

    The ENDPOINT_COLLAR split and sin(theta) on the interior are computed
    once; each call then costs one sine per interior point (plus the
    cheb_u_rows recurrence in the collar).  ``ChebU(theta)(m)`` equals
    ``cheb_u(m, theta)`` bit for bit.
    """

    def __init__(self, theta) -> None:
        theta = np.asarray(theta, dtype=float)
        self._shape = theta.shape
        self._near_edge = (theta < ENDPOINT_COLLAR) | (theta > math.pi - ENDPOINT_COLLAR)
        self._all_interior = not self._near_edge.any()
        self._interior = ~self._near_edge
        self._t = theta if self._all_interior else theta[self._interior]
        self._sin_t = np.sin(self._t)
        self._edge = theta[self._near_edge]

    def __call__(self, m: int) -> np.ndarray:
        check_m(m)
        if m == 0:
            return np.ones(self._shape)
        inner = np.sin((m + 1) * self._t) / self._sin_t
        if self._all_interior:
            return inner
        out = np.empty(self._shape)
        out[self._interior] = inner
        *_, u_m = cheb_u_rows(m, self._edge)  # the last row is U_m
        out[self._near_edge] = u_m
        return out


def cheb_u(m: int, theta):
    """U_m(cos theta) for theta in [0, pi]; scalar or array.

    Uses the sine-ratio form except within ENDPOINT_COLLAR of the endpoints,
    where the recurrence (with exact limit values U_m(+-1) = (+-1)^m (m+1))
    takes over.  For many m on one theta array, call a ChebU instead.
    """
    theta_arr = np.asarray(theta, dtype=float)
    flat = np.atleast_1d(theta_arr)
    out = np.ones_like(flat) if m == 0 else ChebU(flat)(m)
    return float(out[0]) if theta_arr.ndim == 0 else out


def cheb_u_table(m_max: int, theta: np.ndarray) -> np.ndarray:
    """Rows U_0(cos theta) .. U_{m_max}(cos theta) for a fixed theta vector.

    The full recurrence is used: building the whole table row by row is both
    cheaper and smoother than m separate sine-ratio evaluations, and the
    recurrence is exact at the endpoints.
    """
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    theta = np.asarray(theta, dtype=float)
    table = np.empty((m_max + 1, theta.size))
    for m, row in enumerate(cheb_u_rows(m_max, theta)):
        table[m] = row
    return table


def cheb_u_rows(m_max: int, theta):
    """Yield U_0(cos theta) .. U_{m_max}(cos theta), one row at a time.

    The recurrence of cheb_u_table, keeping two rows: for callers that reduce
    each row and need no (m_max+1) x n table.
    """
    theta = np.asarray(theta, dtype=float)
    prev = np.ones(theta.shape)
    yield prev
    if m_max < 1:
        return
    x2 = 2.0 * np.cos(theta)
    cur = x2
    yield cur
    for _ in range(2, m_max + 1):
        prev, cur = cur, x2 * cur - prev
        yield cur


def gauss_legendre_nodes(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def cheb_inner_product(m: int, n: int) -> float:
    """<U_m, U_n> in L^2([0, pi], mu_ST) by Gauss-Legendre quadrature.

    The integrand is a trigonometric polynomial of degree m + n + 2, so
    4(m+n) + 16 nodes oversample it heavily; the result matches delta_{mn}
    to ~1e-14.
    """
    if not (0 <= m <= 64 and 0 <= n <= 64):
        raise ValueError("indices must lie in [0, 64]")
    nodes, weights = gauss_legendre_nodes(4 * (m + n) + 16, 0.0, math.pi)
    vals = cheb_u(m, nodes) * cheb_u(n, nodes) * (2.0 / math.pi) * np.sin(nodes) ** 2
    return float(np.dot(weights, vals))

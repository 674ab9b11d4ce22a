"""Shared independent oracles and synthetic-data builders for the test suite."""

import math

import numpy as np

from satotate.angles import AngleSeries, FormMeta
from satotate.measure import st_cdf
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
    meta = FormMeta(f"sim{seed}", 2, level, "file")
    return AngleSeries(meta, int(ps[-1]), ps, thetas)


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

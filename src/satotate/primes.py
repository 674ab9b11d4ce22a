"""Segmented sieve of Eratosthenes: prime streams and exact prime counts.

All downstream prime sums index over "p <= x", so this module is the single
source of primes, and it has one sieve.  Segments are odd-only boolean
bitmaps (one byte per odd number with numpy), sized to stay cache-resident;
1 MiB of bitmap covers 2^21 integers.  The base primes that strike them come
from the same sieve (Bays and Hudson, BIT 17, 1977).  The default desk-scale
ceiling is 10^8; nothing enforces it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

SEGMENT_BYTES = 1 << 20  # bitmap bytes per segment; the output does not depend on it


@dataclass(frozen=True)
class PrimeRange:
    """A closed request [lo, hi] for primes."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 2:
            raise ValueError("lo must be >= 2")
        if self.hi < self.lo:
            raise ValueError("hi must be >= lo")


def _prime_segments(rng: PrimeRange) -> Iterator[np.ndarray]:
    """The primes in [rng.lo, rng.hi] as increasing int64 arrays: 2, then one per odd segment.

    Each odd-only segment is struck by the odd primes up to the square root
    of its top.  Those base primes come from this same stream, up to
    isqrt(min(4 * top, rng.hi)), and are sieved again only when a segment's
    top passes the square of that limit; so a stream read up to p does
    O(sqrt p) base work whatever rng.hi is.
    """
    if rng.lo <= 2 <= rng.hi:
        yield np.array([2], dtype=np.int64)
    base, limit = np.empty(0, dtype=np.int64), 1  # the odd primes <= limit
    low = max(rng.lo, 3) | 1
    while low <= rng.hi:
        high = min(low + 2 * SEGMENT_BYTES - 2, rng.hi)  # inclusive; SEGMENT_BYTES odd numbers
        if math.isqrt(high) > limit:
            limit = math.isqrt(min(4 * high, rng.hi))
            base = primes_array(3, limit)
        mask = np.ones((high - low) // 2 + 1, dtype=bool)  # mask[i] flags low + 2i
        for p in base[: np.searchsorted(base, math.isqrt(high), side="right")].tolist():
            start = max(p * p, -(-low // p) * p)
            if start % 2 == 0:
                start += p
            mask[(start - low) // 2 :: p] = False
        yield low + 2 * np.flatnonzero(mask).astype(np.int64, copy=False)
        low += 2 * SEGMENT_BYTES


SLICE_PRIMES = 4096  # primes_in turns at most this many primes at a time into Python ints


def primes_in(rng: PrimeRange) -> Iterator[int]:
    """Stream the primes in [rng.lo, rng.hi] in increasing order.

    Each segment is handed out SLICE_PRIMES at a time, so a reader that
    stops early never pays for a whole segment of Python ints.
    """
    for seg in _prime_segments(rng):
        for start in range(0, seg.size, SLICE_PRIMES):
            yield from seg[start : start + SLICE_PRIMES].tolist()


def primes_array(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi] as one int64 array (bulk form of primes_in)."""
    if hi < 2 or hi < lo:
        return np.empty(0, dtype=np.int64)
    # the leading empty chunk fixes the dtype and covers a range with no primes, such as [4, 4]
    return np.concatenate([np.empty(0, dtype=np.int64), *_prime_segments(PrimeRange(max(lo, 2), hi))])


def prime_count(x: int) -> int:
    """pi(x) = #{p <= x}, by counting sieve segments (exact, not analytic)."""
    if x < 2:
        return 0
    return sum(seg.size for seg in _prime_segments(PrimeRange(2, x)))


@lru_cache(maxsize=256)
def prime_divisors(n: int, bound: int) -> tuple[int, ...]:
    """The primes p <= bound that divide n, in increasing order; 1 <= n < 2^64.

    This is the one bad-prime rule: the bad primes <= B of a form of level q
    are prime_divisors(q, B).  Trial division runs over the sieved primes up
    to min(bound, sqrt(n)), one segment at a time, and stops once the primes
    pass the square root of what is left of n; that rest is then 1 or one
    prime, which counts when it is <= bound.  Memoised per (n, bound).
    """
    found: list[int] = []
    rest = n
    limit = min(bound, math.isqrt(n))
    if limit >= 2:
        for seg in _prime_segments(PrimeRange(2, limit)):
            if seg[0] > math.isqrt(rest):
                break
            for p in seg[np.uint64(rest) % seg.astype(np.uint64) == 0].tolist():
                found.append(p)
                while rest % p == 0:
                    rest //= p
    if 1 < rest <= bound:
        found.append(rest)
    return tuple(found)

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satotate.primes as primes_module
from satotate.primes import PrimeRange, prime_count, prime_divisors, primes_array, primes_in


def is_prime_trial_division(n: int) -> bool:
    """Independent oracle: deterministic 6k+-1 trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    d = 5
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
        if n % d == 0:
            return False
        d += 4
    return True


def test_small_ranges():
    assert list(primes_in(PrimeRange(2, 10))) == [2, 3, 5, 7]
    assert list(primes_in(PrimeRange(14, 16))) == []
    assert list(primes_in(PrimeRange(2, 2))) == [2]
    assert list(primes_in(PrimeRange(3, 3))) == [3]


def test_prime_count_small_values():
    assert prime_count(0) == 0
    assert prime_count(1) == 0
    assert prime_count(2) == 1
    assert prime_count(100) == 25


def test_prime_count_against_oracle_spot_values():
    # oracle-recomputed milestones, frozen
    assert prime_count(10**4) == sum(1 for n in range(2, 10**4 + 1) if is_prime_trial_division(n))
    assert prime_count(10**6) == 78498


def test_full_agreement_with_trial_division_to_1e6():
    """Every x <= 1e6 agrees with the oracle iff the prime sets agree."""
    sieved = primes_array(2, 10**6)
    oracle = np.fromiter(
        (n for n in range(2, 10**6 + 1) if is_prime_trial_division(n)), dtype=np.int64
    )
    assert np.array_equal(sieved, oracle)


def test_stream_counts_match_prime_count_to_1e7():
    rng = np.random.default_rng(20240817)
    xs = np.sort(rng.integers(2, 10**7, size=100))
    running = iter(primes_in(PrimeRange(2, int(xs[-1]))))
    counts = []
    seen = 0
    p = next(running, None)
    for x in xs:
        while p is not None and p <= x:
            seen += 1
            p = next(running, None)
        counts.append(seen)
    for x, c in zip(xs, counts):
        assert c == prime_count(int(x))


@settings(max_examples=25, deadline=None)
@given(
    x=st.integers(min_value=10, max_value=50_000),
    cuts=st.lists(st.integers(min_value=3, max_value=49_999), max_size=4),
)
def test_split_ranges_concatenate(x, cuts):
    bounds = sorted({2, x + 1, *[c for c in cuts if c <= x]})
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pieces.extend(primes_in(PrimeRange(lo, hi - 1)))
    assert pieces == list(primes_in(PrimeRange(2, x)))


def test_segment_size_does_not_change_output(monkeypatch):
    full = primes_array(2, 300_000)
    monkeypatch.setattr(primes_module, "SEGMENT_BYTES", 1 << 10)
    tiny = primes_array(2, 300_000)
    assert np.array_equal(full, tiny)
    assert list(primes_in(PrimeRange(2, 300_000))) == full.tolist()
    assert prime_count(300_000) == full.size


def bitmap_primes(lo: int, hi: int) -> list[int]:
    """Oracle: the primes in [lo, hi] from one plain Eratosthenes bitmap over [0, hi]."""
    if hi < 2:
        return []
    is_prime = np.ones(hi + 1, dtype=bool)
    is_prime[:2] = False
    for n in range(2, math.isqrt(hi) + 1):
        if is_prime[n]:
            is_prime[n * n :: n] = False
    return [n for n in np.flatnonzero(is_prime).tolist() if n >= lo]


@pytest.mark.parametrize("segment_bytes", [7, 64, 1024])
def test_every_view_matches_a_bitmap_at_any_segment_size(monkeypatch, segment_bytes):
    monkeypatch.setattr(primes_module, "SEGMENT_BYTES", segment_bytes)
    span = 2 * segment_bytes  # integers per segment; segments start at 3, 3 + span, ...
    edges = [3 + j * span + d for j in (1, 2, 5) for d in (-2, -1, 0, 1)]
    squares = [9, 25, 49, 121, 169]
    ranges = [(2, 2), (3, 3), (4, 4), (2, 3), (8, 10), (14, 16), (24, 26), (2, 5000), (3, 4999), (4, 5000)]
    ranges += [(q, q) for q in squares + edges] + [(2, q) for q in squares + edges]
    ranges += [(q, r) for q in squares + edges for r in (q + 1, q + 2, q + span, 2 * q + 1)]
    ranges += [(q - 1, q + 1) for q in squares + edges]
    for lo, hi in ranges:
        want = bitmap_primes(lo, hi)
        got = primes_array(lo, hi)
        assert got.dtype == np.int64 and got.tolist() == want, (lo, hi)
        assert list(primes_in(PrimeRange(lo, hi))) == want, (lo, hi)
        if lo == 2:
            assert prime_count(hi) == len(want), hi


def test_a_stream_read_to_p_does_not_pay_for_its_upper_bound():
    # sieving base primes to sqrt(1e16) at once would take a 100 MB bitmap
    tracemalloc.start()
    try:
        stream = primes_in(PrimeRange(2, 10**16))
        first = [next(stream) for _ in range(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [2, 3, 5, 7, 11]
    assert peak < 10 * 2**20, peak


def test_a_stream_read_to_p_does_not_turn_its_segment_into_python_ints():
    # the first segment holds about 155k primes: 6 MB as Python ints, 1.2 MB as int64
    tracemalloc.start()
    try:
        stream = primes_in(PrimeRange(2, 10**16))
        first = [next(stream) for _ in range(5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == [2, 3, 5, 7, 11]
    assert peak < 4 * 2**20, peak


def test_primes_array_edges():
    for lo, hi in ((0, 1), (4, 4), (14, 16), (10, 2)):
        got = primes_array(lo, hi)
        assert got.dtype == np.int64 and got.size == 0, (lo, hi)
    assert primes_array(0, 2).tolist() == [2]
    assert primes_array(3, 11).tolist() == [3, 5, 7, 11]


def test_invalid_ranges_rejected():
    with pytest.raises(ValueError):
        PrimeRange(1, 10)
    with pytest.raises(ValueError):
        PrimeRange(10, 2)


def prime_divisors_by_trial(n: int, bound: int) -> tuple[int, ...]:
    """Oracle: every prime factor of n by trial division with d = 2, 3, 4, ..., then those <= bound."""
    found, d = [], 2
    while d * d <= n:
        if n % d == 0:
            found.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        found.append(n)
    return tuple(p for p in found if p <= bound)


def _bounds_around_sqrt(n: int) -> list[int]:
    r = math.isqrt(n)
    return [0, 1, 2, r // 2, r - 1, r, r + 1, n - 1, n, 2 * n]


def test_prime_divisors_matches_trial_division_on_random_levels():
    rng = random.Random(11)
    levels = [1, 2, 4, 11, 32, 37, 389, 5077, 2**19, 3**12, 999_983, 7907 * 7919]
    levels += [rng.randrange(1, 10**6) for _ in range(300)]
    for n in levels:
        for bound in _bounds_around_sqrt(n):
            assert prime_divisors(n, bound) == prime_divisors_by_trial(n, bound), (n, bound)
    assert prime_divisors(7907 * 7919, 7918) == (7907,)


@pytest.mark.parametrize(
    "n",
    [
        2**64 - 1,  # 3 * 5 * 17 * 257 * 641 * 65537 * 6700417, the largest level a STAN header holds
        2**44 * 999_983,  # between 2^63 and 2^64, with a prime cofactor below 2^20
        2**63 + 1,  # 3^3 * 19 * 43 * 5419 * 77158673929
    ],
)
def test_prime_divisors_of_levels_beyond_int64(n):
    assert 2**63 <= n < 2**64
    for bound in [10, 1000, 65537, 6_700_417, 10**6, 10**8] + _bounds_around_sqrt(n)[3:]:
        assert prime_divisors(n, bound) == prime_divisors_by_trial(n, bound), (n, bound)


def test_prime_divisors_of_a_large_prime_level():
    # 2^61 - 1 is a Mersenne prime; below sqrt(n), compare with plain trial division
    n = 2**61 - 1
    for bound in (2, 1000, 10**5):
        assert prime_divisors(n, bound) == tuple(p for p in range(2, bound + 1) if n % p == 0) == ()
    assert prime_divisors(n, 10**7) == ()

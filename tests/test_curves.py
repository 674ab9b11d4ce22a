import math
import multiprocessing
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satotate.curves as curves_module
import satotate.discrepancy as discrepancy_module
from satotate.angles import angle_from_ap, build_angle_series, save_cache
from satotate.curves import (
    CURVE_11A1,
    CURVE_32A,
    CURVE_37A1,
    CURVE_389A1,
    CURVE_5077A1,
    CurveSpec,
    ec_ap,
    ec_ap_array,
    ec_ap_bsgs,
    ec_ap_naive,
    ec_count_points_enum,
    ec_count_points_naive,
    sqrt_mod,
)
from satotate.discrepancy import least_prime_in_interval
from satotate.errors import AmbiguousOrder, BadReduction, SearchExceeded, SmallCharacteristic
from satotate.measure import Interval
from satotate.primes import primes_array

BATTERY = [CURVE_11A1, CURVE_37A1, CURVE_389A1, CURVE_5077A1, CURVE_32A]


def count_points_oracle(curve: CurveSpec, p: int) -> int:
    """Independent brute force on the long model: try every (x, y) pair."""
    a1, a2, a3, a4, a6 = (a % p for a in curve.ainvs())
    total = 1  # point at infinity
    for x in range(p):
        for y in range(p):
            lhs = (y * y + a1 * x * y + a3 * y) % p
            rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
            if lhs == rhs:
                total += 1
    return total


def test_known_point_counts_11a1():
    assert count_points_oracle(CURVE_11A1, 5) == 5
    assert ec_count_points_naive(CURVE_11A1, 5) == 5
    assert 5 + 1 - ec_count_points_naive(CURVE_11A1, 5) == 1  # a_5
    assert 7 + 1 - ec_count_points_naive(CURVE_11A1, 7) == -2  # a_7


def test_enum_matches_naive_small_primes():
    for curve in BATTERY:
        for p in primes_array(5, 97).tolist():
            if curve.conductor % p == 0:
                continue
            assert ec_count_points_enum(curve, p) == ec_count_points_naive(curve, p), (curve.label, p)


def test_naive_matches_oracle():
    for curve in BATTERY:
        for p in (5, 7, 13, 29, 53, 101):
            if curve.conductor % p == 0:
                continue
            assert ec_count_points_naive(curve, p) == count_points_oracle(curve, p)


def test_small_characteristic_enum_route():
    # direct enumeration works where the short model does not exist
    assert 2 + 1 - ec_count_points_enum(CURVE_11A1, 2) == -2
    assert 3 + 1 - ec_count_points_enum(CURVE_11A1, 3) == -1
    with pytest.raises(SmallCharacteristic):
        ec_count_points_naive(CURVE_11A1, 2)
    with pytest.raises(SmallCharacteristic):
        ec_count_points_naive(CURVE_11A1, 3)


def test_bad_reduction_raises():
    with pytest.raises(BadReduction):
        ec_count_points_naive(CURVE_11A1, 11)
    with pytest.raises(BadReduction):
        ec_ap_bsgs(CURVE_389A1, 389)
    with pytest.raises(BadReduction):
        ec_count_points_enum(CURVE_32A, 2)
    with pytest.raises(BadReduction, match="^37a1 has bad reduction at 37$"):
        CURVE_37A1.check_good(37)
    for p in (2, 3, 5, 7, 41):
        CURVE_37A1.check_good(p)


def test_bsgs_rejects_small_p():
    with pytest.raises(ValueError):
        ec_ap_bsgs(CURVE_11A1, 229)


def test_bsgs_matches_naive_battery_sample():
    ps = primes_array(230, 3000).tolist()
    for curve in BATTERY:
        for p in ps[::7]:
            if curve.conductor % p == 0:
                continue
            assert ec_ap_bsgs(curve, p) == ec_ap_naive(curve, p), (curve.label, p)


def test_bsgs_spec_examples():
    assert ec_ap_bsgs(CURVE_11A1, 1009) == ec_ap_naive(CURVE_11A1, 1009)
    assert ec_ap_naive(CURVE_37A1, 5) == 5 + 1 - count_points_oracle(CURVE_37A1, 5)


def test_hasse_bound_holds():
    for curve in BATTERY:
        for p in (5, 101, 1009, 10007):
            if curve.conductor % p == 0:
                continue
            ap = ec_ap_naive(curve, p) if p < 230 else ec_ap_bsgs(curve, p)
            assert abs(ap) <= 2 * math.sqrt(p)


def test_hasse_bound_j0_curve():
    # y^2 = x^3 + 1: disc -432 != 0, so a_7 exists and respects Hasse
    curve = CurveSpec(0, 0, 0, 0, 1, conductor=36, label="j0")
    assert curve.discriminant() == -432
    a7 = 7 + 1 - ec_count_points_naive(curve, 7)
    assert abs(a7) <= 2 * math.sqrt(7)
    assert ec_count_points_naive(curve, 7) == count_points_oracle(curve, 7)


def test_singular_model_rejected():
    with pytest.raises(ValueError):
        CurveSpec(0, 0, 0, 0, 0, conductor=1)  # y^2 = x^3 has disc 0


def test_discriminants():
    assert CURVE_11A1.discriminant() == -161051  # -11^5
    assert CURVE_37A1.discriminant() == 37
    assert CURVE_32A.discriminant() == 64


@settings(max_examples=40, deadline=None)
@given(
    a=st.integers(min_value=-10, max_value=10),
    b=st.integers(min_value=-10, max_value=10),
    pidx=st.integers(min_value=0, max_value=20),
)
def test_random_short_curves_naive_vs_enum(a, b, pidx):
    ps = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83]
    p = ps[pidx]
    if (4 * a**3 + 27 * b**2) % p == 0:
        return  # singular mod p: no claim
    disc = -16 * (4 * a**3 + 27 * b**2)
    if disc == 0:
        return
    curve = CurveSpec(0, 0, 0, a, b, conductor=1, label="rand")
    assert ec_count_points_naive(curve, p) == count_points_oracle(curve, p)


@settings(max_examples=30, deadline=None)
@given(a=st.integers(min_value=0, max_value=10**6), pidx=st.integers(min_value=0, max_value=5))
def test_sqrt_mod(a, pidx):
    import random

    p = [101, 103, 65537, 7919, 104729, 999983][pidx]
    r = sqrt_mod(a, p, random.Random(1))
    if r is not None:
        assert (r * r - a) % p == 0
    else:
        assert pow(a % p, (p - 1) // 2, p) == p - 1


# -- lockstep engine -----------------------------------------------------------


def good_primes(curve: CurveSpec, lo: int, hi: int) -> np.ndarray:
    ps = primes_array(lo, hi)
    return ps[curve.conductor % ps != 0]


@pytest.mark.parametrize("curve", BATTERY, ids=lambda c: c.label)
def test_ap_array_equals_naive_to_2e4(curve):
    ps = good_primes(curve, 230, 20_000)
    expected = [ec_ap_naive(curve, p) for p in ps.tolist()]
    got = ec_ap_array(curve, ps)
    assert got.dtype == np.int64
    assert got.tolist() == expected


@pytest.mark.parametrize("curve", BATTERY, ids=lambda c: c.label)
def test_ap_array_equals_scalar_bsgs_sample_to_1e6(curve):
    ps = good_primes(curve, 2, 1_100_000).tolist()
    sample = random.Random(curve.conductor).sample(ps, 120)  # unsorted
    sample[10:10] = [p for p in (227, 3, 2, 7) if curve.conductor % p != 0]  # the naive routes too
    expected = [ec_ap_naive(curve, p) if p <= 229 else ec_ap_bsgs(curve, p) for p in sample]
    assert ec_ap_array(curve, sample).tolist() == expected


@settings(max_examples=25, deadline=None)
@given(a=st.integers(min_value=-50, max_value=50), b=st.integers(min_value=-50, max_value=50))
def test_ap_array_random_short_curves(a, b):
    disc = -16 * (4 * a**3 + 27 * b**2)
    if disc == 0:
        return
    curve = CurveSpec(0, 0, 0, a, b, conductor=abs(disc), label="rand")  # excludes every p | disc
    ps = good_primes(curve, 230, 3000)
    assert ec_ap_array(curve, ps).tolist() == [ec_ap_naive(curve, p) for p in ps.tolist()]


def test_ap_array_independent_of_split():
    ps = good_primes(CURVE_32A, 2, 30_000)
    whole = ec_ap_array(CURVE_32A, ps)
    rng = random.Random(5)
    for _ in range(3):
        cuts = sorted(rng.sample(range(1, ps.size), 6)) + [ps.size]
        parts, start = [], 0
        for stop in cuts:
            parts.append(ec_ap_array(CURVE_32A, ps[start:stop]))
            start = stop
        assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(ec_ap_array(CURVE_32A, ps[::-1]), whole[::-1])
    assert ec_ap_array(CURVE_32A, []).size == 0


def test_ap_array_mixed_sizes_up_to_the_int64_limit():
    # 233 shares a block with primes near LOCKSTEP_P_MAX = 3e9; 3000000019 is above it
    ps = [233, 2999999929, 239, 3000000019]
    for curve in (CURVE_11A1, CURVE_32A):
        assert ec_ap_array(curve, ps).tolist() == [ec_ap_bsgs(curve, p) for p in ps]


def test_ap_array_rejects_bad_primes():
    with pytest.raises(BadReduction, match="^37a1 has bad reduction at 37$"):
        ec_ap_array(CURVE_37A1, [5, 37, 41])


def test_ambiguous_row_takes_the_scalar_fallback(monkeypatch):
    ps = good_primes(CURVE_11A1, 230, 5000)
    forced = int(ps[100])
    assert ec_ap_naive(CURVE_11A1, forced) != 0
    real_pass, real_bsgs = curves_module._lockstep_pass, curves_module.ec_ap_bsgs
    fallback_primes = []

    def ambiguous_pass(p, A, B, salt, chi_wanted=None):
        keys, failed, chi = real_pass(p, A, B, salt, chi_wanted)
        rows = np.flatnonzero(p == forced)
        # a second candidate order p + 1 (a_p = 0) in every pass for the forced row
        return np.union1d(keys, rows << curves_module._ROW_SHIFT | (forced + 1)), failed, chi

    def counting_bsgs(curve, p, *args, **kwargs):
        fallback_primes.append(p)
        return real_bsgs(curve, p, *args, **kwargs)

    monkeypatch.setattr(curves_module, "_lockstep_pass", ambiguous_pass)
    monkeypatch.setattr(curves_module, "ec_ap_bsgs", counting_bsgs)
    got = ec_ap_array(CURVE_11A1, ps)
    assert forced in fallback_primes
    assert got.tolist() == [ec_ap_naive(CURVE_11A1, p) for p in ps.tolist()]


def test_exact_giant_hits_settle_in_the_first_pass():
    # rows whose #E_f is a giant-step centre s_k, k >= 1: G_k = O, which once failed every such row
    curve = CURVE_11A1
    ps = good_primes(curve, 230, 20_000)[: curves_module.LOCKSTEP_BLOCK]
    keys, failed, chi = curves_module._lockstep_pass(ps, *curves_module._short_models(curve, ps), 1)
    m = math.isqrt(math.isqrt(4 * int(ps.max()))) + 1  # the pass's geometry: step 2m + 1, first centre q0
    step = 2 * m + 1
    q0 = (ps + 1 - np.array([math.isqrt(4 * p) for p in ps.tolist()]) + m) // step
    order_e = np.array([p + 1 - ec_ap_naive(curve, p) for p in ps.tolist()])
    order_f = np.where(chi == 1, order_e, 2 * ps + 2 - order_e)
    hits = np.flatnonzero((order_f % step == 0) & (order_f // step > q0))
    owner = keys >> curves_module._ROW_SHIFT
    settled = [j for j in hits.tolist() if not failed[j] and np.count_nonzero(owner == j) == 1]
    assert hits.size >= 20 and len(settled) >= 3 * hits.size // 4
    for j in settled:
        assert keys[owner == j][0] & curves_module._ORDER_MASK == order_e[j]


def scalar_least_prime(thetas_by_p, interval):
    for p, theta in thetas_by_p:
        if interval.alpha <= theta <= interval.beta:
            return p
    return None


@pytest.mark.parametrize("curve", [CURVE_11A1, CURVE_37A1], ids=lambda c: c.label)
def test_least_prime_equals_scalar_scan(curve):
    ceiling = 30_000
    thetas_by_p = [
        (p, angle_from_ap(float(ec_ap(curve, p)), p, 2)) for p in good_primes(curve, 2, ceiling).tolist()
    ]
    rng = random.Random(curve.conductor)
    for _ in range(10):
        centre, half = rng.uniform(0.0, math.pi), rng.uniform(1e-4, 0.02)
        interval = Interval(max(0.0, centre - half), min(math.pi, centre + half))
        expected = scalar_least_prime(thetas_by_p, interval)
        if expected is None:
            with pytest.raises(SearchExceeded):
                least_prime_in_interval(curve, interval, ceiling=ceiling)
        else:
            assert least_prime_in_interval(curve, interval, ceiling=ceiling).p == expected


def test_least_prime_hides_errors_past_the_hit(monkeypatch):
    interval = Interval(0.0, 0.3)
    hit = least_prime_in_interval(CURVE_11A1, interval).p

    def broken_block(curve, primes):
        raise AmbiguousOrder("block failed")

    def scalar_past_hit(curve, p):
        if p > hit:
            raise AmbiguousOrder(f"failed past the hit at {p}")
        return ec_ap(curve, p)

    monkeypatch.setattr(discrepancy_module, "ec_ap_array", broken_block)
    monkeypatch.setattr(discrepancy_module, "ec_ap", scalar_past_hit)
    assert least_prime_in_interval(CURVE_11A1, interval).p == hit


# -- one route table, one good-reduction check, one short model ------------------


def rescaled_37a1(u: int) -> CurveSpec:
    """37a1 with a_i -> u^i a_i: isomorphic over Q, but not minimal at the primes of u."""
    a1, a2, a3, a4, a6 = CURVE_37A1.ainvs()
    return CurveSpec(a1 * u, a2 * u**2, a3 * u**3, a4 * u**4, a6 * u**6, conductor=37, label=f"37a1*{u}")


def test_rescaled_model_fails_loudly_on_every_route():
    # each model is singular at the primes of u although 37 is the right conductor
    assert rescaled_37a1(3).ainvs() == (0, 0, 27, -81, 0)
    with pytest.raises(BadReduction, match="singular at 3 although 3 does not divide the conductor 37"):
        ec_ap(rescaled_37a1(3), 3)  # enumeration
    with pytest.raises(BadReduction, match="singular at 5 "):
        ec_ap(rescaled_37a1(5), 5)  # Legendre count
    with pytest.raises(BadReduction, match="singular at 233 "):
        build_angle_series(rescaled_37a1(233), 300)  # the lockstep pre-scan, discriminant beyond int64
    # away from u the rescaled model gives 37a1's a_p
    ps = [2, 5, 7, 229, 233, 1009]
    assert ec_ap_array(rescaled_37a1(3), ps).tolist() == ec_ap_array(CURVE_37A1, ps).tolist()


def test_conductor_must_divide_into_the_discriminant():
    with pytest.raises(ValueError, match="conductor 11 does not fit the model"):
        CurveSpec(0, 0, 1, -1, 0, conductor=11)  # 37a1 with 11a1's conductor
    with pytest.raises(ValueError, match="conductor 74"):
        CurveSpec(0, 0, 1, -1, 0, conductor=74)  # 2 does not divide 37
    for curve in BATTERY:
        CurveSpec(*curve.ainvs(), conductor=curve.conductor)  # every battery model fits
    assert CurveSpec(0, 0, 0, 0, 1, conductor=36).conductor == 36  # disc -432 = -2^4 3^3


def test_short_model_is_the_row_of_short_models():
    ps = [5, 7, 13, 229, 233, 1009, 999983]
    for curve in BATTERY:
        A, B = curves_module._short_models(curve, np.array(ps, dtype=np.int64))
        for j, p in enumerate(ps):
            if curve.conductor % p:
                assert curve.short_model(p) == (int(A[j]), int(B[j])), (curve.label, p)
    with pytest.raises(SmallCharacteristic):
        CURVE_11A1.short_model(3)
    with pytest.raises(BadReduction):
        CURVE_11A1.short_model(11)


def test_ap_array_sends_every_non_lockstep_prime_to_ec_ap(monkeypatch):
    routed, inside = [], []
    real = {name: getattr(curves_module, name) for name in ("ec_ap", "ec_ap_naive", "ec_ap_bsgs")}

    def counting_ec_ap(curve, p):
        routed.append(p)
        inside.append(p)
        try:
            return real["ec_ap"](curve, p)
        finally:
            inside.pop()

    def scalar_route(name):
        def route(curve, p):
            assert inside == [p], f"{name}({p}) called outside ec_ap"
            return real[name](curve, p)

        return route

    monkeypatch.setattr(curves_module, "ec_ap", counting_ec_ap)
    monkeypatch.setattr(curves_module, "ec_ap_naive", scalar_route("ec_ap_naive"))
    monkeypatch.setattr(curves_module, "ec_ap_bsgs", scalar_route("ec_ap_bsgs"))
    ps = [3000000019, 2, 233, 229, 2999999929, 3, 7, 241]
    got = ec_ap_array(CURVE_11A1, ps)
    assert {2, 3, 7, 229, 3000000019} <= set(routed)  # open lockstep rows may join them
    monkeypatch.undo()
    assert got.tolist() == [ec_ap_naive(CURVE_11A1, p) if p <= 229 else ec_ap_bsgs(CURVE_11A1, p) for p in ps]


# -- the engine over forked workers ----------------------------------------------


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(curves_module.os, "sched_getaffinity", lambda pid: set(range(n)))


def recording_pids(monkeypatch, tmp_path):
    """Wrap _lockstep_pass so every process that runs it leaves a file named after its pid."""
    real = curves_module._lockstep_pass

    def recorded(*args):
        (tmp_path / f"pid-{os.getpid()}").touch()
        return real(*args)

    monkeypatch.setattr(curves_module, "_lockstep_pass", recorded)
    return lambda: {int(f.name[4:]) for f in tmp_path.glob("pid-*")}


# about 4200 good primes above 229: five lockstep blocks
SPLIT_XMAX = 40_000


@pytest.mark.parametrize("curve", BATTERY, ids=lambda c: c.label)
def test_split_equals_serial(curve, monkeypatch, tmp_path):
    pids = recording_pids(monkeypatch, tmp_path)
    use_cpus(monkeypatch, 1)
    save_cache(build_angle_series(curve, SPLIT_XMAX), tmp_path / "serial.stan")
    assert pids() == {os.getpid()}
    use_cpus(monkeypatch, 2)
    save_cache(build_angle_series(curve, SPLIT_XMAX), tmp_path / "split.stan")
    assert len(pids()) == 2
    assert (tmp_path / "split.stan").read_bytes() == (tmp_path / "serial.stan").read_bytes()


def test_split_makes_the_same_scalar_calls(monkeypatch):
    ps = good_primes(CURVE_32A, 2, SPLIT_XMAX)
    real = curves_module.ec_ap
    calls = []

    def counting_ec_ap(curve, p):
        calls.append(p)
        return real(curve, p)

    monkeypatch.setattr(curves_module, "ec_ap", counting_ec_ap)
    use_cpus(monkeypatch, 1)
    serial = ec_ap_array(CURVE_32A, ps)
    serial_calls, calls[:] = calls[:], []
    use_cpus(monkeypatch, 2)
    assert np.array_equal(ec_ap_array(CURVE_32A, ps), serial)
    assert calls == serial_calls
    assert any(p > 229 for p in calls)  # open lockstep rows, not only the naive primes


@pytest.mark.parametrize("where", ["child", "parent"])
def test_split_raises_a_worker_exception_and_leaves_no_process(where, monkeypatch):
    parent = os.getpid()
    real = curves_module._lockstep_pass

    def failing(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise AmbiguousOrder(f"lockstep pass failed in the {where}")
        return real(*args)

    monkeypatch.setattr(curves_module, "_lockstep_pass", failing)
    use_cpus(monkeypatch, 2)
    with pytest.raises(AmbiguousOrder, match=f"^lockstep pass failed in the {where}$"):
        ec_ap_array(CURVE_11A1, good_primes(CURVE_11A1, 230, SPLIT_XMAX))
    assert multiprocessing.active_children() == []


def test_split_reports_a_worker_that_died(monkeypatch):
    parent = os.getpid()
    real = curves_module._lockstep_pass

    def dying(*args):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args)

    monkeypatch.setattr(curves_module, "_lockstep_pass", dying)
    use_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        ec_ap_array(CURVE_11A1, good_primes(CURVE_11A1, 230, SPLIT_XMAX))
    assert multiprocessing.active_children() == []


def test_small_inputs_start_no_process(monkeypatch, tmp_path):
    pids = recording_pids(monkeypatch, tmp_path)
    use_cpus(monkeypatch, 8)
    ps = good_primes(CURVE_11A1, 230, 20_000)
    ec_ap_array(CURVE_11A1, ps[: 2 * curves_module.LOCKSTEP_BLOCK - 1])  # one full block
    with pytest.raises(SearchExceeded):  # a scan with no hit: blocks of 64, 128, ..., 1024 primes
        least_prime_in_interval(CURVE_11A1, Interval(0.0, 1e-6), ceiling=20_000)
    assert pids() == {os.getpid()}

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satotate.angles import (
    AngleSeries,
    FormMeta,
    angle_from_ap,
    build_angle_series,
    cm_heuristic,
    load_cache,
    read_coeff_file,
    save_cache,
    write_coeff_file,
)
from satotate.curves import CURVE_11A1, ec_count_points_enum
from satotate.errors import DeligneViolation, FormatError, MissingPrime
from satotate.primes import primes_array


def toy_series(primes, thetas, level=1, x_max=None):
    meta = FormMeta("toy", 2, level, "file")
    primes = np.asarray(primes, dtype=np.int64)
    return AngleSeries(meta, x_max or int(primes[-1]), primes, np.asarray(thetas, float))


def test_angle_from_ap_values():
    assert angle_from_ap(0.0, 7, 2) == math.pi / 2
    # a_2 = -2 for 11a1 (verified by enumeration): arccos(-1/sqrt 2)
    a2 = 2 + 1 - ec_count_points_enum(CURVE_11A1, 2)
    assert a2 == -2
    assert angle_from_ap(a2, 2, 2) == pytest.approx(3 * math.pi / 4, abs=1e-15)
    assert angle_from_ap(2 * 5 ** 0.5, 5, 2) == 0.0  # boundary clamps
    assert angle_from_ap(-2 * 5 ** 0.5, 5, 2) == math.pi


def test_angle_from_ap_deligne_violation():
    with pytest.raises(DeligneViolation):
        angle_from_ap(5.0, 5, 2)
    with pytest.raises(DeligneViolation):
        angle_from_ap(-4.5, 5, 2)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 101, 9973]),
    k=st.sampled_from([2, 4, 6]),
    frac=st.floats(min_value=-1.0, max_value=1.0),
)
def test_angle_from_ap_range(p, k, frac):
    ap = frac * 2.0 * p ** ((k - 1) / 2)
    theta = angle_from_ap(ap, p, k)
    assert 0.0 <= theta <= math.pi
    assert 2.0 * math.cos(theta) * p ** ((k - 1) / 2) == pytest.approx(ap, abs=1e-6 * p ** ((k - 1) / 2))


def test_build_11a1_to_10():
    s = build_angle_series(CURVE_11A1, 10)
    assert s.primes.tolist() == [2, 3, 5, 7]
    # a_p from the enumeration oracle
    for p, theta in zip(s.primes, s.thetas):
        ap = int(p) + 1 - ec_count_points_enum(CURVE_11A1, int(p))
        assert theta == angle_from_ap(ap, int(p), 2)


def test_build_excludes_level_primes():
    s = build_angle_series(CURVE_11A1, 11)
    assert 11 not in s.primes.tolist()
    s2 = build_angle_series(CURVE_11A1, 2)
    assert s2.primes.tolist() == [2]


def test_file_source_equals_curve_source(tmp_path):
    s = build_angle_series(CURVE_11A1, 2000)
    path = tmp_path / "11a1.coeffs"
    entries = []
    for p, theta in zip(s.primes.tolist(), s.thetas):
        entries.append((p, round(2.0 * math.cos(theta) * math.sqrt(p))))
    write_coeff_file(path, "11a1", 2, 11, entries, normalized=False)
    sf = build_angle_series(path, 2000)
    assert s.same_points(sf)
    assert sf.meta.level_q == 11 and sf.meta.weight_k == 2


def test_normalized_coeff_file(tmp_path):
    path = tmp_path / "norm.coeffs"
    write_coeff_file(path, "toy", 2, 1, [(2, -1.0), (3, 0.5), (5, 2.0)], normalized=True)
    s = build_angle_series(path, 5)
    assert s.thetas[0] == pytest.approx(math.acos(-0.5))
    assert s.thetas[2] == 0.0


def test_coeff_file_missing_prime(tmp_path):
    path = tmp_path / "gap.coeffs"
    write_coeff_file(path, "toy", 2, 1, [(2, 1), (5, 1)], normalized=False)
    with pytest.raises(MissingPrime):
        build_angle_series(path, 5)


def test_coeff_file_format_errors(tmp_path):
    bad = tmp_path / "bad.coeffs"
    bad.write_text("not a header\n2 1\n")
    with pytest.raises(FormatError):
        read_coeff_file(bad)
    nohdr = tmp_path / "nohdr.coeffs"
    nohdr.write_text("# satotate-coeffs v1\nlabel=x\nweight=2\n2 1\n")
    with pytest.raises(FormatError):
        read_coeff_file(nohdr)  # level and normalized missing
    unsorted = tmp_path / "unsorted.coeffs"
    unsorted.write_text(
        "# satotate-coeffs v1\nlabel=x\nweight=2\nlevel=1\nnormalized=false\n5 1\n3 1\n"
    )
    with pytest.raises(FormatError):
        read_coeff_file(unsorted)


def test_cache_round_trip(tmp_path):
    s = build_angle_series(CURVE_11A1, 500)
    path = tmp_path / "s.stan"
    save_cache(s, path)
    loaded = load_cache(path)
    assert loaded.same_points(s)
    assert loaded.meta.level_q == 11
    assert loaded.meta.weight_k == 2
    assert loaded.x_max == 500
    # bit-exact on records
    assert loaded.thetas.tobytes() == s.thetas.tobytes()


def test_cache_round_trip_toy_series(tmp_path):
    s = toy_series([2, 3, 5, 7], [0.1, 1.0, 2.0, math.pi - 0.1])
    path = tmp_path / "toy.stan"
    save_cache(s, path)
    assert load_cache(path).same_points(s)


def test_cache_truncation(tmp_path):
    s = build_angle_series(CURVE_11A1, 100)
    path = tmp_path / "s.stan"
    save_cache(s, path)
    blob = path.read_bytes()
    (tmp_path / "trunc.stan").write_bytes(blob[:-5])
    with pytest.raises(FormatError):
        load_cache(tmp_path / "trunc.stan")
    (tmp_path / "short.stan").write_bytes(blob[:10])
    with pytest.raises(FormatError):
        load_cache(tmp_path / "short.stan")


def test_cache_bad_magic_and_version(tmp_path):
    s = build_angle_series(CURVE_11A1, 100)
    path = tmp_path / "s.stan"
    save_cache(s, path)
    blob = bytearray(path.read_bytes())
    bad_magic = tmp_path / "magic.stan"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(FormatError):
        load_cache(bad_magic)
    bad_version = tmp_path / "version.stan"
    blob[4:8] = (99).to_bytes(4, "little")
    bad_version.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as exc:
        load_cache(bad_version)
    assert "99" in str(exc.value) and "1" in str(exc.value)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_cache_round_trip_random(n, seed, tmp_path_factory):
    rng = np.random.default_rng(seed)
    ps = primes_array(2, 10_000)
    idx = np.sort(rng.choice(ps.size, size=n, replace=False))
    thetas = rng.uniform(0.0, math.pi, n)
    s = toy_series(ps[idx], thetas, x_max=int(ps[idx][-1]))
    path = tmp_path_factory.mktemp("caches") / "r.stan"
    save_cache(s, path)
    assert load_cache(path).same_points(s)


def test_series_validation():
    with pytest.raises(ValueError):
        toy_series([3, 2], [0.1, 0.2])
    with pytest.raises(ValueError):
        toy_series([2, 3], [0.1, 4.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_rejects_non_finite_angles(bad):
    with pytest.raises(ValueError, match="finite"):
        toy_series([2, 3], [bad, 1.0])


def test_cache_with_nan_record_is_a_format_error(tmp_path):
    path = tmp_path / "nan.stan"
    save_cache(toy_series([2, 3, 5], [0.5, 1.0, 1.5]), path)
    blob = bytearray(path.read_bytes())
    blob[-8:] = np.float64(math.nan).tobytes()  # theta of the last record
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="finite"):
        load_cache(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_normalized_coeff_file_rejects_non_finite(tmp_path, value):
    path = tmp_path / "nan.coeffs"
    path.write_text(
        f"# satotate-coeffs v1\nlabel=x\nweight=2\nlevel=1\nnormalized=true\n2 {value}\n3 0.5\n"
    )
    with pytest.raises(FormatError, match="finite"):
        read_coeff_file(path)


def test_cm_heuristic_single_zero_point():
    s = toy_series([2], [math.pi / 2])
    zf, verdict = cm_heuristic(s)
    assert zf == 1.0 and verdict == "suspect-CM"


def test_cm_heuristic_small_11a1():
    s = build_angle_series(CURVE_11A1, 10_000)
    zf, verdict = cm_heuristic(s)
    assert zf < 0.1
    assert verdict == "plausibly-non-CM"


def test_cm_heuristic_cm_curve(series_32a_medium):
    zf, verdict = cm_heuristic(series_32a_medium)
    assert abs(zf - 0.5) < 0.02
    assert verdict == "suspect-CM"


def test_cm_heuristic_large_11a1(series_11a1_big):
    zf, verdict = cm_heuristic(series_11a1_big)
    assert zf < 0.1
    assert verdict == "plausibly-non-CM"


def test_point_count_at_1e6(series_11a1_big):
    ps, _ = series_11a1_big.upto(10**6)
    assert ps.size == 78498 - 1  # pi(1e6) minus the ramified prime 11

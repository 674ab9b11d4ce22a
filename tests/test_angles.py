import math
import re
import struct
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
    load_cache,
    read_coeff_file,
    save_cache,
    write_coeff_file,
)
from satotate.cli import main
from satotate.curves import CURVE_11A1, ec_count_points_enum
from satotate.errors import DeligneViolation, FormatError, MissingPrime
from satotate.primes import primes_array

from oracles import same_points


def toy_series(primes, thetas, level=1, x_max=None):
    meta = FormMeta("toy", 2, level)
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


@pytest.mark.parametrize("k", [2, 4, 12])
def test_angle_from_ap_array_is_bit_identical_to_scalar_formula(k):
    ps = primes_array(2, 10**6)
    ps = ps[11 % ps != 0]
    rng = np.random.default_rng(k)
    aps = np.trunc(rng.uniform(-1.0, 1.0, ps.size) * 2.0 * ps.astype(float) ** ((k - 1) / 2))
    expected = np.array(
        [
            math.acos(min(1, max(-1, ap / (2.0 * float(p) ** ((k - 1) / 2)))))
            for ap, p in zip(aps.tolist(), ps.tolist())
        ]
    )
    got = angle_from_ap(aps, ps, k)
    assert got.shape == ps.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_angle_from_ap_scalar_in_float_out():
    theta = angle_from_ap(3.0, 7, 2)
    assert type(theta) is float
    assert theta == math.acos(3.0 / (2.0 * 7.0 ** 0.5))


def test_angle_from_ap_array_reports_first_violation():
    with pytest.raises(DeligneViolation, match="at p = 5$"):
        angle_from_ap(np.array([1.0, 5.0, 9.0]), np.array([3, 5, 7]), 2)
    with pytest.raises(DeligneViolation, match="nan"):
        angle_from_ap(math.nan, 5, 2)


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
    assert same_points(s, sf)
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


HEADER = "# satotate-coeffs v1\nlabel=x\nweight=2\nlevel=11\nnormalized={}\n"


def test_read_coeff_file_returns_arrays(tmp_path):
    path = tmp_path / "ok.coeffs"
    path.write_text(HEADER.format("false") + "# comment\n\n2 -2\n  3\t-1  \n5 1 # trailing comment\n")
    meta, primes, aps, normalized = read_coeff_file(path)
    assert (meta.label, meta.weight_k, meta.level_q, normalized) == ("x", 2, 11, False)
    assert primes.dtype == np.int64 and primes.tolist() == [2, 3, 5]
    assert aps.dtype == np.float64 and aps.tolist() == [-2.0, -1.0, 1.0]
    header_only = tmp_path / "empty.coeffs"
    header_only.write_text(HEADER.format("true") + "# no entries\n")
    _, primes, aps, _ = read_coeff_file(header_only)
    assert primes.size == 0 and aps.size == 0


@pytest.mark.parametrize(
    "body, normalized, reason",
    [
        ("2 1\n3 1 7\n", "false", "expected 'p a_p' entries"),  # field count
        ("2 1\n3\n", "false", "expected 'p a_p' entries"),
        ("2 1\n3 1.5\n", "false", "integer"),  # non-integer a_p, unnormalized
        ("2 1\n3 nan\n", "false", "finite"),
        ("2 0.5\n3 inf\n", "true", "finite"),
        ("2 1\n5 1\n3 1\n", "false", "ascending, got p = 3 at entry 3"),
        ("2 1\n2 1\n", "false", "ascending, got p = 2 at entry 2"),
        ("0 1\n2 1\n", "false", "positive and strictly ascending, got p = 0 at entry 1"),
        ("-3 1\n2 1\n", "false", "positive and strictly ascending, got p = -3 at entry 1"),
        ("2.0 1\n", "false", "expected 'p a_p' entries"),
    ],
)
def test_coeff_file_rejections(tmp_path, body, normalized, reason):
    path = tmp_path / "bad.coeffs"
    path.write_text(HEADER.format(normalized) + body)
    with pytest.raises(FormatError, match=reason) as exc:
        read_coeff_file(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("entry", ["3 x", "3 -1 4", "3", "3.0 1", "3 1_0"])
def test_coeff_file_bad_entry_names_its_file_line(tmp_path, entry):
    # a bad token and a wrong field count are both named by the file's own line
    # number, which counts the header, comments and blank lines; an '_' in an
    # earlier entry's comment does not make that entry the bad one
    path = tmp_path / "bad.coeffs"
    path.write_text(HEADER.format("false") + f"2 1  # a_p\n# note\n\n{entry}  # why\n5 1\n")
    with pytest.raises(FormatError, match=re.escape(f"expected 'p a_p' entries: line 9 reads '{entry}  # why'")):
        read_coeff_file(path)


def test_coeff_file_repeated_header_key(tmp_path):
    path = tmp_path / "twice.coeffs"
    path.write_text(HEADER.format("false") + "level=37\n2 1\n")
    with pytest.raises(FormatError, match="'level' repeats"):
        read_coeff_file(path)


def test_coeff_file_invalid_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "bytes.coeffs"
    path.write_bytes(HEADER.format("false").encode() + b"2 1\n3 \xff\n")
    with pytest.raises(FormatError):
        read_coeff_file(path)


def test_coeff_file_rejects_non_prime_entry_up_to_x_max(tmp_path):
    path = tmp_path / "composite.coeffs"
    path.write_text(HEADER.format("false") + "2 1\n3 1\n4 1\n5 1\n7 1\n")
    with pytest.raises(FormatError, match="p = 4 <= 7, which is not prime"):
        build_angle_series(path, 7)
    # entries past x_max are not examined
    assert build_angle_series(path, 3).primes.tolist() == [2, 3]


def test_coeff_file_ignores_entries_at_level_primes(tmp_path):
    path = tmp_path / "level.coeffs"
    path.write_text(HEADER.format("false") + "2 -2\n3 -1\n5 1\n7 -2\n11 1\n13 4\n")
    s = build_angle_series(path, 13)
    assert s.primes.tolist() == [2, 3, 5, 7, 13]
    assert s.thetas[-1] == angle_from_ap(4.0, 13, 2)
    # the level prime needs no entry either
    path.write_text(HEADER.format("false") + "2 -2\n3 -1\n5 1\n7 -2\n13 4\n")
    assert same_points(build_angle_series(path, 13), s)


def test_coeff_file_first_fault_in_prime_order_wins(tmp_path):
    path = tmp_path / "faults.coeffs"
    path.write_text(HEADER.format("false") + "2 1\n3 9\n7 1\n")  # a_3 breaks Deligne, a_5 is missing
    with pytest.raises(DeligneViolation, match="at p = 3"):
        build_angle_series(path, 7)
    path.write_text(HEADER.format("false") + "2 1\n3 1\n7 9\n")  # a_5 is missing, a_7 breaks Deligne
    with pytest.raises(MissingPrime, match="good prime 5 <= 7"):
        build_angle_series(path, 7)
    path.write_text(HEADER.format("true") + "2 1\n3 2.5\n")
    with pytest.raises(DeligneViolation, match="normalized \\|a_p\\| = 2.5 > 2 at p = 3"):
        build_angle_series(path, 3)


def test_cache_round_trip(tmp_path):
    s = build_angle_series(CURVE_11A1, 500)
    path = tmp_path / "s.stan"
    save_cache(s, path)
    loaded = load_cache(path)
    assert same_points(loaded, s)
    assert loaded.meta.level_q == 11
    assert loaded.meta.weight_k == 2
    assert loaded.x_max == 500
    # bit-exact on records
    assert loaded.thetas.tobytes() == s.thetas.tobytes()


def test_cache_round_trip_toy_series(tmp_path):
    s = toy_series([2, 3, 5, 7], [0.1, 1.0, 2.0, math.pi - 0.1])
    path = tmp_path / "toy.stan"
    save_cache(s, path)
    assert same_points(load_cache(path), s)


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


def test_cache_body_size_must_match_count(tmp_path):
    path = tmp_path / "s.stan"
    save_cache(toy_series([2, 3, 5], [0.5, 1.0, 1.5]), path)
    blob = path.read_bytes()
    header, records = blob[:-48], blob[-48:]  # three 16-byte records
    for body in (records[:-1], records + b"\0"):  # one byte short, one byte too long
        path.write_bytes(header + body)
        with pytest.raises(FormatError, match=f"truncated body: {len(body)} bytes for 3 records"):
            load_cache(path)


def test_series_rejects_primes_beyond_x_max(tmp_path):
    with pytest.raises(ValueError, match="prime 11 lies beyond x_max = 10"):
        toy_series([2, 3, 5, 11], [0.1, 0.2, 0.3, 0.4], x_max=10)
    # a hand-packed cache: header x_max = 10, records 2..11
    path = tmp_path / "over.stan"
    records = np.array([(2, 0.1), (3, 0.2), (5, 0.3), (7, 0.4), (11, 0.5)], dtype=[("p", "<u8"), ("t", "<f8")])
    path.write_bytes(struct.pack("<4sIQIIQQ", b"STAN", 1, 1, 2, 0, 10, 5) + records.tobytes())
    with pytest.raises(FormatError, match="bad records: prime 11 lies beyond x_max = 10"):
        load_cache(path)
    assert main(["verify", "--cache", str(path), "--interval", "half", "--x", "10"]) == 3


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
    assert same_points(load_cache(path), s)


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


def test_point_count_at_1e6(series_11a1_big):
    ps, _ = series_11a1_big.upto(10**6)
    assert ps.size == 78498 - 1  # pi(1e6) minus the ramified prime 11

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import satotate.cli
from satotate.cli import main, parse_interval
from satotate.primes import prime_count

from oracles import same_points


def run_cli(args, env=None):
    """Run the CLI in-process; returns (exit_code, capsys-free)."""
    return main(args)


@pytest.fixture(scope="module")
def cache_11a1(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "11a1.stan"
    rc = main(
        [
            "angles",
            "--curve",
            "0,-1,1,-10,-20",
            "--conductor",
            "11",
            "--xmax",
            "5000",
            "--out",
            str(path),
        ]
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def cache_37a1(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "37a1.stan"
    rc = main(
        ["angles", "--curve", "0,0,1,-1,0", "--conductor", "37", "--xmax", "5000", "--out", str(path)]
    )
    assert rc == 0
    return path


def test_parse_interval_presets():
    assert parse_interval("half").beta == math.pi / 2
    assert parse_interval("middle").alpha == math.pi / 4
    iv = parse_interval("0.25:1.5")
    assert (iv.alpha, iv.beta) == (0.25, 1.5)


def test_angles_cache_point_count(cache_11a1, tmp_path):
    from satotate.angles import load_cache

    series = load_cache(cache_11a1)
    assert len(series) == prime_count(5000) - 1  # 11 excluded
    assert series.x_max == 5000


def test_angles_small_xmax(tmp_path):
    out = tmp_path / "two.stan"
    rc = main(["angles", "--curve", "0,-1,1,-10,-20", "--conductor", "11", "--xmax", "2", "--out", str(out)])
    assert rc == 0
    from satotate.angles import load_cache

    assert load_cache(out).primes.tolist() == [2]


def test_angles_missing_conductor(tmp_path):
    rc = main(["angles", "--curve", "0,-1,1,-10,-20", "--xmax", "100", "--out", str(tmp_path / "x.stan")])
    assert rc == 2


@pytest.mark.parametrize(
    "curve, conductor, message",
    [
        ("0,0,27,-81,0", "37", "singular at 3 although 3 does not divide the conductor 37"),  # 37a1 scaled by 3
        ("0,0,1,-1,0", "11", "conductor 11 does not fit the model"),  # 37a1 with a wrong conductor
    ],
)
def test_angles_model_and_conductor_mismatch_exit_2(tmp_path, capsys, curve, conductor, message):
    out = tmp_path / "x.stan"
    assert main(["angles", "--curve", curve, "--conductor", conductor, "--xmax", "100", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


def test_angles_coeff_source_equal(tmp_path, cache_11a1):
    from satotate.angles import load_cache, write_coeff_file

    series = load_cache(cache_11a1)
    coeffs = tmp_path / "c.coeffs"
    entries = [
        (int(p), round(2.0 * math.cos(t) * math.sqrt(p)))
        for p, t in zip(series.primes.tolist(), series.thetas)
    ]
    write_coeff_file(coeffs, "11a1", 2, 11, entries)
    out = tmp_path / "from_file.stan"
    rc = main(["angles", "--coeffs", str(coeffs), "--xmax", "5000", "--out", str(out)])
    assert rc == 0
    assert same_points(load_cache(out), series)


@pytest.mark.parametrize("option, value", [("--conductor", "11"), ("--label", "11a1")])
def test_angles_coeffs_rejects_an_unused_option(tmp_path, capsys, option, value):
    from satotate.angles import write_coeff_file

    coeffs = tmp_path / "c.coeffs"
    write_coeff_file(coeffs, "11a1", 2, 11, [(2, -2), (3, -1), (5, 1)])
    out = tmp_path / "x.stan"
    assert main(["angles", "--coeffs", str(coeffs), option, value, "--xmax", "5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {option} is not used with --coeffs\n"
    assert not out.exists()
    assert main(["angles", "--coeffs", str(coeffs), "--xmax", "5", "--out", str(out)]) == 0


def test_verify_csv_and_json_equal(cache_11a1, tmp_path):
    csv_out = tmp_path / "v.csv"
    json_out = tmp_path / "v.json"
    base = ["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "100,1000,5000"]
    assert main(base + ["--out", str(csv_out)]) == 0
    assert main(base + ["--format", "json", "--out", str(json_out)]) == 0

    rows_json = json.loads(json_out.read_text())["rows"]
    lines = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    assert header[:8] == [
        "x",
        "pi_x",
        "count",
        "expected",
        "error_abs",
        "exact_sup_discrepancy",
        "et_bound",
        "cheb_bound",
    ]
    for line, jrow in zip(lines[1:], rows_json):
        crow = dict(zip(header, line.split(",")))
        for key in header:
            assert float(crow[key]) == float(jrow[key]), key


def test_verify_full_interval_error_is_ramified_offset(cache_11a1, tmp_path):
    out = tmp_path / "full.csv"
    rc = main(
        ["verify", "--cache", str(cache_11a1), "--interval", f"0:{math.pi}", "--x", "5000", "--out", str(out)]
    )
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    # expected = pi(x), count = good primes; error = #{p | q, p <= x} = 1
    assert float(row["error_abs"]) == 1.0


def test_verify_recount_oracle(cache_11a1, tmp_path):
    out = tmp_path / "r.csv"
    assert main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "1000", "--out", str(out)]) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    from satotate.angles import load_cache

    series = load_cache(cache_11a1)
    manual = sum(1 for p, t in zip(series.primes, series.thetas) if p <= 1000 and t <= math.pi / 2)
    assert int(row["count"]) == manual
    assert int(row["pi_x"]) == prime_count(1000)


def test_verify_malformed_interval(cache_11a1):
    assert main(["verify", "--cache", str(cache_11a1), "--interval", "2:1", "--x", "100"]) == 2


def test_verify_range_exceeded(cache_11a1):
    assert main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "6000"]) == 2


def test_verify_missing_cache(tmp_path):
    assert main(["verify", "--cache", str(tmp_path / "no.stan"), "--interval", "half", "--x", "10"]) == 3


def test_verify_corrupt_cache(tmp_path, cache_11a1):
    bad = tmp_path / "bad.stan"
    bad.write_bytes(Path(cache_11a1).read_bytes()[:-3])
    assert main(["verify", "--cache", str(bad), "--interval", "half", "--x", "10"]) == 3


def test_joint_command(cache_11a1, cache_37a1, tmp_path):
    out = tmp_path / "j.csv"
    rc = main(
        [
            "joint",
            "--cache1",
            str(cache_11a1),
            "--cache2",
            str(cache_37a1),
            "--interval1",
            "half",
            "--interval2",
            "half",
            "--x",
            "1000,5000",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[2] == "joint_count"
    assert len(lines) == 3


def test_least_prime_command(cache_11a1, capsys):
    rc = main(["least-prime", "--cache", str(cache_11a1), "--interval", "0:1.5707963268"])
    assert rc == 0
    outp = capsys.readouterr().out
    assert outp.startswith("5 ")


def test_least_prime_from_curve(capsys):
    rc = main(
        [
            "least-prime",
            "--curve",
            "0,-1,1,-10,-20",
            "--conductor",
            "11",
            "--interval",
            f"0:{math.pi}",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.startswith("2 ")


def test_least_prime_from_curve_with_a_huge_ceiling_reads_only_what_it_needs(capsys):
    # the scan stops at p = 5; the sieve's base primes follow the primes read, not --ceiling
    args = ["--curve", "0,-1,1,-10,-20", "--conductor", "11", "--interval", "half"]
    assert main(["least-prime", *args, "--ceiling", "10000000000000000"]) == 0
    assert capsys.readouterr().out.split()[0] == "5"


def test_least_prime_needs_exactly_one_source(cache_11a1, capsys):
    base = ["least-prime", "--interval", "half"]
    both = ["--cache", str(cache_11a1), "--curve", "0,-1,1,-10,-20", "--conductor", "11"]
    for args in (base, base + both):
        assert main(args) == 2
        assert "give exactly one of --cache / --curve" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [("--conductor", "11"), ("--label", "11a1")])
def test_least_prime_cache_rejects_an_unused_option(cache_11a1, capsys, option, value):
    assert main(["least-prime", "--cache", str(cache_11a1), option, value, "--interval", "half"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {option} is not used with --cache\n"


def test_least_prime_rejects_a_ceiling_below_2(cache_11a1, capsys):
    for source in (["--cache", str(cache_11a1)], ["--curve", "0,-1,1,-10,-20", "--conductor", "11"]):
        assert main(["least-prime", *source, "--interval", "half", "--ceiling", "1"]) == 2
        assert "--ceiling must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize(
    "command, option",
    [
        ("verify --cache {c} --interval half --x 100 --out {o}", "--c-et1"),
        ("verify --cache {c} --interval half --x 100 --out {o}", "--c-st1"),
        ("verify --cache {c} --interval half --x 100 --out {o}", "--c-grh"),
        ("joint --cache1 {c} --cache2 {c} --interval1 half --interval2 half --x 100 --out {o}", "--c-et2"),
        ("least-prime --cache {c} --interval half", "--c"),
    ],
)
def test_user_constants_must_be_finite_and_positive(cache_11a1, tmp_path, capsys, command, option, value):
    args = command.format(c=cache_11a1, o=tmp_path / "o.csv").split()
    assert main([*args, option, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {option} must be finite and positive, got {float(value)!r}\n"
    assert captured.out == ""
    assert not (tmp_path / "o.csv").exists()


def test_cache_into_a_missing_directory_names_the_cache(tmp_path, capsys):
    out = tmp_path / "missing" / "s.stan"
    assert main(["simulate", "--seed", "1", "--xmax", "100", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"No such file or directory: '{out}'" in err
    assert ".tmp" not in err


def test_cheb_sums_command(cache_11a1, tmp_path):
    out = tmp_path / "cs.csv"
    rc = main(["cheb-sums", "--cache", str(cache_11a1), "--m", "0", "--x", "100", "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    from satotate.angles import load_cache
    import numpy as np

    series = load_cache(cache_11a1)
    ps, _ = series.upto(100)
    assert float(row["sum_weighted"]) == pytest.approx(float(np.sum(np.log(ps))), rel=1e-12)


def test_cheb_sums_m_min_above_m_exits_2(cache_11a1, tmp_path, capsys):
    out = tmp_path / "cs.csv"
    args = ["cheb-sums", "--cache", str(cache_11a1), "--m", "3", "--m-min", "5", "--x", "500"]
    assert main(args + ["--out", str(out)]) == 2
    assert "--m-min 5 exceeds --m 3" in capsys.readouterr().err
    assert not out.exists()


def test_smooth_command(cache_11a1, capsys):
    rc = main(["smooth", "--cache", str(cache_11a1), "--m", "0", "--x", "4000", "--ell", "4", "--eps", "0.1"])
    assert rc == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1].split("(")[0])
    assert abs(value - 4000) <= 3 * 0.1 * 4000


def test_smooth_ell_above_14_exits_2(cache_11a1, capsys):
    rc = main(["smooth", "--cache", str(cache_11a1), "--m", "0", "--x", "4000", "--ell", "170", "--eps", "0.1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: ell must lie in [1, 14], got ell = 170\n"


def test_fit_command(capsys):
    rc = main(["fit", "--xs", "10,100,1000", "--errors", "0.1,0.01,0.001"])
    assert rc == 0
    assert "slope = -1.0" in capsys.readouterr().out


@pytest.mark.parametrize("xs, errors", [("1,2,3", "1,inf,3"), ("1,nan,3", "1,2,3")])
def test_fit_rejects_non_finite_input(capfd, xs, errors):
    assert main(["fit", "--xs", xs, "--errors", errors]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == "error: xs and errors must be finite\n"  # no LAPACK message either


def test_fit_from_csv(cache_11a1, tmp_path, capsys):
    csv_out = tmp_path / "v.csv"
    main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "100,1000,5000", "--out", str(csv_out)])
    capsys.readouterr()
    rc = main(["fit", "--csv", str(csv_out), "--err-col", "et_bound"])
    assert rc == 0
    assert "slope" in capsys.readouterr().out


@pytest.mark.parametrize("option, value", [("--xs", "10,100"), ("--errors", "0.1,0.01")])
def test_fit_csv_rejects_an_unused_option(tmp_path, capsys, option, value):
    csv_in = tmp_path / "e.csv"
    csv_in.write_text("x,error_abs\n10,0.1\n100,0.01\n1000,0.001\n")
    assert main(["fit", "--csv", str(csv_in), option, value]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {option} is not used with --csv\n"
    assert main(["fit", "--csv", str(csv_in)]) == 0


@pytest.mark.parametrize("flag", ["--err-col", "--x-col"])
def test_fit_missing_column_is_a_usage_error(cache_11a1, tmp_path, capsys, flag):
    csv_out = tmp_path / "v.csv"
    main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "100,1000,5000", "--out", str(csv_out)])
    capsys.readouterr()
    assert main(["fit", "--csv", str(csv_out), flag, "missing"]) == 2
    err = capsys.readouterr().err
    header = [l for l in csv_out.read_text().splitlines() if not l.startswith("#")][0]
    assert "'missing'" in err and header in err


def test_fit_short_row_is_a_usage_error(tmp_path, capsys):
    csv_in = tmp_path / "short.csv"
    csv_in.write_text("x,error_abs\n10,0.1\n100\n")
    assert main(["fit", "--csv", str(csv_in)]) == 2
    assert "x,error_abs" in capsys.readouterr().err


def test_angles_nan_coefficient_exits_3(tmp_path, capsys):
    coeffs = tmp_path / "nan.coeffs"
    coeffs.write_text("# satotate-coeffs v1\nlabel=x\nweight=2\nlevel=1\nnormalized=true\n2 nan\n3 0.5\n")
    assert main(["angles", "--coeffs", str(coeffs), "--xmax", "3", "--out", str(tmp_path / "x.stan")]) == 3
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.stan").exists()


@pytest.mark.parametrize("p", ["99999999999999999999", str(2**63), str(-(2**63) - 1)])
def test_angles_p_beyond_int64_is_named_by_its_line(tmp_path, capsys, p):
    coeffs = tmp_path / "big.coeffs"
    coeffs.write_text(f"# satotate-coeffs v1\nlabel=x\nweight=2\nlevel=1\nnormalized=false\n{p} 1\n")
    assert main(["angles", "--coeffs", str(coeffs), "--xmax", "3", "--out", str(tmp_path / "x.stan")]) == 3
    assert f"expected 'p a_p' entries: line 6 reads '{p} 1'" in capsys.readouterr().err


def test_angles_weight_whose_deligne_bound_overflows_exits_2(tmp_path, capsys):
    # 2 p^((k-1)/2) at k = 1000 overflows a float from p = 5 on
    coeffs = tmp_path / "w1000.coeffs"
    coeffs.write_text("# satotate-coeffs v1\nlabel=x\nweight=1000\nlevel=1\nnormalized=false\n2 1\n3 1\n5 1\n7 1\n")
    assert main(["angles", "--coeffs", str(coeffs), "--xmax", "7", "--out", str(tmp_path / "x.stan")]) == 2
    assert capsys.readouterr().err == "error: 2 p^((k-1)/2) overflows a float at weight k = 1000, p = 7\n"
    assert not (tmp_path / "x.stan").exists()


@pytest.mark.parametrize(
    "weight, level, message",
    [
        ("3", "11", "weight must be an even integer >= 2"),
        ("2", "0", "level must be >= 1"),
        ("2", str(10**20), f"level {10**20} must be below 2^64"),
        ("2", str(2**64), f"level {2**64} must be below 2^64"),
        (str(2**32 + 2), "11", "must be below 2^32"),
    ],
)
def test_coeff_header_weight_or_level_out_of_range_exits_3(tmp_path, capsys, weight, level, message):
    coeffs = tmp_path / "h.coeffs"
    coeffs.write_text(f"# satotate-coeffs v1\nlabel=x\nweight={weight}\nlevel={level}\nnormalized=false\n2 -2\n3 -1\n")
    assert main(["angles", "--coeffs", str(coeffs), "--xmax", "3", "--out", str(tmp_path / "x.stan")]) == 3
    err = capsys.readouterr().err
    assert str(coeffs) in err and message in err


@pytest.mark.parametrize(
    "weight, level, message", [(3, 1, "weight must be an even integer >= 2"), (2, 0, "level must be >= 1")]
)
def test_cache_header_weight_or_level_out_of_range_exits_3(tmp_path, capsys, weight, level, message):
    cache = tmp_path / "h.stan"
    assert main(["simulate", "--seed", "1", "--xmax", "100", "--out", str(cache)]) == 0
    blob = bytearray(cache.read_bytes())
    struct.pack_into("<QI", blob, 8, level, weight)
    cache.write_bytes(blob)
    capsys.readouterr()
    assert main(["verify", "--cache", str(cache), "--interval", "half", "--x", "50"]) == 3
    err = capsys.readouterr().err
    assert str(cache) in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["cheb-sums", "--m", "2", "--x", "1000"],
        ["smooth", "--m", "1", "--x", "1500"],
        ["least-prime", "--interval", "0:3.14"],
    ],
)
def test_cache_whose_first_prime_is_below_2_exits_3(tmp_path, capsys, argv):
    cache = tmp_path / "p0.stan"
    assert main(["simulate", "--seed", "1", "--xmax", "2000", "--out", str(cache)]) == 0
    blob = bytearray(cache.read_bytes())
    blob[struct.calcsize("<4sIQIIQQ")] ^= 1 << 1  # the first record's p = 2 becomes 0
    cache.write_bytes(blob)
    capsys.readouterr()
    assert main([argv[0], "--cache", str(cache), *argv[1:]]) == 3
    assert capsys.readouterr() == ("", f"error: {cache}: bad records: prime 0 is below 2\n")


@pytest.mark.parametrize("command", ["angles", "least-prime"])
def test_curve_conductor_beyond_2_64_exits_2(tmp_path, capsys, command):
    # 11^20 passes the gcd check against 11a1's discriminant -11^5, but no STAN header holds it
    argv = [command, "--curve", "0,-1,1,-10,-20", "--conductor", str(11**20)]
    if command == "angles":
        argv += ["--xmax", "100", "--out", str(tmp_path / "x.stan")]
    else:
        argv += ["--interval", "half"]
    assert main(argv) == 2
    assert f"level {11**20} must be below 2^64" in capsys.readouterr().err


def test_verify_on_a_large_prime_level_counts_good_primes(tmp_path, capsys):
    # the level 2^61 - 1 has no prime factor <= x, so pi_x is the number of good primes
    cache = tmp_path / "m61.stan"
    assert main(["simulate", "--seed", "1", "--xmax", "1000", "--out", str(cache)]) == 0
    blob = bytearray(cache.read_bytes())
    struct.pack_into("<Q", blob, 8, 2**61 - 1)
    cache.write_bytes(blob)
    capsys.readouterr()
    assert main(["verify", "--cache", str(cache), "--interval", "half", "--x", "500,1000"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [int(row.split(",")[1]) for row in rows] == [prime_count(500), prime_count(1000)]


def test_every_header_bit_flip_and_truncation_exits_cleanly(tmp_path, capsys):
    good = tmp_path / "sim.stan"
    assert main(["simulate", "--seed", "5", "--xmax", "1000", "--out", str(good)]) == 0
    blob = good.read_bytes()
    size = struct.calcsize("<4sIQIIQQ")
    variants = [blob[:n] for n in range(size)]
    for bit in range(8 * size):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append(bytes(flipped))
    bad = str(tmp_path / "bad.stan")
    commands = (
        ["verify", "--cache", bad, "--interval", "half", "--x", "500", "--M", "3"],
        ["joint", "--cache1", bad, "--cache2", str(good), "--interval1", "half", "--interval2", "middle",
         "--x", "500", "--M", "3", "--grid", "4"],
        ["least-prime", "--cache", bad, "--interval", "middle"],
    )
    for variant in variants:
        Path(bad).write_bytes(variant)
        for argv in commands:
            try:
                code = main(argv)
            except Exception as exc:  # a traceback at the command line
                pytest.fail(f"{argv[0]} on header {variant[:size].hex()}: {exc!r}")
            assert code in (0, 2, 3), (argv[0], variant[:size].hex(), code)
    capsys.readouterr()


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.stan", tmp_path / "b.stan"
    assert main(["simulate", "--seed", "5", "--xmax", "2000", "--out", str(a)]) == 0
    assert main(["simulate", "--seed", "5", "--xmax", "2000", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    from satotate.angles import load_cache

    s = load_cache(a)
    assert s.meta.level_q == 1
    assert len(s) == prime_count(2000)


def test_simulate_rejects_x_max_below_2(tmp_path, capsys):
    out = tmp_path / "s.stan"
    assert main(["simulate", "--seed", "1", "--xmax", "1", "--out", str(out)]) == 2
    assert "x_max must be >= 2" in capsys.readouterr().err
    assert not out.exists()
    # the same rule as angles
    curve = ["--curve", "0,-1,1,-10,-20", "--conductor", "11"]
    assert main(["angles", *curve, "--xmax", "1", "--out", str(out)]) == 2
    assert "x_max must be >= 2" in capsys.readouterr().err


def test_console_entry_point():
    # the child imports the package this test imported, whether or not it is installed
    src = str(Path(satotate.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "satotate.cli", "fit", "--xs", "1,2,3", "--errors", "1,1,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "slope = 0.0" in proc.stdout

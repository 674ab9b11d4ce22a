import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from satotate.cli import main, parse_interval
from satotate.primes import prime_count


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
    assert load_cache(out).same_points(series)


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


def test_thread_byte_determinism(cache_11a1, tmp_path):
    outs = []
    for threads in ("1", "4", "8"):
        out = tmp_path / f"t{threads}.csv"
        rc = main(
            [
                "verify",
                "--cache",
                str(cache_11a1),
                "--interval",
                "middle",
                "--x",
                "100,500,1000,5000",
                "--threads",
                threads,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_threads_env_override(cache_11a1, tmp_path, monkeypatch):
    monkeypatch.setenv("SATOTATE_THREADS", "3")
    out = tmp_path / "env.csv"
    assert main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "100,200", "--out", str(out)]) == 0
    ref = tmp_path / "ref.csv"
    monkeypatch.delenv("SATOTATE_THREADS")
    assert main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "100,200", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


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


def test_least_prime_needs_exactly_one_source(cache_11a1, capsys):
    base = ["least-prime", "--interval", "half"]
    both = ["--cache", str(cache_11a1), "--curve", "0,-1,1,-10,-20", "--conductor", "11"]
    for args in (base, base + both):
        assert main(args) == 2
        assert "give exactly one of --cache / --curve" in capsys.readouterr().err


def test_least_prime_rejects_a_ceiling_below_2(cache_11a1, capsys):
    for source in (["--cache", str(cache_11a1)], ["--curve", "0,-1,1,-10,-20", "--conductor", "11"]):
        assert main(["least-prime", *source, "--interval", "half", "--ceiling", "1"]) == 2
        assert "--ceiling must be >= 2, got 1" in capsys.readouterr().err


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


def test_smooth_preset_rejected_at_desk_scale(cache_11a1):
    rc = main(["smooth", "--cache", str(cache_11a1), "--m", "1", "--x", "4000", "--preset", "paper-proof"])
    assert rc == 2


def test_fit_command(capsys):
    rc = main(["fit", "--xs", "10,100,1000", "--errors", "0.1,0.01,0.001"])
    assert rc == 0
    assert "slope = -1.0" in capsys.readouterr().out


def test_fit_from_csv(cache_11a1, tmp_path, capsys):
    csv_out = tmp_path / "v.csv"
    main(["verify", "--cache", str(cache_11a1), "--interval", "half", "--x", "100,1000,5000", "--out", str(csv_out)])
    capsys.readouterr()
    rc = main(["fit", "--csv", str(csv_out), "--err-col", "et_bound"])
    assert rc == 0
    assert "slope" in capsys.readouterr().out


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
    proc = subprocess.run(
        [sys.executable, "-m", "satotate.cli", "fit", "--xs", "1,2,3", "--errors", "1,1,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "slope = 0.0" in proc.stdout

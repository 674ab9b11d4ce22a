"""The thread split of the analysis rows: split_map, and the verify / cheb-sums bytes under it."""

import sys
import threading

import pytest

import satotate.curves as curves_module
import satotate.discrepancy as discrepancy_module
from satotate.cli import main
from satotate.curves import split_map


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(curves_module.os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.fixture(scope="module")
def sim_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("split") / "sim.stan"
    assert main(["simulate", "--seed", "11", "--xmax", "1300000", "--out", str(path)]) == 0  # ~1e5 points
    return path


def verify_args(cache, out, *extra):
    return ["verify", "--cache", str(cache), "--interval", "middle", "--x", "1000,100000,1300000",
            "--out", str(out), *extra]


def cheb_sums_args(cache, out, *extra):
    return ["cheb-sums", "--cache", str(cache), "--m-min", "0", "--m", "10", "--x", "1000,1300000",
            "--out", str(out), *extra]


def test_split_map_returns_item_order_on_every_thread(monkeypatch):
    use_cpus(monkeypatch, 3)
    seen = []

    def fn(i):
        seen.append((i, threading.current_thread()))
        return i * i

    assert split_map(fn, range(7)) == [i * i for i in range(7)]
    by_item = dict(seen)
    assert len(set(by_item.values())) == 3
    assert by_item[0] is by_item[3] is by_item[6] is threading.main_thread()  # share 0 is the caller's


def test_split_map_loses_no_result_under_fast_thread_switching(monkeypatch):
    use_cpus(monkeypatch, 8)  # more threads than this host has cores
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert split_map(lambda i: (i, i * i), range(500)) == [(i, i * i) for i in range(500)]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_split_map_raises_the_first_failure_in_item_order(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    ran = []

    def fn(i):
        ran.append(i)
        if i in (1, 2, 5):
            raise ValueError(f"item {i}")
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="^item 1$"):
        split_map(fn, range(6))
    assert threading.active_count() == before
    assert 1 in ran


def test_split_map_never_nests_and_runs_serial_off_the_main_thread(monkeypatch):
    use_cpus(monkeypatch, 8)
    ran_on = []

    def inner(i):
        ran_on.append(threading.current_thread())
        return i

    def outer(i):
        return split_map(inner, range(4))

    assert split_map(outer, range(2)) == [[0, 1, 2, 3]] * 2
    assert len(set(ran_on)) == 2  # one per outer share: no inner split
    assert split_map(inner, range(3), cap=1) == [0, 1, 2]
    ran_on.clear()
    worker = threading.Thread(target=lambda: split_map(inner, range(4)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert set(ran_on) == {worker}


@pytest.mark.parametrize("command", [verify_args, cheb_sums_args])
def test_csv_bytes_do_not_depend_on_the_cpu_count(sim_cache, tmp_path, monkeypatch, command):
    outs = []
    for cpus in (1, 2, 8):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"c{cpus}.csv"
        before = threading.active_count()
        assert main(command(sim_cache, out)) == 0
        assert threading.active_count() == before
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "command, extra, message",
    [
        (verify_args, ("--M", "0"), "M must be >= 1"),
        (verify_args, ("--M", "2"), "M must be >= 3"),
        (verify_args, ("--x", "0"), "series has no points up to x"),
        (cheb_sums_args, ("--x", "2"), "x must be >= 3"),
        (cheb_sums_args, ("--m", "600"), "m must be <= 512"),
    ],
)
@pytest.mark.parametrize("cpus", [1, 2])
def test_errors_keep_their_text_and_exit_code(sim_cache, tmp_path, monkeypatch, capsys, command, extra, message, cpus):
    use_cpus(monkeypatch, cpus)
    before = threading.active_count()
    assert main(command(sim_cache, tmp_path / "e.csv", *extra)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert threading.active_count() == before


def test_cheb_sum_bound_stays_on_the_calling_thread(sim_cache, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 8)
    real_bound, real_et = discrepancy_module.cheb_sum_bound, discrepancy_module._erdos_turan
    bound_threads, et_threads = [], []

    def bound(*args):
        bound_threads.append(threading.current_thread())
        return real_bound(*args)

    def et(*args):
        et_threads.append(threading.current_thread())
        return real_et(*args)

    monkeypatch.setattr(discrepancy_module, "cheb_sum_bound", bound)
    monkeypatch.setattr(discrepancy_module, "_erdos_turan", et)
    assert main(verify_args(sim_cache, tmp_path / "v.csv")) == 0
    assert bound_threads == [threading.main_thread()] * 3
    assert len(et_threads) == 3 and threading.main_thread() not in et_threads


@pytest.mark.parametrize(
    "threads, xs, most",
    [("2", "1000,100000,1300000", 2), ("3", "1000,100000,1300000", 3), ("4", "1300000", 2)],
)
def test_verify_threads_caps_the_threads_at_work(sim_cache, tmp_path, monkeypatch, threads, xs, most):
    use_cpus(monkeypatch, 8)
    real = discrepancy_module._erdos_turan
    baseline = threading.active_count()
    peak = []

    def et(*args):
        peak.append(threading.active_count() - baseline + 1)
        return real(*args)

    monkeypatch.setattr(discrepancy_module, "_erdos_turan", et)
    args = ["verify", "--cache", str(sim_cache), "--interval", "half", "--x", xs, "--threads", threads]
    assert main(args + ["--out", str(tmp_path / "t.csv")]) == 0
    assert max(peak) == most

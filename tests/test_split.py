"""The process split of the pairwise nodes and the lockstep blocks: split_map, and the output bytes under it."""

import inspect
import math
import multiprocessing
import os
import pickle
import time
from multiprocessing import active_children

import numpy as np
import pytest

import satotate.curves as curves_module
import satotate.discrepancy as discrepancy_module
import satotate.errors as errors_module
import satotate.measure as measure_module
from satotate.angles import angle_from_ap, load_cache, write_coeff_file
from satotate.cli import main
from satotate.curves import split_map
from satotate.errors import DeligneViolation
from satotate.primes import primes_array


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(curves_module.os, "sched_getaffinity", lambda pid: set(range(n)))


def use_small_nodes(monkeypatch, leaf: int = 4096) -> None:
    """Nodes of leaf elements (numpy's block is 128), so a 1e5-point cache splits many ways."""
    monkeypatch.setattr(measure_module, "PAIRWISE_LEAF", leaf)


def recorder(path):
    """(record, read): record(tag) appends 'tag pid' to path from any process; read() gives the (tag, pid) pairs."""

    def record(tag) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{tag} {os.getpid()}\n")

    def read() -> list[tuple[str, int]]:
        return [(tag, int(pid)) for tag, pid in (line.split() for line in path.read_text().splitlines())]

    return record, read


@pytest.fixture(scope="module")
def sim_cache(tmp_path_factory):
    path = tmp_path_factory.mktemp("split") / "sim.stan"
    assert main(["simulate", "--seed", "11", "--xmax", "1300000", "--out", str(path)]) == 0  # ~1e5 points
    return path


def verify_args(cache, out, *extra):
    return ["verify", "--cache", str(cache), "--interval", "middle", "--x", "1000,100000,1300000",
            "--out", str(out), *extra]


def joint_args(cache, out, *extra):
    return ["joint", "--cache1", str(cache), "--cache2", str(cache), "--interval1", "half", "--interval2", "middle",
            "--x", "1000,1300000", "--out", str(out), *extra]


def cheb_sums_args(cache, out, *extra):
    return ["cheb-sums", "--cache", str(cache), "--m-min", "0", "--m", "10", "--x", "1000,1300000",
            "--out", str(out), *extra]


def test_split_map_returns_item_order_with_share_0_in_the_caller(monkeypatch):
    use_cpus(monkeypatch, 3)
    results = split_map(lambda i: (i * i, os.getpid()), range(7))
    assert [square for square, _ in results] == [i * i for i in range(7)]
    pids = [pid for _, pid in results]
    assert pids[0] == pids[3] == pids[6] == os.getpid()  # share 0 is the caller's
    assert pids[1] == pids[4] and pids[2] == pids[5]
    assert len(set(pids)) == 3
    assert active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_split_map_raises_the_first_failure_in_item_order(monkeypatch, tmp_path, cpus):
    use_cpus(monkeypatch, cpus)
    record, read = recorder(tmp_path / "ran")

    def fn(i):
        record(i)
        if i in (1, 2, 5):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="^item 1$"):  # item 1 lies in a child's share from 2 CPUs on
        split_map(fn, range(16))
    assert active_children() == []
    ran = read()
    if cpus > 1:
        assert ("1", os.getpid()) not in ran
        assert ("3", os.getpid()) not in ran
    if cpus == 2:  # each share stops at its first failure: 0, 2 here and 1 in the child
        assert sorted(tag for tag, _ in ran) == ["0", "1", "2"]


def test_split_map_raises_a_failure_of_share_0_before_a_later_child_failure(monkeypatch):
    use_cpus(monkeypatch, 2)

    def fn(i):
        if i in (0, 3):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="^item 0$"):
        split_map(fn, range(4))
    assert active_children() == []


def test_a_split_inside_a_share_runs_in_that_share_only(monkeypatch):
    use_cpus(monkeypatch, 8)

    def outer(i):
        return split_map(lambda j: os.getpid(), range(4))

    first, second, *_ = split_map(outer, range(4))
    assert first == [os.getpid()] * 4  # share 0: the inner split stays in this process
    assert len(set(second)) == 1 and second[0] != os.getpid()  # share 1: in its child alone
    assert active_children() == []


def test_a_child_that_dies_raises_and_leaves_no_process(monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError, match="exited with code 3"):
        split_map(fn, range(4))
    assert active_children() == []


def test_an_interrupt_in_the_caller_terminates_the_children(monkeypatch):
    use_cpus(monkeypatch, 3)
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return i

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        split_map(fn, range(6))
    assert time.monotonic() - start < 30
    assert active_children() == []


def test_a_result_that_does_not_pickle_fails_loudly_in_the_caller(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="exited with code 1"):
        split_map(lambda i: (lambda: i), range(4))  # the child's lambda cannot travel back
    assert active_children() == []


@pytest.mark.parametrize(
    "cls",
    [ValueError] + [c for _, c in inspect.getmembers(errors_module, inspect.isclass) if issubclass(c, Exception)],
)
def test_errors_survive_the_pipe_from_a_child(cls):
    exc = pickle.loads(pickle.dumps(cls("singular at 233")))
    assert type(exc) is cls
    assert str(exc) == "singular at 233"


@pytest.mark.parametrize("command", [verify_args, cheb_sums_args])
def test_csv_bytes_do_not_depend_on_the_cpu_count(sim_cache, tmp_path, monkeypatch, command):
    outs = []
    for cpus in (1, 2, 8):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"c{cpus}.csv"
        assert main(command(sim_cache, out)) == 0
        assert active_children() == []
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize(
    "command, extra, message",
    [
        (verify_args, ("--M", "0"), "M must be >= 3"),
        (verify_args, ("--M", "2"), "M must be >= 3"),
        (verify_args, ("--M", "513"), "M must be <= 512"),
        (joint_args, ("--M", "513"), "M must be <= 512"),
        (verify_args, ("--x", "0"), "x must be >= 3"),
        (cheb_sums_args, ("--x", "2"), "x must be >= 3"),
        (cheb_sums_args, ("--m", "600"), "m must be <= 512"),
    ],
)
@pytest.mark.parametrize("cpus", [1, 2])
def test_errors_keep_their_text_and_exit_code(sim_cache, tmp_path, monkeypatch, capsys, command, extra, message, cpus):
    use_cpus(monkeypatch, cpus)
    assert main(command(sim_cache, tmp_path / "e.csv", *extra)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert active_children() == []


@pytest.mark.parametrize("command", [verify_args, joint_args])
def test_M_512_still_runs(sim_cache, tmp_path, command):
    out = tmp_path / "m.csv"
    assert main(command(sim_cache, out, "--x", "1000", "--M", "512")) == 0
    assert out.read_text().count("\n") == 3  # the version line, the header and the row of x = 1000
    assert active_children() == []


@pytest.mark.parametrize(
    "command, names, xs",
    [
        (verify_args, ("count_in_interval", "exact_discrepancy_1d", "erdos_turan_bound", "cheb_sum_bound"), 3),
        (joint_args, ("joint_count", "joint_box_discrepancy", "cheb_sum_bound_2d"), 2),
    ],
    ids=["verify", "joint"],
)
def test_report_columns_run_once_per_row_in_the_calling_process(sim_cache, tmp_path, monkeypatch, command, names, xs):
    use_cpus(monkeypatch, 8)
    record, read = recorder(tmp_path / "columns")

    def traced(name):
        real = getattr(discrepancy_module, name)

        def column(*args):
            record(name)
            return real(*args)

        return column

    for name in names:
        monkeypatch.setattr(discrepancy_module, name, traced(name))
    assert main(command(sim_cache, tmp_path / "out.csv")) == 0
    assert sorted(read()) == sorted((name, os.getpid()) for name in names for _ in range(xs))


def test_cheb_sums_forks_once_per_x(sim_cache, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 8)
    use_small_nodes(monkeypatch)
    record, read = recorder(tmp_path / "splits")
    real = measure_module.split_map

    def split(fn, items):
        items = list(items)
        if len(items) // 2 >= 2:
            record("fork")
        return real(fn, items)

    monkeypatch.setattr(measure_module, "split_map", split)
    assert main(cheb_sums_args(sim_cache, tmp_path / "c.csv")) == 0  # m = 0..10 at x = 1000 and 1300000
    series = load_cache(sim_cache)
    forking = [x for x in (1000, 1_300_000) if len(measure_module.pairwise_nodes(series.upto(x)[0].size)) >= 4]
    assert forking == [1_300_000]
    assert len(read()) == len(forking)


def test_rows_below_the_floor_start_no_process(sim_cache, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 8)
    assert primes_array(2, 100_000).size < 2 * measure_module.PAIRWISE_LEAF

    def no_fork(*args):
        raise AssertionError("a split below the floor forked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert main(verify_args(sim_cache, tmp_path / "v.csv", "--x", "1000,100000")) == 0
    assert main(cheb_sums_args(sim_cache, tmp_path / "c.csv", "--x", "1000,100000")) == 0
    assert main(["smooth", "--cache", str(sim_cache), "--m", "1", "--x", "50000"]) == 0


def smooth_bytes(cache, work, capsys) -> bytes:
    assert main(["smooth", "--cache", str(cache), "--m", "3", "--x", "1000000", "--ell", "5"]) == 0
    return capsys.readouterr().out.encode()


def simulate_bytes(cache, work, capsys) -> bytes:
    assert main(["simulate", "--seed", "11", "--xmax", "1300000", "--out", str(work / "s.stan")]) == 0
    return (work / "s.stan").read_bytes()


def angles_coeffs_bytes(cache, work, capsys) -> bytes:
    series = load_cache(cache)
    path = work / "f.coeffs"
    if not path.exists():  # integer a_p within the Deligne bound, one for every prime of the cache
        aps = np.trunc(2.0 * np.sqrt(series.primes) * np.cos(series.thetas))
        write_coeff_file(path, "f", 2, 1, zip(series.primes.tolist(), aps.tolist()))
    assert main(["angles", "--coeffs", str(path), "--xmax", str(series.x_max), "--out", str(work / "c.stan")]) == 0
    return (work / "c.stan").read_bytes()


def csv_bytes(command):
    def run(cache, work, capsys) -> bytes:
        assert main(command(cache, work / "out.csv")) == 0
        return (work / "out.csv").read_bytes()

    return run


@pytest.mark.parametrize(
    "output",
    [smooth_bytes, simulate_bytes, angles_coeffs_bytes, csv_bytes(verify_args), csv_bytes(cheb_sums_args)],
    ids=["smooth", "simulate", "angles-coeffs", "verify", "cheb-sums"],
)
def test_node_split_bytes_do_not_depend_on_the_cpu_count(sim_cache, tmp_path, monkeypatch, capsys, output):
    use_cpus(monkeypatch, 1)
    expected = output(sim_cache, tmp_path, capsys)  # whole nodes of PAIRWISE_LEAF, one process
    use_small_nodes(monkeypatch)
    for cpus in (1, 2, 8):
        use_cpus(monkeypatch, cpus)
        assert output(sim_cache, tmp_path, capsys) == expected, cpus
        assert active_children() == []


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_angle_from_ap_errors_name_the_whole_array(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    use_small_nodes(monkeypatch, 128)
    ps = primes_array(2, 40_000)  # 4203 primes in 45 nodes
    ap = np.zeros(ps.size)
    # nodes 15, 17 and 30: the first bad p in array order, ps[1500], lies in a child's share from 2 CPUs on
    ap[[3000, 1500, 1700]] = 1e6
    with pytest.raises(DeligneViolation, match=f"at p = {ps[1500]}$"):
        angle_from_ap(ap, ps, 2)
    # from weight 200 on, 2 p^99.5 overflows above p = 1252; the bound check comes first and names the largest p
    with pytest.raises(ValueError, match=f"at weight k = 200, p = {ps[-1]}$"):
        angle_from_ap(ap, ps, 200)
    assert np.array_equal(angle_from_ap(ap[:300], ps[:300], 2), np.full(300, math.pi / 2))
    assert active_children() == []

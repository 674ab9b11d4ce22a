"""The process split of the analysis rows and the lockstep blocks: split_map, and the verify / cheb-sums bytes under it."""

import inspect
import os
import pickle
import time
from multiprocessing import active_children

import pytest

import satotate.curves as curves_module
import satotate.discrepancy as discrepancy_module
import satotate.errors as errors_module
from satotate.cli import main
from satotate.curves import split_map


def use_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(curves_module.os, "sched_getaffinity", lambda pid: set(range(n)))


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
        split_map(fn, range(6))
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

    first, second = split_map(outer, range(2))
    assert first == [os.getpid()] * 4  # share 0: the inner split stays in this process
    assert len(set(second)) == 1 and second[0] != os.getpid()  # share 1: in its child alone
    assert split_map(lambda j: os.getpid(), range(3), cap=1) == [os.getpid()] * 3
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
        split_map(fn, range(3))
    assert time.monotonic() - start < 30
    assert active_children() == []


def test_a_result_that_does_not_pickle_fails_loudly_in_the_caller(monkeypatch):
    use_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="exited with code 1"):
        split_map(lambda i: (lambda: i), range(2))  # the child's lambda cannot travel back
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
        (verify_args, ("--M", "0"), "M must be >= 1"),
        (verify_args, ("--M", "2"), "M must be >= 3"),
        (verify_args, ("--M", "513"), "M must be <= 512"),
        (joint_args, ("--M", "513"), "M must be <= 512"),
        (verify_args, ("--x", "0"), "series has no points up to x"),
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


def test_cheb_sum_bound_runs_in_the_calling_process(sim_cache, tmp_path, monkeypatch):
    use_cpus(monkeypatch, 8)
    record, read = recorder(tmp_path / "columns")
    real_bound, real_et = discrepancy_module.cheb_sum_bound, discrepancy_module._erdos_turan

    def bound(*args):
        record("bound")
        return real_bound(*args)

    def et(*args):
        record("et")
        return real_et(*args)

    monkeypatch.setattr(discrepancy_module, "cheb_sum_bound", bound)
    monkeypatch.setattr(discrepancy_module, "_erdos_turan", et)
    assert main(verify_args(sim_cache, tmp_path / "v.csv")) == 0
    ran = read()
    assert [pid for tag, pid in ran if tag == "bound"] == [os.getpid()] * 3
    et_pids = [pid for tag, pid in ran if tag == "et"]
    assert len(et_pids) == 3 and os.getpid() not in et_pids

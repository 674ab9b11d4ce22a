"""Tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import LayerTally, Span, Target, Tracer, covered, self_times  # noqa: E402
from workloads import Command, Inputs, Merged, Workload  # noqa: E402

cli = run.import_program()


def test_self_time_with_nested_and_overlapping_spans():
    spans = [
        Span("root", "cli", "main", 0.0, 10.0),
        Span("a", "discrepancy", "f", 1.0, 4.0, parent=0),
        Span("b", "measure", "g", 3.0, 6.0, parent=0),  # overlaps a
        Span("c", "measure", "h", 8.0, 12.0, parent=0),  # runs past its parent
        Span("d", "measure", "k", 2.0, 3.0, parent=1),  # nested in a
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 2, 3 - 1, 3, 4, 1])
    assert covered([(1, 4), (2, 3), (3, 6)], 0, 10) == pytest.approx(5)
    assert covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2)
    assert covered([], 0, 10) == 0.0


def test_flipped_output_byte_raises_fail_ratio(tmp_path):
    cmd = Command("simulate", ("simulate", "--seed", "1", "--xmax", "1000", "--out", str(tmp_path / "sim.stan")),
                  files=("sim.stan",))
    _, [(_, code, out, err)] = run.run_pass(cli, Inputs([cmd], 1))
    expected = run.output_digests(cmd, tmp_path, out)
    tally = run.Tally()
    tally.record(cmd.key, run.check_command(cmd, code, out, err, tmp_path, expected))
    assert (tally.attempted, tally.failed) == (1, 0)

    blob = bytearray((tmp_path / "sim.stan").read_bytes())
    blob[-1] ^= 0x01
    (tmp_path / "sim.stan").write_bytes(bytes(blob))
    tally.record(cmd.key, run.check_command(cmd, code, out, err, tmp_path, expected))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.fail_ratio == 0.5


def test_nonzero_exit_counts_as_failure(tmp_path):
    cmd = Command("verify", ("verify", "--cache", str(tmp_path / "missing.stan"), "--interval", "half", "--x", "10"))
    code, out, err = run.run_command(cli, cmd.argv)
    assert code != 0
    assert run.check_command(cmd, code, out, err, tmp_path, {})


def test_missing_wrap_target_is_recorded_as_absent():
    import satotate.measure as measure

    original = measure.mu_st
    tracer = Tracer()
    tracer.install([
        Target("satotate.curves.no_such_function"),
        Target("satotate.no_such_module.f"),
        Target("satotate.measure.mu_st"),
    ])
    try:
        with tracer.span("pass", "other"):
            measure.mu_st(measure.Interval(0.0, 1.0))
    finally:
        tracer.uninstall()
    assert measure.mu_st is original
    assert tracer.absent == ["satotate.curves.no_such_function", "satotate.no_such_module.f"]
    assert [(s.name, s.layer, s.parent) for s in tracer.spans] == [
        ("pass", "other", -1),
        ("satotate.measure.mu_st", "measure", 0),
    ]
    tally = LayerTally()
    tally.add_pass(tracer.spans, tracer.spans[0].end - tracer.spans[0].start)
    metrics = tally.metrics(untraced_wall=1.0)
    assert metrics["curves.busy_s"] == 0.0
    assert sum(metrics[f"share.{layer}"] for layer in ("measure", "other")) == pytest.approx(100.0)


def test_generator_target_times_each_item_not_the_consumer():
    import satotate.discrepancy as discrepancy
    from satotate.primes import PrimeRange

    tracer = Tracer()
    tracer.install([Target("satotate.discrepancy.primes_in")])
    try:
        primes = list(discrepancy.primes_in(PrimeRange(2, 30)))
    finally:
        tracer.uninstall()
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len([s for s in tracer.spans if s.tag == 1]) == len(primes)
    tally = LayerTally()
    tally.add_spans(tracer.spans)
    assert tally.metrics(1.0)["primes.primes_out"] == len(primes)


def test_merged_workload_runs_its_parts_in_order(tmp_path):
    class Part(Workload):
        def __init__(self, name, units):
            self.name, self.units = name, units

        def setup(self, variant, work):
            return Inputs([Command(f"{self.name}-cmd", ("x",))], self.units, {"units": self.units}, {"variant": variant})

        def oracle(self, inputs, work, stdout):
            return [(f"{self.name} check", None if inputs.oracle_data["variant"] == 3 else "wrong inputs")]

        def probe_curves(self, inputs):
            return ["11a1"]

    merged = Merged("both", "why", Part("a", 2), Part("b", 5))
    inputs = merged.setup(3, tmp_path)
    assert [cmd.key for cmd in inputs.commands] == ["a-cmd", "b-cmd"]
    assert inputs.units_per_pass == 7
    assert inputs.sizes == {"a": {"units": 2}, "b": {"units": 5}}
    assert merged.oracle(inputs, tmp_path, {}) == [("a check", None), ("b check", None)]
    assert merged.probe_curves(inputs) == ["11a1"]

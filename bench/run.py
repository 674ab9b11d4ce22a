"""satotate benchmark: one workload, measured for a fixed time, outputs checked.

    python3 bench/run.py --workload count --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --record          # rewrite bench/reference.json

Run from the root of a checkout; the program is imported from its ``src``.
Each run sets up its inputs five times (set-up time is the median), then
repeats one pass of the workload's CLI commands for about ``--seconds`` (a
pass starts only while it is expected to end within half a pass of that).
After every pass the outputs are compared with the digests in reference.json,
and after the last pass the workload's oracles run; neither is timed.  Every
command and every oracle check is one attempted operation; a nonzero exit, a
digest mismatch or a failed check makes it a failed one.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, the median pass;
``primes_per_s``, the median over passes of the good primes a pass handles
(angles built, primes scanned, records ingested or cache points loaded) per
second; ``peak_rss_mb`` of the process; ``setup_s``, the median set-up
(input generation plus importing the CLI in a fresh interpreter).  The
failure ratio is ``failed / attempted`` of the result line.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics: per-pass self times of each module, taken from spans
recorded around calls into the program (see spans.py), and each module's
share of the traced wall time.  Layers a workload leaves idle read 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer, LayerTally, LAYERS
from workloads import BATTERY, VARIANTS, WORKLOADS, good_primes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
PROBE_PRIMES = 32  # good primes above 1e6 timed per probed curve in the traced run


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages.extend(f"{what}: {p}" for p in problems[:3])

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def import_program():
    """satotate.cli from this checkout's src; SystemExit(2) when it is not there."""
    src = ROOT / "src"
    if not (src / "satotate" / "cli.py").is_file():
        print(f"error: no program source at {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    os.environ.pop("SATOTATE_THREADS", None)
    cli = importlib.import_module("satotate.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: satotate imported from {cli.__file__}, not from {src}", file=sys.stderr)
        raise SystemExit(2)
    return cli


def import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", "import satotate.cli"], env=env, cwd=ROOT, check=True)


def run_command(cli, argv) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected argv
            code = exc.code
        except Exception:  # the run goes on; the command counts as failed
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_digests(cmd, work: Path, stdout: str) -> dict[str, str]:
    found = {f"{cmd.key}:{name}": digest((work / name).read_bytes()) for name in cmd.files if (work / name).is_file()}
    if cmd.stdout:
        found[f"{cmd.key}:stdout"] = digest(stdout.encode())
    return found


def check_command(cmd, code, stdout: str, stderr: str, work: Path, expected: dict[str, str]) -> list[str]:
    """Problems with one command's exit code and outputs against the reference digests."""
    problems = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
    found = output_digests(cmd, work, stdout)
    for key in [f"{cmd.key}:{name}" for name in cmd.files] + ([f"{cmd.key}:stdout"] if cmd.stdout else []):
        if key not in expected:
            problems.append(f"no reference digest for {key}")
        elif found.get(key) != expected[key]:
            problems.append(f"{key} differs from the reference")
    return problems


def run_pass(cli, inputs, tracer: Tracer | None = None):
    """Run the pass's commands, traced when a tracer is given.

    Returns (wall seconds, [(cmd, code, stdout, stderr)]).
    """
    results = []
    if tracer:
        tracer.install()
    try:
        with tracer.span("pass", "other") if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            for cmd in inputs.commands:
                results.append((cmd, *run_command(cli, cmd.argv)))
            wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    return wall, results


def probe_ap(tracer: Tracer, tally: LayerTally, labels: list[str]) -> None:
    """Time the program's a_p on the first good primes above 1e6 of each curve."""
    curves = importlib.import_module("satotate.curves")
    if not hasattr(curves, "ec_ap"):
        tracer.absent.append("satotate.curves.ec_ap")
        return
    tracer.spans.clear()
    tracer.install()
    try:
        for label in labels:
            ainvs, conductor = BATTERY[label]
            curve = curves.CurveSpec(*ainvs, conductor=conductor, label=label)
            primes = good_primes(1_001_000, conductor)
            for p in primes[primes > 1_000_000][:PROBE_PRIMES].tolist():
                curves.ec_ap(curve, p)
    finally:
        tracer.uninstall()
    for span in tracer.spans:
        if span.layer == "curves":
            tally.add_ap_sample(span)
    tracer.spans.clear()


def run_context(workload, seed: int, variant: int, sizes: dict, absent: list[str]) -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload.name,
        "why": workload.why,
        "parts": {part.name: part.why for part in workload.parts},
        "seed": seed,
        "variant": variant,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "inputs": sizes,
        "absent_wrap_targets": absent,
    }


def summary(values: list[float]) -> str:
    """Median, count and quartiles of one run's samples."""
    text = f"median {statistics.median(values):.6g} of {len(values)}"
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        text += f", q1 {q[0]:.6g}, q3 {q[2]:.6g}"
    return text


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    cli = import_program()
    workload = WORKLOADS[name]
    variant = seed % VARIANTS
    expected = json.loads(REFERENCE.read_text())["digests"][name][str(variant)]
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            import_in_fresh_interpreter()
            inputs = workload.setup(variant, work)
            setup_times.append(time.perf_counter() - t0)

        tally = Tally()
        tracer = Tracer()
        layers = LayerTally()
        walls, rates = [], []
        stdout: dict[str, str] = {}
        t_start = time.perf_counter()
        rounds: list[float] = []
        while True:
            t_round = time.perf_counter()
            for pass_tracer in (None, tracer) if trace else (None,):
                wall, results = run_pass(cli, inputs, pass_tracer)
                for cmd, code, out, err in results:
                    stdout[cmd.key] = out
                    tally.record(cmd.key, check_command(cmd, code, out, err, work, expected))
                if pass_tracer:
                    layers.add_pass(tracer.spans, wall)
                    tracer.spans.clear()
                else:
                    walls.append(wall)
                    rates.append(inputs.units_per_pass / wall)
            rounds.append(time.perf_counter() - t_round)
            # start another round only if it should end within half a round of --seconds
            if time.perf_counter() - t_start + statistics.median(rounds) / 2 >= seconds:
                break

        try:
            checks = workload.oracle(inputs, work, stdout)
        except Exception as exc:  # e.g. a failed command left no output to check
            checks = [("oracle", f"could not run: {exc!r}")]
        for check, problem in checks:
            tally.record(f"oracle {check}", [problem] if problem else [])
        if trace and workload.probe_curves(inputs):
            probe_ap(tracer, layers, workload.probe_curves(inputs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print(f"satotate benchmark: workload={name} seed={seed} variant={variant} trace={int(trace)}")
    print(f"  why: {workload.why}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if trace:
        metrics = layers.metrics(statistics.median(walls))
        print(f"  traced pass wall_s: {summary(layers.walls)}; untraced: {summary(walls)}")
        print("  share of the traced wall_s by module (self time per pass):")
        for layer in LAYERS:
            own = layers.layer_self[layer] / len(layers.walls)
            print(f"    {layer:<12} {own:10.4f} s  {metrics[f'share.{layer}']:6.2f} %")
        print(f"  absent wrap targets: {', '.join(tracer.absent) or 'none'}")
        for key, value in metrics.items():
            print(f"  {key:<32} {value:.6g} {units[key]}")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "primes_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        print(f"  wall_s        s    passes: {summary(walls)}")
        print(f"  primes_per_s  1/s  passes: {summary(rates)}")
        print(f"  peak_rss_mb   MB   {metrics['peak_rss_mb']:.6g}")
        print(f"  setup_s       s    set-ups: {summary(setup_times)}")
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}", file=sys.stderr)
        return 1
    result = {name: {"value": metrics[name], "unit": units[name]} for name in wanted}
    print(f"  fail_ratio    {tally.failed}/{tally.attempted} = {tally.fail_ratio:.4g}")
    for message in tally.messages[:10]:
        print(f"  FAILED {message}")
    print("context " + json.dumps(run_context(workload, seed, variant, inputs.sizes, tracer.absent)))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": result}))
    return 0


def record() -> int:
    """Run one pass of every variant of every workload and store its output digests."""
    cli = import_program()
    digests: dict = {}
    work = ROOT / ".bench_work" / f"record-{os.getpid()}"
    failed = False
    try:
        for name, workload in WORKLOADS.items():
            digests[name] = {}
            for variant in range(VARIANTS):
                work.mkdir(parents=True)
                inputs = workload.setup(variant, work)
                _, results = run_pass(cli, inputs)
                stdout, found = {}, {}
                for cmd, code, out, err in results:
                    if code != 0:
                        print(f"{name}/{variant} {cmd.key}: exit {code}: {err}", file=sys.stderr)
                        failed = True
                    stdout[cmd.key] = out
                    found.update(output_digests(cmd, work, out))
                for check, problem in workload.oracle(inputs, work, stdout):
                    if problem:
                        print(f"{name}/{variant}: {check}: {problem}", file=sys.stderr)
                        failed = True
                digests[name][str(variant)] = found
                print(f"{name}/{variant}: {json.dumps(inputs.sizes)} {json.dumps(stdout)}", flush=True)
                shutil.rmtree(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if failed:
        print("error: outputs failed their checks; reference not written", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps({"variants": VARIANTS, "digests": digests}, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json instead of measuring")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

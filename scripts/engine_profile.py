#!/usr/bin/env python3
"""Profile the lockstep a_p engine (curves.ec_ap_array) on one curve.

Counts points at every good prime up to --xmax, in this process only so that
every block is seen here, and prints the rows per second, the blocks of each
pass (rows, largest prime, time, peak of what it allocates), the rows that take pass 2
and the primes that fall back to the scalar route, with their total time and
time per call.  The peaks come from a second, traced run, so the first run's
time carries no tracing cost.

    python scripts/engine_profile.py --curve 11a1 --xmax 200000
"""

import argparse
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from satotate import curves
from satotate.curves import NAIVE_BSGS_CROSSOVER, NAMED_CURVES, ec_ap_array
from satotate.primes import prime_divisors, primes_array


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="11a1", choices=sorted(NAMED_CURVES))
    parser.add_argument("--xmax", type=int, default=200_000)
    args = parser.parse_args()

    curve = NAMED_CURVES[args.curve]
    ps = primes_array(2, args.xmax)
    ps = ps[~np.isin(ps, prime_divisors(curve.conductor, args.xmax))]
    lockstep = int((ps > NAIVE_BSGS_CROSSOVER).sum())

    blocks, scalar = [], []
    real_pass, real_ec_ap = curves._lockstep_pass, curves.ec_ap

    def traced_pass(p, A, B, salt, chi_wanted=None):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        start = time.perf_counter()
        result = real_pass(p, A, B, salt, chi_wanted)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1] - held  # what the pass adds to what its caller holds
        blocks.append((1 if chi_wanted is None else 2, p.size, int(p.max()), seconds, peak))
        return result

    def counted_ec_ap(curve, p):
        start = time.perf_counter()
        a_p = real_ec_ap(curve, p)
        scalar.append((p, time.perf_counter() - start))
        return a_p

    curves._cpu_count = lambda: 1  # one process: split_map maps the blocks here
    curves._lockstep_pass, curves.ec_ap = traced_pass, counted_ec_ap
    start = time.perf_counter()
    ec_ap_array(curve, ps)
    seconds = time.perf_counter() - start
    timed, fallbacks = blocks[:], [s for p, s in scalar if p > NAIVE_BSGS_CROSSOVER]
    blocks.clear()
    tracemalloc.start()
    ec_ap_array(curve, ps)
    tracemalloc.stop()

    print(f"{curve.label} to {args.xmax}: {ps.size} good primes, {lockstep} lockstep rows (p > {NAIVE_BSGS_CROSSOVER})")
    print(f"ec_ap_array: {seconds:.3f} s, {lockstep / seconds:,.0f} rows/s in one process")
    print("pass  rows  largest p   ms  peak MB")
    for (pass_no, rows, p_max, block_s, _), (*_, peak) in zip(timed, blocks):
        print(f"{pass_no:4d} {rows:5d} {p_max:10d} {1e3 * block_s:5.1f} {peak / 1e6:8.3f}")
    pass_1 = [rows for pass_no, rows, *_ in timed if pass_no == 1]
    print(f"rows per block in pass 1: {', '.join(map(str, pass_1))}")
    print(f"pass-2 rows: {sum(rows for pass_no, rows, *_ in timed if pass_no == 2)}")
    fallback_s = sum(fallbacks)
    print(f"scalar fallbacks: {len(fallbacks)} (p > {NAIVE_BSGS_CROSSOVER}) in {fallback_s:.4f} s, "
          f"{1e3 * fallback_s / max(len(fallbacks), 1):.3f} ms per call")
    return 0


if __name__ == "__main__":
    sys.exit(main())

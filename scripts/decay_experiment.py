#!/usr/bin/env python3
"""Equidistribution-decay experiment for one curve.

Builds (or loads) an angle cache, measures the normalized interval-count
error at a ladder of x values, fits the log-log decay exponent, and prints
the exact discrepancy, the Erdos-Turan bound, and the theoretical bound
shapes side by side.

    python scripts/decay_experiment.py --label 11a1 --xmax 1000000
    python scripts/decay_experiment.py --label 37a1 --cache 37a1.stan --interval middle
"""

import argparse
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from satotate.angles import build_angle_series, load_cache, save_cache
from satotate.cli import parse_interval
from satotate.curves import NAMED_CURVES
from satotate.discrepancy import discrepancy_report, fit_decay_exponent, theoretical_bound_curve
from satotate.measure import mu_st


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="11a1", choices=sorted(NAMED_CURVES))
    parser.add_argument("--cache", help="load/store the series here (built if absent)")
    parser.add_argument("--xmax", type=int, default=10**6)
    parser.add_argument("--interval", default="middle")
    parser.add_argument("--M", type=int, default=50)
    args = parser.parse_args()

    curve = NAMED_CURVES[args.label]
    interval = parse_interval(args.interval)
    mu = mu_st(interval)

    if args.cache and Path(args.cache).exists():
        series = load_cache(args.cache)
        print(f"loaded {args.cache}: {len(series)} points to {series.x_max}")
    else:
        t0 = time.time()
        series = build_angle_series(curve, args.xmax)
        print(f"built {args.label} to {args.xmax}: {len(series)} points in {time.time() - t0:.1f}s")
        if args.cache:
            save_cache(series, args.cache)

    xs = []
    x = 100
    while x <= series.x_max:
        xs.append(x)
        x *= 10

    print(f"\ninterval [{interval.alpha:.4f}, {interval.beta:.4f}], mu_ST = {mu:.6f}")
    print(f"{'x':>9} {'count':>8} {'norm err':>12} {'exact disc':>12} {'ET bound':>10} "
          f"{'st1 shape':>11} {'grh shape':>11}")
    k, q = series.meta.weight_k, series.meta.level_q
    errs = []
    for x in xs:
        rep = discrepancy_report(series, interval, x, M=args.M)
        err = abs(rep.count / rep.pi_x - mu)
        errs.append(err)
        print(
            f"{x:>9} {rep.count:>8} {err:>12.6f} "
            f"{rep.exact_sup_discrepancy:>12.6f} "
            f"{rep.et_bound:>10.5f} "
            f"{theoretical_bound_curve(x, k, q, 'unconditional-st1', pi_x=rep.pi_x):>11.1f} "
            f"{theoretical_bound_curve(x, k, q, 'grh-thm13'):>11.1f}"
        )

    if len(xs) >= 3:
        slope, intercept = fit_decay_exponent(xs, errs)
        print(f"\nfitted decay: err ~ x^{slope:.3f} (intercept {intercept:.3f}); "
              f"random-model expectation is about -0.5")
    return 0


if __name__ == "__main__":
    sys.exit(main())

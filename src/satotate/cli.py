"""Command-line front end: build caches, run verification campaigns, emit CSV/JSON.

Every refusal raises; ``main`` alone prints it (``error: ...``) and exits 3 on
an OSError or FormatError, 2 on any other SatotateError or ValueError.  Options
are checked before any cache is read.  Outputs hold no timestamps, so they are
byte-identical across runs and CPU counts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from satotate import prime_sums
from satotate.angles import AngleSeries, FormMeta, build_angle_series, load_cache, save_cache
from satotate.curves import CurveSpec
from satotate.discrepancy import (
    DEFAULT_ET_CONSTANT,
    DEFAULT_GRH_LEAST_PRIME_C,
    DEFAULT_SEARCH_CEILING,
    check_constant,
    check_grid,
    discrepancy_report,
    fit_decay_exponent,
    joint_report,
    least_prime_in_interval,
    theoretical_bound_curve,
)
from satotate.errors import FormatError, SatotateError
from satotate.measure import Interval, check_least, check_m, check_x, mu_st, st_quantile
from satotate.primes import primes_array

CSV_VERSION = "satotate-csv v1"

EXIT_USAGE = 2
EXIT_IO = 3

INTERVAL_PRESETS = {
    "half": (0.0, math.pi / 2.0),
    "middle": (math.pi / 4.0, 3.0 * math.pi / 4.0),
}


def parse_interval(text: str) -> Interval:
    """'alpha:beta' in radians, or a named preset (half, middle)."""
    if text in INTERVAL_PRESETS:
        return Interval(*INTERVAL_PRESETS[text])
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"interval must be 'alpha:beta' or one of {sorted(INTERVAL_PRESETS)}")
    try:
        alpha, beta = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ValueError(f"bad interval {text!r}: {exc}") from exc
    return Interval(alpha, beta)


def parse_curve(text: str, conductor: int | None, label: str) -> CurveSpec:
    try:
        coeffs = [int(c) for c in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad curve coefficients {text!r}") from exc
    if len(coeffs) != 5:
        raise ValueError("curve needs exactly 5 coefficients a1,a2,a3,a4,a6")
    if conductor is None:
        raise ValueError("--conductor is required with --curve")
    return CurveSpec(*coeffs, conductor=conductor, label=label)


def reject_unused(args, given: str, *options: str) -> None:
    """Raise ValueError naming the first of options that is set, since the command ignores it beside given."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise ValueError(f"{option} is not used with {given}")


def curve_or_path(args, option: str) -> CurveSpec | str:
    """The path given as option, or the curve of --curve: exactly one of the two."""
    path = getattr(args, option[2:])
    if (path is None) == (args.curve is None):
        raise ValueError(f"give exactly one of {option} / --curve")
    if path is not None:
        reject_unused(args, option, "--conductor", "--label")
        return path
    return parse_curve(args.curve, args.conductor, args.label or "curve")


def parse_x_list(text: str) -> list[int]:
    try:
        xs = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad x list {text!r}") from exc
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError("x values must be strictly ascending")
    return xs


def write_rows(rows: list[dict], fmt: str, out, command: str) -> None:
    """Serialise rows to CSV or JSON, columns in the first row's key order; identical floats either way."""
    columns = list(rows[0].keys())
    rows = [
        {k: float(v) if isinstance(v, (float, np.floating)) else int(v) for k, v in row.items()}
        for row in rows
    ]
    if fmt == "csv":
        lines = [f"# {CSV_VERSION} command={command} columns={','.join(columns)}", ",".join(columns)]
        for row in rows:
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({"format": CSV_VERSION, "command": command, "rows": rows}, indent=1) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


# -- subcommand implementations --------------------------------------------------


def cmd_angles(args) -> int:
    t0 = time.perf_counter()
    series = build_angle_series(curve_or_path(args, "--coeffs"), args.xmax)
    save_cache(series, args.out)
    print(f"wrote {args.out}: {len(series)} points to x_max={series.x_max} "
          f"in {time.perf_counter() - t0:.2f}s")
    return 0


def cmd_simulate(args) -> int:
    """Synthetic series: angles drawn i.i.d. from the Sato-Tate measure."""
    check_least(args.xmax, 2, "x_max")
    rng = np.random.default_rng(args.seed)
    ps = primes_array(2, args.xmax)
    thetas = st_quantile(rng.uniform(0.0, 1.0, ps.size))
    series = AngleSeries(FormMeta(f"sim{args.seed}", 2, 1), args.xmax, ps, thetas)
    save_cache(series, args.out)
    print(f"wrote {args.out}: {len(series)} simulated points (seed={args.seed})")
    return 0


def cmd_verify(args) -> int:
    for option, value in (("--c-et1", args.c_et1), ("--c-st1", args.c_st1), ("--c-grh", args.c_grh)):
        check_constant(option, value)
    interval = parse_interval(args.interval)
    xs = parse_x_list(args.x)
    check_x(xs[0])  # the least x: the list ascends
    check_m(args.M, 3, "M")
    series = load_cache(args.cache)
    k, q = series.meta.weight_k, series.meta.level_q
    rows = []
    for x in xs:
        rep = discrepancy_report(series, interval, x, M=args.M, c_et1=args.c_et1)
        row = asdict(rep)
        row["st1_curve"] = theoretical_bound_curve(x, k, q, "unconditional-st1", args.c_st1, pi_x=rep.pi_x)
        row["grh_curve"] = theoretical_bound_curve(x, k, q, "grh-thm13", args.c_grh)
        rows.append(row)
    write_rows(rows, args.format, args.out, "verify")
    return 0


def cmd_joint(args) -> int:
    check_constant("--c-et2", args.c_et2)
    i1 = parse_interval(args.interval1)
    i2 = parse_interval(args.interval2)
    xs = parse_x_list(args.x)
    check_m(args.M, 3, "M")
    check_grid(args.grid)
    s1 = load_cache(args.cache1)
    s2 = load_cache(args.cache2)
    rows = [asdict(joint_report(s1, s2, i1, i2, x, M=args.M, grid=args.grid, c_et2=args.c_et2)) for x in xs]
    write_rows(rows, args.format, args.out, "joint")
    return 0


def cmd_least_prime(args) -> int:
    source = curve_or_path(args, "--cache")
    if args.ceiling < 2:
        raise ValueError(f"--ceiling must be >= 2, got {args.ceiling}")
    check_constant("--c", args.c)
    interval = parse_interval(args.interval)
    check_constant("the interval's Sato-Tate measure", mu_st(interval))
    if args.cache is not None:
        source = load_cache(source)
    result = least_prime_in_interval(source, interval, ceiling=args.ceiling, c=args.c)
    print(f"{result.p} (grh-shape ceiling {result.grh_ceiling})")
    return 0


def cmd_cheb_sums(args) -> int:
    m_min = args.m if args.m_min is None else args.m_min
    if m_min > args.m:
        raise ValueError(f"--m-min {m_min} exceeds --m {args.m}")
    check_m(m_min)  # both ends, before the range of m is listed
    check_m(args.m)
    xs = parse_x_list(args.x)
    check_x(xs[0])
    series = load_cache(args.cache)
    rows = [
        {"m": m, "x": x, "sum_plain": plain, "sum_weighted": weighted, "partial_summation_residual": residual}
        for x in xs
        for m, plain, weighted, residual in prime_sums.cheb_sum_rows(series, range(m_min, args.m + 1), x)
    ]
    write_rows(rows, args.format, args.out, "cheb-sums")
    return 0


def cmd_smooth(args) -> int:
    weight = prime_sums.SmoothingWeight(args.x, args.ell, args.eps)
    check_m(args.m)
    series = load_cache(args.cache)
    value = prime_sums.smoothed_psi(series, args.m, weight)
    phi0 = prime_sums.weight_laplace(weight, 0.0).real
    print(
        f"psi_m(x) = {value!r} (m={args.m}, x={args.x}, ell={weight.ell}, "
        f"eps={weight.eps!r}, Phi(0)={phi0!r})"
    )
    return 0


def cmd_fit(args) -> int:
    if args.csv is not None:
        reject_unused(args, "--csv", "--xs", "--errors")
        x_col = "x" if args.x_col is None else args.x_col
        err_col = "error_abs" if args.err_col is None else args.err_col
        xs, errors = [], []
        text = Path(args.csv).read_text(encoding="utf-8")
        header = None
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if header is None:
                header = parts
                for col in (x_col, err_col):
                    if col not in header:
                        raise ValueError(f"{args.csv}: no column {col!r} in header {','.join(header)}")
                continue
            if len(parts) != len(header):
                raise ValueError(f"{args.csv}: row {line!r} does not match header {','.join(header)}")
            row = dict(zip(header, parts))
            xs.append(float(row[x_col]))
            errors.append(float(row[err_col]))
    else:
        if args.xs is None or args.errors is None:
            raise ValueError("give --csv or both --xs and --errors")
        reject_unused(args, "--xs", "--x-col", "--err-col")
        xs = [float(v) for v in args.xs.split(",")]
        errors = [float(v) for v in args.errors.split(",")]
    slope, intercept = fit_decay_exponent(xs, errors)
    print(f"slope = {slope!r}, intercept = {intercept!r}")
    return 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satotate",
        description="Sato-Tate angle statistics: caches, discrepancy reports, prime sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    curve = argparse.ArgumentParser(add_help=False)  # the options of a --curve source
    curve.add_argument("--curve", help="a1,a2,a3,a4,a6 of a long Weierstrass model")
    curve.add_argument("--conductor", type=int, help="conductor of the --curve model")
    curve.add_argument("--label", help="name of the --curve model in messages")

    p = sub.add_parser("angles", parents=[curve], help="build an angle cache from a curve or coefficient file")
    p.add_argument("--coeffs", help="path of a coefficient file")
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("simulate", help="write a synthetic cache with i.i.d. Sato-Tate angles")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="interval counts, discrepancies, and bounds per x")
    p.add_argument("--cache", required=True)
    p.add_argument("--interval", required=True, help="'alpha:beta' radians, or half/middle")
    p.add_argument("--x", required=True, help="comma-separated ascending x values")
    p.add_argument("--M", type=int, default=50)
    p.add_argument("--c-et1", dest="c_et1", type=float, default=DEFAULT_ET_CONSTANT)
    p.add_argument("--c-st1", dest="c_st1", type=float, default=1.0)
    p.add_argument("--c-grh", dest="c_grh", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("joint", help="joint counts and independence diagnostics")
    p.add_argument("--cache1", required=True)
    p.add_argument("--cache2", required=True)
    p.add_argument("--interval1", required=True)
    p.add_argument("--interval2", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--c-et2", dest="c_et2", type=float, default=DEFAULT_ET_CONSTANT)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_joint)

    p = sub.add_parser("least-prime", parents=[curve], help="least good prime with theta_p in the interval")
    p.add_argument("--cache")
    p.add_argument("--interval", required=True)
    p.add_argument("--ceiling", type=int, default=DEFAULT_SEARCH_CEILING)
    p.add_argument("--c", type=float, default=DEFAULT_GRH_LEAST_PRIME_C)
    p.set_defaults(func=cmd_least_prime)

    p = sub.add_parser("cheb-sums", help="plain and log-weighted Chebyshev prime sums")
    p.add_argument("--cache", required=True)
    p.add_argument("--m", type=int, required=True, help="largest Chebyshev index")
    p.add_argument("--m-min", dest="m_min", type=int, default=None)
    p.add_argument("--x", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_cheb_sums)

    p = sub.add_parser("smooth", help="smoothed prime-power sum psi_m(x) with the plateau weight")
    p.add_argument("--cache", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--ell", type=int, default=4, help="order of the weight's polynomial edges, 1 to 14")
    p.add_argument("--eps", type=float, default=0.1)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("fit", help="least-squares decay exponent of log(error) vs log(x)")
    p.add_argument("--csv", help="CSV produced by verify/joint")
    p.add_argument("--x-col", dest="x_col", help="column of x with --csv (default: x)")
    p.add_argument("--err-col", dest="err_col", help="column of the errors with --csv (default: error_abs)")
    p.add_argument("--xs", help="comma-separated x values")
    p.add_argument("--errors", help="comma-separated errors")
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:  # a malformed file is an I/O error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SatotateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: generated inputs, CLI passes and output oracles.

Every workload is a closed loop of ``satotate`` CLI commands run in-process.
Two workloads are measured, each a pass over two parts: ``count`` is the
point-counting path (``build`` then ``search``) and ``cache`` the path with
no point counting (``ingest`` then ``analyze``).  Longer passes over two
parts average out more of a shared host's drift than four short workloads.
Inputs come from the workload seed only; the program sees the generated
files and argv.  The seed selects one of ``VARIANTS`` input variants, so the
expected output digests of every seed can be recorded once (reference.json).

The oracles here share no code with the program: they count points with
their own Legendre sums, sieve their own primes and parse STAN caches with
their own reader.
"""

from __future__ import annotations

import csv
import math
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VARIANTS = 8

# Non-CM curves of the test battery: label -> (a-invariants, conductor).
BATTERY = {
    "11a1": ((0, -1, 1, -10, -20), 11),
    "37a1": ((0, 0, 1, -1, 0), 37),
    "389a1": ((0, 1, 1, -2, 0), 389),
    "5077a1": ((0, 0, 1, -7, 6), 5077),
}

BUILD_XMAX = 200_000
SEARCH_TARGETS = (12_000, 35_000, 110_000)
SEARCH_EARLY_HITS = 0.005  # expected hits before the target prime, per interval
INGEST_XMAX = 10_000_000
SIMULATE_XMAX = 1_000_000
ANALYZE_XMAX = 10_000_000
BSGS_CROSSOVER = 229  # below this the program counts points without BSGS
ORACLE_SAMPLE = 32

_STAN_HEADER = struct.Struct("<4sIQIIQQ")
_STAN_RECORD = np.dtype([("p", "<u8"), ("theta", "<f8")])


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the outputs whose digests are checked."""

    key: str
    argv: tuple[str, ...]
    files: tuple[str, ...] = ()
    stdout: bool = False


@dataclass
class Inputs:
    """What set-up produced: the pass, the work it does and the oracle's data."""

    commands: list[Command]
    units_per_pass: int
    sizes: dict = field(default_factory=dict)
    oracle_data: dict = field(default_factory=dict)


# -- shared helpers -----------------------------------------------------------


def sieve(n: int) -> np.ndarray:
    """All primes <= n."""
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(n) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return np.flatnonzero(is_prime)


def good_primes(n: int, level: int) -> np.ndarray:
    ps = sieve(n)
    return ps[level % ps != 0]


def legendre_ap(ainvs: tuple[int, ...], p: int) -> int:
    """a_p = -sum_x chi(x^3 - 27 c4 x - 54 c6) for a good prime p > 3."""
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    x = np.arange(p, dtype=np.int64)
    values = (x * x % p * x + (-27 * c4 % p) * x + (-54 * c6 % p)) % p
    squares = np.zeros(p, dtype=bool)
    squares[x * x % p] = True
    chi = np.where(squares[values], 1, -1)
    chi[values == 0] = 0
    return -int(chi.sum())


def st_cdf(theta):
    return (theta - np.sin(2.0 * theta) / 2.0) / math.pi


def st_sample(rng: np.random.Generator, n: int) -> np.ndarray:
    """n angles with density (2/pi) sin^2: uniform proposals, accepted with prob sin^2."""
    out = np.empty(0)
    while out.size < n:
        theta = rng.uniform(0.0, math.pi, 2 * n + 64)
        keep = rng.uniform(0.0, 1.0, theta.size) < np.sin(theta) ** 2
        out = np.concatenate((out, theta[keep]))
    return out[:n]


def write_stan(path: Path, level: int, x_max: int, primes: np.ndarray, thetas: np.ndarray) -> None:
    records = np.empty(primes.size, dtype=_STAN_RECORD)
    records["p"], records["theta"] = primes, thetas
    with open(path, "wb") as fh:
        fh.write(_STAN_HEADER.pack(b"STAN", 1, level, 2, 0, x_max, primes.size))
        fh.write(records.tobytes())


def read_stan(path: Path) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(header fields, primes, thetas) of a STAN cache."""
    blob = path.read_bytes()
    header = _STAN_HEADER.unpack_from(blob)
    records = np.frombuffer(blob, dtype=_STAN_RECORD, offset=_STAN_HEADER.size)
    return header, records["p"].astype(np.int64), records["theta"]


def interval_arg(lo: float, hi: float) -> str:
    return f"{lo!r}:{hi!r}"


def _curve_args(label: str) -> list[str]:
    ainvs, conductor = BATTERY[label]
    return ["--curve", ",".join(map(str, ainvs)), "--conductor", str(conductor), "--label", label]


# -- workloads ----------------------------------------------------------------


class Workload:
    name = ""
    why = ""

    def setup(self, variant: int, work: Path) -> Inputs:
        raise NotImplementedError

    def oracle(self, inputs: Inputs, work: Path, stdout: dict[str, str]) -> list[tuple[str, str | None]]:
        """(check, problem or None) for each independent check of the last pass's outputs."""
        raise NotImplementedError

    def probe_curves(self, inputs: Inputs) -> list[str]:
        """Curves whose a_p the traced run also times near 1e6."""
        return []


class Build(Workload):
    name = "build"
    why = "bulk point counting: angles --curve to 2e5 for two curves, so curves (BSGS) is almost all of the time"

    def setup(self, variant, work):
        labels = random.Random(variant).sample(sorted(BATTERY), 2)
        commands, units = [], 0
        for label in labels:
            commands.append(
                Command(
                    f"angles-{label}",
                    ("angles", *_curve_args(label), "--xmax", str(BUILD_XMAX),
                     "--out", str(work / f"{label}.stan")),
                    files=(f"{label}.stan",),
                )
            )
            units += int(good_primes(BUILD_XMAX, BATTERY[label][1]).size)
        return Inputs(commands, units, {"curves": labels, "x_max": BUILD_XMAX, "primes": units},
                      {"labels": labels, "variant": variant})

    def oracle(self, inputs, work, stdout):
        checks = []
        rng = random.Random(inputs.oracle_data["variant"])
        for label in inputs.oracle_data["labels"]:
            ainvs, _ = BATTERY[label]
            _, primes, thetas = read_stan(work / f"{label}.stan")
            index = np.flatnonzero((primes > BSGS_CROSSOVER) & (primes < 100_000))
            for i in rng.sample(index.tolist(), ORACLE_SAMPLE):
                p = int(primes[i])
                ap, expected = round(2.0 * math.sqrt(p) * math.cos(thetas[i])), legendre_ap(ainvs, p)
                checks.append((f"{label} a_{p}", None if ap == expected else f"cached {ap}, Legendre count {expected}"))
        return checks

    def probe_curves(self, inputs):
        return inputs.oracle_data["labels"]


class Search(Workload):
    name = "search"
    why = "on-demand point counting: least-prime --curve streams primes and stops at the first hit, so per-prime latency counts"

    def setup(self, variant, work):
        rng = random.Random(variant)
        commands, scans, units = [], [], 0
        for j, target in enumerate(SEARCH_TARGETS):
            label = rng.choice(sorted(BATTERY))
            ainvs, conductor = BATTERY[label]
            primes = good_primes(2 * target, conductor)
            target = int(target * rng.uniform(0.99, 1.01))
            k = int(np.searchsorted(primes, target))
            p_star = int(primes[k])
            theta = math.acos(legendre_ap(ainvs, p_star) / (2.0 * math.sqrt(p_star)))
            # width so that about SEARCH_EARLY_HITS good primes before p_star land inside
            density = max((2.0 / math.pi) * math.sin(theta) ** 2, 1e-3)
            half = min(1e-3, SEARCH_EARLY_HITS / (2.0 * k * density))
            lo, hi = max(0.0, theta - half), min(math.pi, theta + half)
            commands.append(
                Command(
                    f"least-prime-{j}",
                    ("least-prime", *_curve_args(label), "--interval", interval_arg(lo, hi),
                     "--ceiling", str(p_star)),
                    stdout=True,
                )
            )
            scans.append({"label": label, "p_star": p_star, "lo": lo, "hi": hi})
            units += k + 1  # good primes scanned when the hit is p_star, as it is for every variant
        return Inputs(commands, units, {"scans": scans, "primes": units}, {"scans": scans})

    def oracle(self, inputs, work, stdout):
        checks = []
        for j, scan in enumerate(inputs.oracle_data["scans"]):
            p = int(stdout[f"least-prime-{j}"].split()[0])
            ainvs, conductor = BATTERY[scan["label"]]
            theta = math.acos(legendre_ap(ainvs, p) / (2.0 * math.sqrt(p)))
            ok = conductor % p != 0 and p <= scan["p_star"] and scan["lo"] <= theta <= scan["hi"]
            checks.append((f"least-prime-{j} hit {p}", None if ok else f"theta {theta!r} is outside the interval"))
        return checks

    def probe_curves(self, inputs):
        return [scan["label"] for scan in inputs.oracle_data["scans"]][:1]


class Ingest(Workload):
    name = "ingest"
    why = "cache writing without point counting: parse a 664k-record coefficient file, convert, save, then simulate"

    def setup(self, variant, work):
        rng = np.random.default_rng(variant)
        level = int(rng.choice([c for _, c in BATTERY.values()]))
        primes = good_primes(INGEST_XMAX, level)
        bound = 2.0 * np.sqrt(primes)
        aps = np.trunc(bound * np.cos(st_sample(rng, primes.size))).astype(np.int64)
        path = work / "coeffs.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# satotate-coeffs v1\nlabel=ingest{variant}\nweight=2\nlevel={level}\nnormalized=false\n")
            ps, values = primes.tolist(), aps.tolist()
            for i in range(0, len(ps), 100_000):
                fh.write("".join(f"{p} {a}\n" for p, a in zip(ps[i : i + 100_000], values[i : i + 100_000])))
        commands = [
            Command("angles-coeffs",
                    ("angles", "--coeffs", str(path), "--xmax", str(INGEST_XMAX),
                     "--out", str(work / "ingest.stan")),
                    files=("ingest.stan",)),
            Command("simulate",
                    ("simulate", "--seed", str(variant), "--xmax", str(SIMULATE_XMAX),
                     "--out", str(work / "sim.stan")),
                    files=("sim.stan",)),
        ]
        sizes = {"records": int(primes.size), "bytes": path.stat().st_size, "level": level}
        return Inputs(commands, int(primes.size), sizes,
                      {"level": level, "primes": primes, "aps": aps, "variant": variant})

    def oracle(self, inputs, work, stdout):
        data = inputs.oracle_data
        header, primes, thetas = read_stan(work / "ingest.stan")
        expected = np.arccos(np.clip(data["aps"] / (2.0 * np.sqrt(data["primes"])), -1.0, 1.0))
        ingest_ok = (
            header[2] == data["level"]
            and header[5] == INGEST_XMAX
            and np.array_equal(primes, data["primes"])
            and np.max(np.abs(thetas - expected)) <= 1e-10
        )
        _, sim_primes, sim_thetas = read_stan(work / "sim.stan")
        u = np.random.default_rng(data["variant"]).uniform(0.0, 1.0, sim_primes.size)
        sim_ok = np.array_equal(sim_primes, sieve(SIMULATE_XMAX)) and np.max(np.abs(st_cdf(sim_thetas) - u)) <= 1e-12
        return [
            ("ingest.stan", None if ingest_ok else "header or angles differ from arccos(a_p / 2 sqrt p) of the input"),
            ("sim.stan", None if sim_ok else "angles are not the Sato-Tate quantiles of the seeded uniforms"),
        ]


class Analyze(Workload):
    name = "analyze"
    why = "cache reading: verify, joint, cheb-sums, smooth and least-prime on two 664k-point caches; discrepancy, prime_sums and measure do the work"

    def setup(self, variant, work):
        rng = np.random.default_rng(1000 + variant)
        levels = rng.choice([c for _, c in BATTERY.values()], size=2, replace=False)
        points = {}
        for name, level in zip("AB", levels):
            primes = good_primes(ANALYZE_XMAX, int(level))
            write_stan(work / f"{name}.stan", int(level), ANALYZE_XMAX, primes, st_sample(rng, primes.size))
            points[name] = int(primes.size)
        centre = float(rng.uniform(0.5, math.pi - 0.5))
        lo, hi = centre - 1e-4, centre + 1e-4
        a, b = str(work / "A.stan"), str(work / "B.stan")
        commands = [
            Command("verify-half", ("verify", "--cache", a, "--interval", "half",
                                    "--x", "100000,1000000,10000000", "--out", str(work / "verify_half.csv")),
                    files=("verify_half.csv",)),
            Command("verify-middle", ("verify", "--cache", b, "--interval", "middle",
                                      "--x", "100000,1000000,10000000", "--out", str(work / "verify_middle.csv")),
                    files=("verify_middle.csv",)),
            Command("joint", ("joint", "--cache1", a, "--cache2", b, "--interval1", "half",
                              "--interval2", "middle", "--x", "1000000,10000000", "--out", str(work / "joint.csv")),
                    files=("joint.csv",)),
            Command("cheb-sums", ("cheb-sums", "--cache", a, "--m-min", "0", "--m", "10",
                                  "--x", "1000000,10000000", "--out", str(work / "cheb.csv")),
                    files=("cheb.csv",)),
        ]
        commands += [
            Command(f"smooth-m{m}", ("smooth", "--cache", b, "--m", str(m), "--x", "9000000"), stdout=True)
            for m in (0, 1, 2, 4)
        ]
        commands.append(
            Command("least-prime", ("least-prime", "--cache", a, "--interval", interval_arg(lo, hi)), stdout=True)
        )
        # points loaded per pass: A by verify, joint, cheb-sums and least-prime; B by verify, joint and smooth x4
        loaded = 4 * points["A"] + 6 * points["B"]
        sizes = {"points": points, "bytes_per_cache": (work / "A.stan").stat().st_size,
                 "levels": [int(v) for v in levels], "points_loaded_per_pass": loaded}
        return Inputs(commands, loaded, sizes, {"interval": (lo, hi)})

    def oracle(self, inputs, work, stdout):
        checks = []
        for name in ("verify_half.csv", "verify_middle.csv"):
            for row in _csv_rows(work / name):
                ok = float(row["exact_sup_discrepancy"]) <= float(row["et_bound"])
                checks.append((f"{name} x={row['x']}", None if ok else "exact discrepancy above the Erdos-Turan bound"))
        for row in _csv_rows(work / "cheb.csv"):
            ok = float(row["partial_summation_residual"]) <= 1e-9
            checks.append((f"cheb.csv m={row['m']} x={row['x']}", None if ok else "residual above 1e-9"))
        lo, hi = inputs.oracle_data["interval"]
        _, primes, thetas = read_stan(work / "A.stan")
        hits = np.flatnonzero((thetas >= lo) & (thetas <= hi))
        p = int(stdout["least-prime"].split()[0])
        ok = hits.size > 0 and p == int(primes[hits[0]])
        checks.append((f"least-prime --cache hit {p}", None if ok else "not the cache's least prime in the interval"))
        return checks


def _csv_rows(path: Path) -> list[dict]:
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    return list(csv.DictReader(lines))


class Merged(Workload):
    """One pass over the commands of several parts, in order; their work and checks add up."""

    def __init__(self, name: str, why: str, *parts: Workload) -> None:
        self.name, self.why, self.parts = name, why, parts

    def setup(self, variant, work):
        inputs = {part.name: part.setup(variant, work) for part in self.parts}
        return Inputs([cmd for part in inputs.values() for cmd in part.commands],
                      sum(part.units_per_pass for part in inputs.values()),
                      {name: part.sizes for name, part in inputs.items()}, inputs)

    def oracle(self, inputs, work, stdout):
        return [check for part in self.parts for check in part.oracle(inputs.oracle_data[part.name], work, stdout)]

    def probe_curves(self, inputs):
        return list(dict.fromkeys(label for part in self.parts
                                  for label in part.probe_curves(inputs.oracle_data[part.name])))


WORKLOADS = {w.name: w for w in (
    Merged("count", "point counting: angles --curve to 2e5 for two curves (bulk BSGS), then three least-prime "
                    "--curve scans that count one prime at a time and stop at the first hit", Build(), Search()),
    Merged("cache", "no point counting: angles --coeffs on a 664k-record file and simulate (cache writing), then "
                    "verify, joint, cheb-sums, smooth and least-prime on two 664k-point caches", Ingest(), Analyze()),
)}

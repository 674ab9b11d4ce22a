"""Angle series: build from curves or coefficient files, persist as caches.

An AngleSeries holds theta_p = arccos(a_f(p) / (2 p^((k-1)/2))) for every
good prime p <= x_max of one form, in increasing p.  Primes dividing the
level never enter any series or any downstream sum.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from satotate.curves import CurveSpec, ec_ap_array
from satotate.errors import DeligneViolation, FormatError, MissingPrime, RangeExceeded
from satotate.measure import map_nodes
from satotate.primes import prime_divisors, primes_array

DELIGNE_SLACK = 1e-12

CACHE_MAGIC = b"STAN"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQIIQQ")  # magic, version, level, weight, reserved, x_max, count
_RECORD_DTYPE = np.dtype([("p", "<u8"), ("theta", "<f8")])
_COEFF_DTYPE = np.dtype([("p", np.int64), ("ap", np.float64)])


@dataclass(frozen=True)
class FormMeta:
    """Label, weight k and level q of a form; k and q fit the STAN header (u32, u64).

    The bad primes <= B of the form are prime_divisors(level_q, B).
    """

    label: str
    weight_k: int
    level_q: int

    def __post_init__(self) -> None:
        if self.weight_k < 2 or self.weight_k % 2 != 0:
            raise ValueError("weight must be an even integer >= 2")
        if self.weight_k >= 1 << 32:
            raise ValueError(f"weight {self.weight_k} must be below 2^32")
        if self.level_q < 1:
            raise ValueError("level must be >= 1")
        if self.level_q >= 1 << 64:
            raise ValueError(f"level {self.level_q} must be below 2^64")


def curve_meta(curve: CurveSpec) -> FormMeta:
    """The FormMeta of an elliptic curve over Q: weight 2, level its conductor."""
    return FormMeta(curve.label, 2, curve.conductor)


@dataclass(eq=False)
class AngleSeries:
    """Sorted (p, theta_p) data for one form up to x_max."""

    meta: FormMeta
    x_max: int
    primes: np.ndarray = field(repr=False)
    thetas: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.primes = np.asarray(self.primes, dtype=np.int64)
        self.thetas = np.asarray(self.thetas, dtype=np.float64)
        if self.primes.shape != self.thetas.shape:
            raise ValueError("primes and thetas must have equal length")
        if self.primes.size and self.primes[0] < 2:
            raise ValueError(f"prime {self.primes[0]} is below 2")
        if self.primes.size and np.any(np.diff(self.primes) <= 0):
            raise ValueError("primes must be strictly increasing")
        if self.primes.size and self.primes[-1] > self.x_max:
            raise ValueError(f"prime {self.primes[-1]} lies beyond x_max = {self.x_max}")
        if not np.isfinite(self.thetas).all():
            raise ValueError("angles must be finite")
        if self.thetas.size and (self.thetas.min() < 0.0 or self.thetas.max() > math.pi):
            raise ValueError("angles must lie in [0, pi]")

    def __len__(self) -> int:
        return int(self.primes.size)

    def upto(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(primes, thetas) restricted to p <= x; RangeExceeded when x lies beyond x_max."""
        if x > self.x_max:
            raise RangeExceeded(f"x = {x} exceeds series coverage x_max = {self.x_max}")
        k = int(np.searchsorted(self.primes, x, side="right"))
        return self.primes[:k], self.thetas[:k]

    def common_good(self, other: "AngleSeries", x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(primes, thetas, other's thetas) over primes <= x good for both series."""
        p1, t1 = self.upto(x)
        p2, t2 = other.upto(x)
        pos, found = _find(p2, p1)
        return p1[found], t1[found], t2[pos[found]]


def _libm_map(fn, x, *args) -> np.ndarray:
    """fn(element, *args) for each element of x, by the math module's libm call, in this process.

    numpy's SIMD kernels round differently from libm on some inputs: on an
    AVX-512 host np.arccos differs from math.acos on about 9 % of random
    ratios, and np.sqrt(p) from float(p) ** 0.5 at 548 primes below 1e7.
    Angles must stay bit-identical to the scalar formula, so each element
    takes the libm call, at about 50 ns.  angle_from_ap splits around it.
    """
    values = map(fn, x.ravel().tolist(), *(repeat(a) for a in args))
    return np.fromiter(values, np.float64, count=x.size).reshape(x.shape)


def angle_from_ap(ap, p, k: int):
    """theta_p = arccos(a_p / (2 p^((k-1)/2))), clamped against rounding.

    ``ap`` and ``p`` are scalars (the result is a float) or arrays of one
    shape; convert many primes in one array call, as a scalar call carries
    the whole array overhead (about 25 us).  Each angle equals the scalar
    math.acos(min(1, max(-1, ap / (2.0 * float(p) ** ((k - 1) / 2))))) bit for bit.
    Raises DeligneViolation at the first |a_p| (in array order) that exceeds
    the bound by more than a relative 1e-12, or is NaN, which only happens
    on corrupt input, and ValueError where the bound overflows a float.  Nodes
    go to forked processes (map_nodes); the checks see the whole array.
    """
    shape = np.shape(ap)
    ap, p = np.ravel(np.asarray(ap, dtype=np.float64)), np.ravel(p)

    def node(start: int, stop: int) -> tuple[np.ndarray, np.ndarray | None]:
        try:
            with np.errstate(over="ignore"):
                bound = 2.0 * _libm_map(math.pow, p[start:stop].astype(np.float64), (k - 1) / 2.0)
        except OverflowError:
            return np.full(stop - start, math.inf), None
        return bound, _libm_map(math.acos, np.clip(ap[start:stop] / bound, -1.0, 1.0))

    nodes = map_nodes(node, p.size)
    bound = np.concatenate([b for b, _ in nodes])
    if not np.isfinite(bound).all():
        raise ValueError(f"2 p^((k-1)/2) overflows a float at weight k = {k}, p = {p.max().item()}")
    over = ~(np.abs(ap) <= bound * (1.0 + DELIGNE_SLACK))
    if over.any():
        i = int(np.argmax(over))
        a, b, q = abs(ap[i].item()), bound[i].item(), p[i].item()
        raise DeligneViolation(f"|a_p| = {a} > 2 p^((k-1)/2) = {b} at p = {q}")
    theta = np.concatenate([t for _, t in nodes]).reshape(shape)
    return float(theta) if theta.ndim == 0 else theta


def build_angle_series(source: "CurveSpec | str | Path", x_max: int) -> AngleSeries:
    """Complete angle series for all good primes <= x_max.

    ``source`` is either a CurveSpec (a_p by point counting; weight 2) or the
    path of a coefficient file.  Curve a_p come from one ec_ap_array call
    and are exact, so the output is a pure function of (source, x_max).
    """
    if x_max < 2:
        raise ValueError("x_max must be >= 2")
    if isinstance(source, (str, Path)):
        return _series_from_coeff_file(Path(source), x_max)

    meta = curve_meta(source)
    ps = primes_array(2, x_max)
    good = ps[~np.isin(ps, prime_divisors(meta.level_q, x_max))]
    thetas = angle_from_ap(ec_ap_array(source, good), good, meta.weight_k)
    return AngleSeries(meta, x_max, good, thetas)


# -- coefficient files ---------------------------------------------------------

COEFF_MAGIC = "# satotate-coeffs v1"


def read_coeff_file(path: Path) -> tuple[FormMeta, np.ndarray, np.ndarray, bool]:
    """Parse a coefficient file; returns (meta, primes, aps, normalized).

    ``primes`` is int64 and strictly ascending, ``aps`` float64 and finite,
    and integral when ``normalized`` is false.  The header is read line by
    line; the body is parsed in one np.loadtxt pass.  Every malformed input
    raises FormatError naming the file.
    """
    header: dict[str, str] = {}
    header_lines = 1  # lines before the body, magic line included
    has_body = False
    try:
        with open(path, encoding="utf-8") as fh:
            if fh.readline().strip() != COEFF_MAGIC:
                raise FormatError(f"{path}: missing magic line '{COEFF_MAGIC}'")
            for line in fh:
                line = line.strip()
                if line and not line.startswith("#"):
                    if "=" not in line or line.split("=", 1)[0].strip().lstrip("-").isdigit():
                        has_body = True
                        break
                    key, value = (part.strip() for part in line.split("=", 1))
                    if key in header:
                        raise FormatError(f"{path}: header key '{key}' repeats")
                    header[key] = value
                header_lines += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    for key in ("label", "weight", "level", "normalized"):
        if key not in header:
            raise FormatError(f"{path}: missing header key '{key}'")
    try:
        weight = int(header["weight"])
        level = int(header["level"])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer weight/level") from exc
    try:
        meta = FormMeta(header["label"], weight, level)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if header["normalized"] not in ("true", "false"):
        raise FormatError(f"{path}: normalized must be 'true' or 'false'")
    normalized = header["normalized"] == "true"

    rows = np.empty(0, dtype=_COEFF_DTYPE)
    if has_body:
        try:
            rows = np.loadtxt(
                path, dtype=_COEFF_DTYPE, comments="#", skiprows=header_lines, ndmin=1, encoding="utf-8"
            )
        except ValueError as exc:  # includes UnicodeDecodeError
            reason = _first_bad_entry(path, header_lines) or str(exc).split("; use `usecols`")[0]
            raise FormatError(f"{path}: expected 'p a_p' entries: {reason}") from exc
    primes = np.ascontiguousarray(rows["p"])
    aps = np.ascontiguousarray(rows["ap"])
    bad = ~np.isfinite(aps)
    if not normalized:
        bad |= aps != np.trunc(aps)
    if bad.any():
        i = int(np.argmax(bad))
        kind = "finite" if normalized else "a finite integer (normalized=false)"
        raise FormatError(f"{path}: a_p must be {kind}, got {float(aps[i])!r} at p = {primes[i]}")
    descents = np.flatnonzero(np.diff(primes, prepend=0) <= 0)
    if descents.size:
        i = int(descents[0])
        raise FormatError(
            f"{path}: p must be positive and strictly ascending, got p = {primes[i]} at entry {i + 1}"
        )
    return meta, primes, aps, normalized


def _first_bad_entry(path: Path, skip: int) -> str | None:
    """'line N reads ...' for the first body line that is not 'p a_p', if one is.

    N is the file's own 1-based line number.  Used once np.loadtxt has
    rejected the body, as numpy numbers its rows by entries, and differently
    for a bad token and for a wrong field count.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                fields = [] if number <= skip else line.split("#", 1)[0].split()
                if not fields:
                    continue
                try:
                    # int() and float() take 1_0 and int() a p beyond int64, numpy does not
                    if len(fields) != 2 or any("_" in f for f in fields):
                        raise ValueError
                    if not -(2**63) <= int(fields[0]) < 2**63:
                        raise ValueError
                    float(fields[1])
                except ValueError:
                    return f"line {number} reads {line.strip()!r}"
    except (OSError, UnicodeDecodeError):
        pass
    return None


def write_coeff_file(
    path: Path,
    label: str,
    weight: int,
    level: int,
    entries: Iterable[tuple[int, float]],
    normalized: bool = False,
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{COEFF_MAGIC}\n")
        fh.write(f"label={label}\nweight={weight}\nlevel={level}\n")
        fh.write(f"normalized={'true' if normalized else 'false'}\n")
        for p, ap in entries:
            if normalized:
                fh.write(f"{p} {ap!r}\n")
            else:
                fh.write(f"{p} {int(ap)}\n")


def _find(sorted_values: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position, found) of each key in a sorted array."""
    pos = np.searchsorted(sorted_values, keys)
    found = pos < sorted_values.size
    found[found] = sorted_values[pos[found]] == keys[found]
    return pos, found


def _series_from_coeff_file(path: Path, x_max: int) -> AngleSeries:
    """Join the file's entries to the good primes <= x_max.

    Entries above x_max are ignored, and so are entries at primes dividing
    the level (published a_p lists include them).  An entry at a non-prime
    p <= x_max is a FormatError.  The first good prime without an entry is a
    MissingPrime, unless a DeligneViolation at a smaller prime comes first.
    """
    meta, primes, aps, normalized = read_coeff_file(path)
    ps = primes_array(2, x_max)
    listed = primes[: np.searchsorted(primes, x_max, side="right")]
    _, is_prime = _find(ps, listed)
    if not is_prime.all():
        bad_p = listed[np.argmin(is_prime)]
        raise FormatError(f"{path}: entry at p = {bad_p} <= {x_max}, which is not prime")
    good = ps[~np.isin(ps, prime_divisors(meta.level_q, x_max))]
    pos, found = _find(primes, good)
    n = good.size if found.all() else int(np.argmin(found))
    ap, p = aps[pos[:n]], good[:n]
    if normalized:
        over = np.abs(ap) > 2.0 * (1.0 + DELIGNE_SLACK)
        if over.any():
            i = int(np.argmax(over))
            raise DeligneViolation(f"normalized |a_p| = {abs(ap[i])} > 2 at p = {p[i]}")
    # a normalized a_p is a_p / p^((k-1)/2), the a_p of weight 1: its bound 2 p^0 is 2
    thetas = angle_from_ap(ap, p, 1 if normalized else meta.weight_k)
    if n < good.size:
        raise MissingPrime(f"{path}: no coefficient for good prime {good[n]} <= {x_max}")
    return AngleSeries(meta, x_max, good, thetas)


# -- binary caches -------------------------------------------------------------


def save_cache(series: AngleSeries, path: "str | Path") -> None:
    """Write the STAN binary cache; single writer, atomic rename."""
    path = Path(path)
    header = _HEADER.pack(
        CACHE_MAGIC,
        CACHE_VERSION,
        series.meta.level_q,
        series.meta.weight_k,
        0,
        series.x_max,
        len(series),
    )
    records = np.empty(len(series), dtype=_RECORD_DTYPE)
    records["p"] = series.primes
    records["theta"] = series.thetas
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    except OSError as exc:  # name the cache, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            records.tofile(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cache(path: "str | Path") -> AngleSeries:
    """Read a STAN cache back into an AngleSeries (bit-exact on records)."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    with fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        magic, version, level, weight, _reserved, x_max, count = _HEADER.unpack(head)
        if magic != CACHE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {CACHE_MAGIC!r}")
        if version != CACHE_VERSION:
            raise FormatError(f"{path}: version {version} found, expected {CACHE_VERSION}")
        try:
            meta = FormMeta(path.stem, weight, level)
        except ValueError as exc:
            raise FormatError(f"{path}: bad header: {exc}") from exc
        body_size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if body_size != count * _RECORD_DTYPE.itemsize:
            raise FormatError(
                f"{path}: truncated body: {body_size} bytes for {count} records"
            )
        records = np.fromfile(fh, dtype=_RECORD_DTYPE, count=count)
    try:
        return AngleSeries(
            meta,
            int(x_max),
            records["p"].astype(np.int64),
            records["theta"].astype(np.float64),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: bad records: {exc}") from exc


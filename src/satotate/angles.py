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
from pathlib import Path
from typing import Iterable

import numpy as np

from satotate.curves import CurveSpec, ec_ap_array
from satotate.errors import DeligneViolation, FormatError, MissingPrime
from satotate.primes import primes_array

DELIGNE_SLACK = 1e-12
CM_ZERO_FRACTION_THRESHOLD = 0.3

CACHE_MAGIC = b"STAN"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIQIIQQ")  # magic, version, level, weight, reserved, x_max, count
_RECORD_DTYPE = np.dtype([("p", "<u8"), ("theta", "<f8")])


@dataclass(frozen=True)
class FormMeta:
    label: str
    weight_k: int
    level_q: int
    source: str  # "curve" | "file"
    cm_asserted_false: bool = True

    def __post_init__(self) -> None:
        if self.weight_k < 2 or self.weight_k % 2 != 0:
            raise ValueError("weight must be an even integer >= 2")
        if self.level_q < 1:
            raise ValueError("level must be >= 1")
        if self.source not in ("curve", "file"):
            raise ValueError("source must be 'curve' or 'file'")


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
        if self.primes.size and np.any(np.diff(self.primes) <= 0):
            raise ValueError("primes must be strictly increasing")
        if not np.isfinite(self.thetas).all():
            raise ValueError("angles must be finite")
        if self.thetas.size and (self.thetas.min() < 0.0 or self.thetas.max() > math.pi):
            raise ValueError("angles must lie in [0, pi]")

    def __len__(self) -> int:
        return int(self.primes.size)

    def upto(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """(primes, thetas) restricted to p <= x."""
        k = int(np.searchsorted(self.primes, x, side="right"))
        return self.primes[:k], self.thetas[:k]

    def theta_at(self, p: int) -> float:
        i = int(np.searchsorted(self.primes, p))
        if i >= self.primes.size or self.primes[i] != p:
            raise KeyError(p)
        return float(self.thetas[i])

    def same_points(self, other: "AngleSeries") -> bool:
        return bool(
            np.array_equal(self.primes, other.primes)
            and np.array_equal(self.thetas, other.thetas)
        )


def angle_from_ap(ap: float, p: int, k: int) -> float:
    """theta_p = arccos(a_p / (2 p^((k-1)/2))), clamped against rounding.

    Raises DeligneViolation when |a_p| exceeds the bound by more than a
    relative 1e-12, which only happens on corrupt input.
    """
    bound = 2.0 * float(p) ** ((k - 1) / 2.0)
    if abs(ap) > bound * (1.0 + DELIGNE_SLACK):
        raise DeligneViolation(f"|a_p| = {abs(ap)} > 2 p^((k-1)/2) = {bound} at p = {p}")
    return math.acos(min(1.0, max(-1.0, ap / bound)))


def build_angle_series(
    source: "CurveSpec | str | Path",
    x_max: int,
    label: str | None = None,
    cm_asserted_false: bool = True,
) -> AngleSeries:
    """Complete angle series for all good primes <= x_max.

    ``source`` is either a CurveSpec (a_p by point counting; weight 2) or the
    path of a coefficient file.  Curve a_p come from one ec_ap_array call
    and are exact, so the output is a pure function of (source, x_max).
    Non-CM is the caller's assertion; pass cm_asserted_false=False to record
    that it was not made.
    """
    if x_max < 2:
        raise ValueError("x_max must be >= 2")
    if isinstance(source, (str, Path)):
        return _series_from_coeff_file(Path(source), x_max)

    curve = source
    meta = FormMeta(label or curve.label, 2, curve.conductor, "curve", cm_asserted_false)
    ps = primes_array(2, x_max)
    good = ps[curve.conductor % ps != 0]
    aps = ec_ap_array(curve, good)
    thetas = np.fromiter(
        (angle_from_ap(float(a), int(p), 2) for a, p in zip(aps, good)), dtype=np.float64, count=good.size
    )
    return AngleSeries(meta, x_max, good, thetas)


# -- coefficient files ---------------------------------------------------------

COEFF_MAGIC = "# satotate-coeffs v1"


def read_coeff_file(path: Path) -> tuple[FormMeta, list[tuple[int, float]], bool]:
    """Parse a coefficient file; returns (meta, [(p, a_p)], normalized)."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0].strip() != COEFF_MAGIC:
        raise FormatError(f"{path}: missing magic line '{COEFF_MAGIC}'")
    header: dict[str, str] = {}
    body_start = 1
    for i, line in enumerate(lines[1:], start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            body_start = i + 1
            continue
        if "=" in line and not line.split("=", 1)[0].strip().lstrip("-").isdigit():
            key, value = line.split("=", 1)
            header[key.strip()] = value.strip()
            body_start = i + 1
        else:
            body_start = i
            break
    for key in ("label", "weight", "level", "normalized"):
        if key not in header:
            raise FormatError(f"{path}: missing header key '{key}'")
    try:
        weight = int(header["weight"])
        level = int(header["level"])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer weight/level") from exc
    if header["normalized"] not in ("true", "false"):
        raise FormatError(f"{path}: normalized must be 'true' or 'false'")
    normalized = header["normalized"] == "true"

    entries: list[tuple[int, float]] = []
    last_p = 0
    for i in range(body_start, len(lines)):
        line = lines[i].strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{path}:{i + 1}: expected 'p a_p', got {line!r}")
        try:
            p = int(parts[0])
            ap = float(parts[1]) if normalized else float(int(parts[1]))
        except ValueError as exc:
            raise FormatError(f"{path}:{i + 1}: bad entry {line!r}") from exc
        if not math.isfinite(ap):
            raise FormatError(f"{path}:{i + 1}: a_p must be finite, got {line!r}")
        if p <= last_p:
            raise FormatError(f"{path}:{i + 1}: primes must be strictly ascending")
        last_p = p
        entries.append((p, ap))
    meta = FormMeta(header["label"], weight, level, "file")
    return meta, entries, normalized


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


def _series_from_coeff_file(path: Path, x_max: int) -> AngleSeries:
    meta, entries, normalized = read_coeff_file(path)
    table = {p: ap for p, ap in entries}
    ps = primes_array(2, x_max)
    good = ps[meta.level_q % ps != 0]
    thetas = np.empty(good.size)
    for i, p in enumerate(int(q) for q in good):
        if p not in table:
            raise MissingPrime(f"{path}: no coefficient for good prime {p} <= {x_max}")
        ap = table[p]
        if normalized:
            if abs(ap) > 2.0 * (1.0 + DELIGNE_SLACK):
                raise DeligneViolation(f"normalized |a_p| = {abs(ap)} > 2 at p = {p}")
            thetas[i] = math.acos(min(1.0, max(-1.0, ap / 2.0)))
        else:
            thetas[i] = angle_from_ap(ap, p, meta.weight_k)
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
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(records.tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_cache(path: "str | Path", label: str = "") -> AngleSeries:
    """Read a STAN cache back into an AngleSeries (bit-exact on records)."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, level, weight, _reserved, x_max, count = _HEADER.unpack_from(blob)
    if magic != CACHE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {CACHE_MAGIC!r}")
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: version {version} found, expected {CACHE_VERSION}")
    body = blob[_HEADER.size :]
    if len(body) != count * _RECORD_DTYPE.itemsize:
        raise FormatError(
            f"{path}: truncated body: {len(body)} bytes for {count} records"
        )
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    meta = FormMeta(label or path.stem, int(weight), int(level), "file")
    try:
        return AngleSeries(
            meta,
            int(x_max),
            records["p"].astype(np.int64),
            records["theta"].astype(np.float64),
        )
    except ValueError as exc:
        raise FormatError(f"{path}: bad records: {exc}") from exc


# -- CM screening --------------------------------------------------------------


def cm_heuristic(series: AngleSeries) -> tuple[float, str]:
    """(zero_fraction, verdict): flag suspiciously many a_p = 0.

    CM forms have a_p = 0 on the inert primes (density 1/2); for non-CM forms
    the zero density decays.  The 0.3 cut sits between those regimes.  This
    is advisory only; non-CM remains a user assertion.
    """
    if len(series) == 0:
        raise ValueError("series is empty")
    zero_fraction = float(np.mean(series.thetas == math.pi / 2.0))
    verdict = "suspect-CM" if zero_fraction > CM_ZERO_FRACTION_THRESHOLD else "plausibly-non-CM"
    return zero_fraction, verdict

"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer replaces a module attribute (the name a caller looks up, such as
``satotate.angles.ec_ap_bsgs``) with a wrapper that records one span per
call: name, layer, start, end and the span open when the call began.  A
span's self time is its duration minus the part of it covered by its child
spans.  Targets that no longer exist are recorded as absent, so the
benchmark keeps running when a later change deletes or renames a function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Target:
    """A wrap site: ``module.attribute`` as the caller looks it up.

    ``tag(args, result)`` stores one number on the span: the prime for an
    a_p call, the bytes of a file, the length of an array, an exit code.
    """

    path: str
    tag: Callable | None = None


def _prime_arg(args, result):
    return int(args[1])


def _file_size(arg_index):
    def tag(args, result):
        return os.path.getsize(args[arg_index])

    return tag


def _length(args, result):
    return len(result)


def _exit_code(args, result):
    return result


_file_written = _file_size(1)  # save_cache(series, path)
_file_read = _file_size(0)  # load_cache(path)

TARGETS = (
    Target("satotate.cli.main", _exit_code),
    # primes
    Target("satotate.angles.primes_array", _length),
    Target("satotate.cli.primes_array", _length),
    Target("satotate.discrepancy.primes_in"),
    # curves: direct routes from the series builder, on-demand route from the search
    Target("satotate.angles.ec_ap_naive", _prime_arg),
    Target("satotate.angles.ec_ap_bsgs", _prime_arg),
    Target("satotate.discrepancy.ec_ap", _prime_arg),
    Target("satotate.curves.ec_ap_naive", _prime_arg),
    Target("satotate.curves.ec_ap_bsgs", _prime_arg),
    # angles
    Target("satotate.cli.build_angle_series"),
    Target("satotate.angles.read_coeff_file"),
    Target("satotate.cli.save_cache", _file_written),
    Target("satotate.cli.load_cache", _file_read),
    # measure
    Target("satotate.cli.st_quantile"),
    Target("satotate.discrepancy.st_cdf"),
    Target("satotate.discrepancy.cheb_u_table"),
    Target("satotate.prime_sums.cheb_u"),
    # discrepancy
    Target("satotate.cli.discrepancy_report"),
    Target("satotate.cli.joint_report"),
    Target("satotate.cli.least_prime_in_interval"),
    Target("satotate.cli.theoretical_bound_curve"),
    Target("satotate.discrepancy.count_in_interval"),
    Target("satotate.discrepancy.joint_count"),
    Target("satotate.discrepancy.exact_discrepancy_1d"),
    Target("satotate.discrepancy.erdos_turan_bound"),
    Target("satotate.discrepancy.cheb_sum_bound"),
    Target("satotate.discrepancy.cheb_sum_bound_2d"),
    Target("satotate.discrepancy.joint_box_discrepancy"),
    # prime_sums
    Target("satotate.prime_sums.cheb_prime_sum"),
    Target("satotate.prime_sums.partial_summation_residual"),
    Target("satotate.prime_sums.smoothed_psi"),
)

# Modules whose share of the traced wall time is reported; "other" is the
# part of each pass that no wrapped call covers.
LAYERS = ("primes", "curves", "angles", "measure", "discrepancy", "prime_sums", "cli", "other")

BSGS_DECADES = (3, 4, 5, 6)


class Span:
    __slots__ = ("name", "layer", "func", "start", "end", "parent", "tag", "failed")

    def __init__(self, name, layer, func, start, end=0.0, parent=-1, tag=None, failed=False):
        self.name = name
        self.layer = layer
        self.func = func
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag
        self.failed = failed


class Tracer:
    """Installs wrappers on targets and keeps the spans they record in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        for target in targets:
            module_name, _, attr = target.path.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if target.path not in self.absent:
                    self.absent.append(target.path)
                continue
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _open(self, name: str, layer: str, func: str) -> Span:
        stack = self._stack
        span = Span(name, layer, func, time.perf_counter(), parent=stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, such as one timed pass."""
        span = self._open(name, layer, name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, target: Target, fn):
        name, tag = target.path, target.tag
        layer = (getattr(fn, "__module__", None) or "").rpartition(".")[2]
        func = getattr(fn, "__name__", name)
        open_, close = self._open, self._close

        if inspect.isgeneratorfunction(fn):
            # a generator works in next(): one span per item produced
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = open_(name, layer, func)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        close(span)
                    span.tag = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(name, layer, func)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                close(span)
            if tag is not None:
                span.tag = tag(args, result)
            return result

        return wrapper


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


class LayerTally:
    """Per-layer sums over the spans of several traced passes."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.layer_self: dict[str, float] = defaultdict(float)
        self.func_self: dict[str, float] = defaultdict(float)
        self.func_calls: dict[str, int] = defaultdict(int)
        self.func_tags: dict[str, float] = defaultdict(float)
        self.bsgs_us: dict[int, list[float]] = defaultdict(list)
        self.naive_us: list[float] = []
        self.curves_failed = 0
        self.cli_failed = 0

    def add_pass(self, spans: list[Span], wall: float) -> None:
        """Fold in one traced pass; ``spans`` includes the pass span itself."""
        self.walls.append(wall)
        self.add_spans(spans)

    def add_spans(self, spans: list[Span]) -> None:
        for span, own in zip(spans, self_times(spans)):
            self.layer_self[span.layer] += own
            self.func_self[span.func] += own
            self.func_calls[span.func] += 1
            if isinstance(span.tag, (int, float)):
                self.func_tags[span.func] += span.tag
            if span.layer == "curves":
                parent = spans[span.parent] if span.parent >= 0 else None
                if span.failed and (parent is None or parent.layer != "curves"):
                    self.curves_failed += 1
                self.add_ap_sample(span)
            if span.func == "main" and span.layer == "cli" and (span.failed or span.tag != 0):
                self.cli_failed += 1

    def add_ap_sample(self, span: Span) -> None:
        us = (span.end - span.start) * 1e6
        if span.func == "ec_ap_naive":
            self.naive_us.append(us)
        elif span.func == "ec_ap_bsgs" and span.tag:
            decade = len(str(int(span.tag))) - 1
            self.bsgs_us[decade].append(us)

    def metrics(self, untraced_wall: float) -> dict[str, float]:
        """Per-pass means of every per-layer metric, plus the layer shares."""
        n = max(len(self.walls), 1)
        wall = sum(self.walls)
        s, calls, tags = self.func_self, self.func_calls, self.func_tags

        def per_pass(value):
            return value / n

        def rate(func):  # MB per second of self time
            return tags[func] / 1e6 / s[func] if s[func] > 0 else 0.0

        def median(values):
            return statistics.median(values) if values else 0.0

        cheb = ("cheb_u", "cheb_u_table")
        out = {
            "primes.busy_s": per_pass(self.layer_self["primes"]),
            "primes.primes_out": per_pass(tags["primes_in"] + tags["primes_array"]),
            "curves.busy_s": per_pass(self.layer_self["curves"]),
            "curves.calls.naive": per_pass(calls["ec_ap_naive"]),
            "curves.calls.bsgs": per_pass(calls["ec_ap_bsgs"]),
            "curves.us_per_prime.naive": median(self.naive_us),
        }
        for decade in BSGS_DECADES:
            out[f"curves.us_per_prime.bsgs_1e{decade}"] = median(self.bsgs_us[decade])
        out.update(
            {
                "curves.failed": per_pass(self.curves_failed),
                "angles.build_self_s": per_pass(s["build_angle_series"]),
                "angles.read_coeff_s": per_pass(s["read_coeff_file"]),
                "angles.save_s": per_pass(s["save_cache"]),
                "angles.save_mb_per_s": rate("save_cache"),
                "angles.load_s": per_pass(s["load_cache"]),
                "angles.load_mb_per_s": rate("load_cache"),
                "measure.st_quantile_calls": per_pass(calls["st_quantile"]),
                "measure.st_quantile_us": (
                    s["st_quantile"] / calls["st_quantile"] * 1e6 if calls["st_quantile"] else 0.0
                ),
                "measure.cheb_busy_s": per_pass(sum(s[f] for f in cheb)),
                "measure.cheb_calls": per_pass(sum(calls[f] for f in cheb)),
                "measure.st_cdf_s": per_pass(s["st_cdf"]),
                "discrepancy.exact_s": per_pass(s["exact_discrepancy_1d"]),
                "discrepancy.et_s": per_pass(s["erdos_turan_bound"]),
                "discrepancy.cheb_bound_s": per_pass(s["cheb_sum_bound"]),
                "discrepancy.cheb2_bound_s": per_pass(s["cheb_sum_bound_2d"]),
                "discrepancy.box_s": per_pass(s["joint_box_discrepancy"]),
                "discrepancy.count_s": per_pass(s["count_in_interval"] + s["joint_count"]),
                "discrepancy.least_prime_s": per_pass(s["least_prime_in_interval"]),
                "prime_sums.cheb_sum_s": per_pass(s["cheb_prime_sum"]),
                "prime_sums.residual_s": per_pass(s["partial_summation_residual"]),
                "prime_sums.smoothed_psi_s": per_pass(s["smoothed_psi"]),
                "cli.self_s": per_pass(s["main"]),
                "cli.commands": per_pass(calls["main"]),
                "cli.failed": per_pass(self.cli_failed),
                "other_s": per_pass(self.layer_self["other"]),
                "trace.overhead_ratio": statistics.median(self.walls) / untraced_wall if self.walls else 0.0,
            }
        )
        for layer in LAYERS:
            out[f"share.{layer}"] = 100.0 * self.layer_self[layer] / wall if wall > 0 else 0.0
        return out

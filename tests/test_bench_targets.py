"""The benchmark's span tracer can still find every function it wraps.

bench/spans.py wraps the attributes a caller looks up (``module.name``) and
records a missing one as absent instead of failing, so a refactor that moves
a call across modules would silently blind the per-layer trace.  This test
reads the target list from bench/spans.py (stdlib only) without importing
the rest of the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# targets already absent: the series builder no longer calls a scalar route by name
KNOWN_ABSENT = {"satotate.angles.ec_ap_naive", "satotate.angles.ec_ap_bsgs"}


def load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolves(path: str) -> bool:
    module_name, _, attr = path.rpartition(".")
    try:
        return hasattr(importlib.import_module(module_name), attr)
    except ImportError:
        return False


def test_every_wrap_target_resolves():
    paths = [target.path for target in load_spans().TARGETS]
    assert paths
    absent = {path for path in paths if not resolves(path)}
    assert absent <= KNOWN_ABSENT, sorted(absent - KNOWN_ABSENT)


def test_probe_names_resolve():
    # the per-prime probe calls curves.ec_ap on curves.CurveSpec directly
    assert resolves("satotate.curves.ec_ap")
    assert resolves("satotate.curves.CurveSpec")

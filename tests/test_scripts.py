"""Smoke tests: the example scripts run end to end on small inputs."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("weight_report.py", ["--x", "1000"], [r"plateau 1\.000000"]),
        ("decay_experiment.py", ["--label", "11a1", "--xmax", "2000"], ["built 11a1 to 2000"]),
        ("engine_profile.py", ["--curve", "11a1", "--xmax", "20000"],
         ["rows/s in one process", r"scalar fallbacks: \d+ \(p > 229\) in \d+\.\d{4} s, \d+\.\d{3} ms per call"]),
    ],
)
def test_script_runs(script, args, expect):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    for pattern in expect:
        assert re.search(pattern, proc.stdout), pattern

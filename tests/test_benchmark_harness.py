"""The benchmark harness against the package: a change under src/ that
breaks the harness fails here, not first in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_exits_0():
    proc = subprocess.run(
        [sys.executable, "benchmark/selftest.py"], cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    assert proc.returncode == 0, f"stdout:\n{proc.stdout[-3000:]}\nstderr:\n{proc.stderr[-3000:]}"

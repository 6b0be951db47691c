"""The benchmark's own smoke test passes against the library in src/: its
tracer patches src functions by name and reads a missing one as an absent
layer, so a renamed function would otherwise zero a per-layer metric
without any failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    out = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selftest: ok" in out.stdout, out.stdout + out.stderr

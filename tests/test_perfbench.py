"""The benchmark harness's own self-tests, run as part of this suite.

perfbench's tracer looks speclap's functions up by name and reads the order
of the spans a `cluster` call makes (solve_relaxed, podx, one podr per
round, objective). A source change that breaks either fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    # selftest.py expects the root of the checkout as its working directory
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

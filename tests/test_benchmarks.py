"""The micro-benchmarks under benchmarks/, run at their smallest size, and
the source line count.

They reach into speclap's internals (bench_eigen times the `_kernels` stages
and wraps `sturm_counts` to count passes), so a source change that renames
or re-signs one of those breaks them; each run here takes well under a
second.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

BENCHMARKS = [
    ["bench_eigen.py", "--sizes", "12", "--repeats", "1"],
    ["bench_kway.py", "--sizes", "12", "--graphs", "1", "--repeats", "1"],
    ["bench_parse.py", "--sizes", "12", "--repeats", "1"],
    ["sloc.py"],
]


@pytest.mark.parametrize("args", BENCHMARKS, ids=[args[0] for args in BENCHMARKS])
def test_benchmark_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / args[0]), *args[1:]], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr

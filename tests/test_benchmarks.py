"""The micro-benchmarks under benchmarks/, run at their smallest size, and
the source line count.

They reach into speclap's internals (bench_eigen times the `_kernels` stages
and wraps `sturm_counts` to count passes), so a source change that renames
or re-signs one of those breaks them; each run here takes well under a
second. bench_eigen --against also runs against this checkout's own
`_kernels.py`, where every stage must come out bit-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

AGAINST = ["bench_eigen.py", "--sizes", "12", "--repeats", "1", "--against", "src/speclap/_kernels.py"]
BENCHMARKS = [
    ["bench_eigen.py", "--sizes", "12", "--repeats", "1"],
    AGAINST,
    ["bench_kway.py", "--sizes", "12", "--graphs", "1", "--repeats", "1"],
    ["bench_parse.py", "--sizes", "12", "--repeats", "1"],
    ["sloc.py"],
]


@pytest.mark.parametrize("args", BENCHMARKS, ids=[args[0] + ("-against" if args is AGAINST else "")
                                                  for args in BENCHMARKS])
def test_benchmark_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / args[0]), *args[1:]], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if args is AGAINST:
        rows = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] == ["12"]]
        assert [row[1] for row in rows] == ["tridiag", "eigvals", "eigvecs", "back"]
        assert all(row[-1] == "yes" for row in rows), proc.stdout

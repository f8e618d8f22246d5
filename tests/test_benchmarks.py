"""The micro-benchmarks under benchmarks/, run at their smallest size, the
source line count, the CLI parity tool on a small subset of its calls, and
the quality yardstick's brute force against acceptance 5's.

They reach into speclap's internals (bench_eigen times the `_kernels` stages
and wraps `sturm_counts`, `lanczos`, `tridiagonal_eigenvectors` and
`certify` to trace a solve), so a source change that renames
or re-signs one of those breaks them; each run here takes well under a
second. bench_eigen --against also runs against this checkout's own
`_kernels.py` at n = 12 (the whole Lanczos reduction) and n = 120 (a
certified checkpoint below n), where every stage must come out
bit-identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speclap as sp
from speclap import cli

from conftest import random_connected
from test_kway import set_partitions

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks"))
import quality  # noqa: E402

AGAINST = ["bench_eigen.py", "--sizes", "12,120", "--repeats", "1", "--against", "src/speclap/_kernels.py"]
BENCHMARKS = [
    ["bench_eigen.py", "--sizes", "12", "--repeats", "1"],
    AGAINST,
    ["bench_kway.py", "--sizes", "12", "--graphs", "1", "--repeats", "1"],
    ["bench_parse.py", "--sizes", "12", "--repeats", "1"],
    ["sloc.py"],
]


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / args[0]), *args[1:]], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("args", BENCHMARKS, ids=[args[0] + ("-against" if args is AGAINST else "")
                                                  for args in BENCHMARKS])
def test_benchmark_runs(args):
    proc = _run(args)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    if args is AGAINST:
        rows = [line.split() for line in proc.stdout.splitlines() if line.split()[:1] in (["12"], ["120"])]
        assert [row[:2] for row in rows] == [[n, stage] for n in ("12", "120")
                                             for stage in ("lanczos", "eigvals", "eigvecs", "ritz")]
        assert all(row[-1] == "yes" for row in rows), proc.stdout


def test_parity_records_compare_clean(tmp_path):
    # two records of the same checkout are identical; a moved output is
    # listed with its largest float move, and compare exits 1
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    for target in (a, b):
        proc = _run(["parity.py", "record", target, "--seeds", "1", "--stride", "40"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
    proc = _run(["parity.py", "compare", a, b])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert " 0 differ, 0 only in " in proc.stdout
    with open(os.path.join(b, "record.json"), encoding="utf-8") as f:
        records = json.load(f)
    assert len(records) > 30 and any(r["files"] for r in records)
    moved = next(r for r in records if r["code"] == 0 and r["argv"].startswith("cluster"))
    report = json.loads(moved["stdout"])
    report["objective"] *= 1.0 + 2.0**-40
    moved["stdout"] = json.dumps(report) + "\n"
    with open(os.path.join(b, "record.json"), "w", encoding="utf-8") as f:
        json.dump(records, f)
    proc = _run(["parity.py", "compare", a, b])
    assert proc.returncode == 1
    assert f"  {moved['argv']}: stdout\n" in proc.stdout
    assert f"e-13 relative ({moved['argv']})" in proc.stdout.split("  objective: ")[1]  # 2^-40 = 9.1e-13


@pytest.mark.parametrize("n, k", [(4, 2), (7, 3), (9, 2), (9, 3)])
def test_quality_optimum_matches_set_partitions(n, k):
    # the vectorised enumeration and objective give the least sp.objective
    # over every partition, on unsigned and signed graphs
    rng = np.random.default_rng(10 * n + k)
    labels = quality.partition_labels(n, k)
    assert len(labels) == sum(1 for _ in set_partitions(n, k))
    for signed in (False, True):
        g = random_connected(rng, n, signed=signed)
        modes = ("sncut", "srcut") if signed else tuple(quality.NORMALIZED)
        best = quality.optima(g.W, labels, modes)
        for mode in modes:
            want = min(sp.objective(g, [[i + 1 for i in b] for b in part], cli._MODE_MAP[mode])
                       for part in set_partitions(n, k))
            assert best[mode] == pytest.approx(want, rel=1e-12)


def test_quality_counts():
    assert len(quality.partition_labels(12, 3)) == 86526  # S(12, 3)
    calls = [quality.Outcome("ncut", "rownorm", objective, error, 2.0) for objective, error in
             ((2.0, None), (2.0 + 1e-12, None), (2.01, None), (3.0, None), (None, "NoConvergence"))]
    # 5 calls, 4 succeed, 2 exact, 1 more than 1 % off, worst 1.5, none below, 1 NoConvergence
    assert quality.summarise(calls) == (5, 4, 2, 1, 1.5, 0, 1)

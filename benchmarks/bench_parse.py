"""Time speclap's graph-file parsing: the one-pass numpy read against the record loop.

Each size n gets a seeded planted 4-block graph from `perfbench/gen.py`,
written in the CLI's format (the files the benchmark workloads parse). The
table gives the median over the repeats of the mean wall time of one call
(2000 // n calls per repeat) of `cli.parse_graph` (header in Python, the
records in one `np.loadtxt` pass, checked vectorised), of `cli._read_header`
and `cli._parse_records` on the file's lines (the record loop that defines
the grammar, and parse_graph's only path before the numpy read; reading the
lines and the `Graph(W)` call are included), and of the `Graph(W)`
validation both end with, which is part of both other columns. It checks
that both paths give byte-identical weight matrices.

Usage: python benchmarks/bench_parse.py [--sizes 12,48,120,500,1000] [--repeats 7]
"""

import argparse
import os
import statistics
import sys
import tempfile
import time

import numpy as np

import speclap as sp
from speclap import cli

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import gen  # noqa: E402


def median_time(fn, repeats, number):
    """Median over the repeats of the mean time of `number` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            out = fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times), out


def parse_by_loop(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    start, W = cli._read_header(lines)
    cli._parse_records(lines, start, W)
    return sp.Graph(W)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="12,48,120,500,1000")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    rng = np.random.default_rng(0)

    print(f"{'n':>5} {'edges':>7} {'parse_graph':>12} {'_parse_records':>15} {'Graph(W)':>10} {'speed-up':>9}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in (int(s) for s in args.sizes.split(",")):
            W = gen.planted(rng, [n // 4] * 4, "unsigned").W
            path = os.path.join(tmp, f"n{n}.txt")
            with open(path, "w", encoding="utf-8") as f:
                f.write(gen.graph_text(W))
            number = max(1, 2000 // n)  # small files take many calls to time
            t_fast, fast = median_time(lambda: cli.parse_graph(path), args.repeats, number)
            t_loop, loop = median_time(lambda: parse_by_loop(path), args.repeats, number)
            t_graph, _ = median_time(lambda: sp.Graph(W), args.repeats, number)
            assert fast.W.tobytes() == loop.W.tobytes() == W.tobytes(), f"paths differ at n = {n}"
            print(f"{n:>5} {np.count_nonzero(np.triu(W)):>7} {t_fast * 1e3:>10.3f}ms {t_loop * 1e3:>13.3f}ms"
                  f" {t_graph * 1e3:>8.3f}ms {t_loop / t_fast:>8.1f}x")


if __name__ == "__main__":
    main()

"""Time speclap's sym_eigen against the numpy.linalg.eigh yardstick.

Each size n gets the normalized Laplacian of a seeded random graph with four
planted blocks (the matrix a 4-way `speclap cluster` solves). The script
reports the best wall time over the repeats for both solvers, their ratio and
the largest eigenvalue difference. numpy is a yardstick here, never a
production path: speclap calls no external eigensolver.

Usage: python benchmarks/bench_eigen.py [--sizes 30,60,120,250] [--repeats 3]
"""

import argparse
import time

import numpy as np

import speclap as sp


def planted_laplacian(rng, n, blocks=4):
    labels = np.arange(n) * blocks // n
    same = labels[:, None] == labels[None, :]
    W = np.where(rng.random((n, n)) < np.where(same, 0.5, 0.05), rng.uniform(0.5, 1.5, (n, n)), 0.0)
    W = np.triu(W, 1)
    W = W + W.T
    W[np.arange(n - 1), np.arange(1, n)] = W[np.arange(1, n), np.arange(n - 1)] = 1.0  # connected
    return sp.laplacian(sp.Graph(W), "sym").M


def best_time(fn, S, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(S)
        best = min(best, time.perf_counter() - t0)
    return best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="30,60,120,250")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(0)

    print(f"{'n':>5} {'sym_eigen':>12} {'numpy eigh':>12} {'ratio':>8} {'max |dλ|':>10}")
    for n in (int(s) for s in args.sizes.split(",")):
        S = planted_laplacian(rng, n)
        t_own, eig = best_time(sp.sym_eigen, S, args.repeats)
        t_ref, ref = best_time(np.linalg.eigh, S, args.repeats)
        err = float(np.max(np.abs(eig.values - ref.eigenvalues)))
        print(f"{n:>5} {t_own * 1e3:>10.2f}ms {t_ref * 1e3:>10.3f}ms {t_own / t_ref:>7.0f}x {err:>10.1e}")


if __name__ == "__main__":
    main()

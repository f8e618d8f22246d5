"""Time speclap's smallest_k, sym_eigen and svd against the numpy.linalg yardsticks.

Each size n gets the normalized Laplacian of a seeded random graph with four
planted blocks (the matrix a 4-way `speclap cluster` solves). The table
gives the best wall time over the repeats of smallest_k(S, 5) (Householder,
Sturm multisection, inverse iteration), of the full Jacobi sym_eigen (skipped
above n = 250, where one call takes half a minute and more) and of numpy's
eigh, with the largest eigenvalue difference of the five smallest against
eigh. The SVD gets seeded Gaussian matrices of the shapes the pipeline
decomposes: K x K for K = 2-5 (Z^T X in the Procrustes step) and N x K (the
least-squares rescale of Z * Z) for the benchmark's N = 12, 48, 120. numpy
is a yardstick here, never a production path: speclap calls no external
eigensolver.

Usage: python benchmarks/bench_eigen.py [--sizes 30,60,120,250,500,1000] [--repeats 3]
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


SYM_EIGEN_MAX_N = 250  # a full Jacobi solve takes 27 s at n = 500
SVD_SHAPES = ((2, 2), (3, 3), (4, 4), (5, 5), (12, 3), (48, 3), (120, 4))


def best_time(fn, S, repeats, number=1):
    """Best over the repeats of the mean time of `number` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            out = fn(S)
        best = min(best, (time.perf_counter() - t0) / number)
    return best, out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="30,60,120,250,500,1000")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(0)

    print(f"{'n':>5} {'smallest_k 5':>13} {'sym_eigen':>12} {'numpy eigh':>12} {'max |dλ|':>10}")
    for n in (int(s) for s in args.sizes.split(",")):
        S = planted_laplacian(rng, n)
        t_k, (vals, _) = best_time(lambda M: sp.smallest_k(M, 5), S, args.repeats)
        t_ref, ref = best_time(np.linalg.eigh, S, args.repeats)
        err = float(np.max(np.abs(vals - ref.eigenvalues[:5])))
        if n <= SYM_EIGEN_MAX_N:
            t_full, eig = best_time(sp.sym_eigen, S, args.repeats)
            err = max(err, float(np.max(np.abs(eig.values - ref.eigenvalues))))
            full = f"{t_full * 1e3:>10.2f}ms"
        else:
            full = f"{'-':>12}"
        print(f"{n:>5} {t_k * 1e3:>11.2f}ms {full} {t_ref * 1e3:>10.3f}ms {err:>10.1e}")

    print(f"\n{'shape':>7} {'svd':>12} {'numpy svd':>12} {'ratio':>8} {'max |dσ|':>10}")
    for m, n in SVD_SHAPES:
        M = rng.standard_normal((m, n))
        t_own, res = best_time(sp.svd, M, args.repeats, number=20)
        t_ref, ref = best_time(np.linalg.svd, M, args.repeats, number=20)
        err = float(np.max(np.abs(res.S - ref.S)))
        print(f"{f'{m}x{n}':>7} {t_own * 1e6:>10.1f}us {t_ref * 1e6:>10.1f}us {t_own / t_ref:>7.0f}x {err:>10.1e}")


if __name__ == "__main__":
    main()

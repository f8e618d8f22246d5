"""Time speclap's smallest_k, sym_eigen, svd and init_rotation_R1 against the numpy.linalg yardsticks.

Each size n gets the normalized Laplacian of a seeded random graph with four
planted blocks (the matrix a 4-way `speclap cluster` solves). The table
gives the best wall time over the repeats of smallest_k(S, 5), then of each
of its four stages run on their own as smallest_k runs them (Householder
`tridiagonalize`, the six lowest eigenvalues by Sturm multisection in
`tridiagonal_eigenvalues`, five vectors by inverse iteration in
`tridiagonal_eigenvectors`, and `back_transform`), of the full
decomposition sym_eigen, which is smallest_k(S, n) (skipped above n = 500,
where the per-vector inverse iteration over all n vectors takes seconds),
and of numpy's eigh, with the largest eigenvalue difference against eigh
(the five smallest, and every eigenvalue where sym_eigen ran). The default
sizes include n = 12 and 48, the sizes the perfbench workloads solve besides
120. The SVD gets seeded Gaussian matrices of the shapes the pipeline
decomposes: K x K for K = 2-5 (Z^T X in the Procrustes step) and N x K (the
least-squares rescale of Z * Z, and the relaxed Z) for the benchmark's
N = 12, 48, 120. Next to each SVD row, init_rotation_R1 on the same matrix
taken as Z: its K x K eigensolve of Z^T Z runs as the SVD of Z. numpy is a
yardstick here, never a production path: speclap calls no external
eigensolver.

Usage: python benchmarks/bench_eigen.py [--sizes 12,30,48,60,120,250,500,1000] [--repeats 3]
"""

import argparse
import time

import numpy as np

import speclap as sp
from speclap import _kernels


def planted_laplacian(rng, n, blocks=4):
    labels = np.arange(n) * blocks // n
    same = labels[:, None] == labels[None, :]
    W = np.where(rng.random((n, n)) < np.where(same, 0.5, 0.05), rng.uniform(0.5, 1.5, (n, n)), 0.0)
    W = np.triu(W, 1)
    W = W + W.T
    W[np.arange(n - 1), np.arange(1, n)] = W[np.arange(1, n), np.arange(n - 1)] = 1.0  # connected
    return sp.laplacian(sp.Graph(W), "sym").M


SYM_EIGEN_MAX_N = 500  # a full solve takes about 1 s at n = 500
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


def stage_times(S, repeats, k=5):
    """Best times of smallest_k(S, k)'s four stages, each on the output of
    the one before, at the unit scale smallest_k runs them at."""
    unit = np.ldexp(1.0, np.frexp(np.abs(S).max())[1])
    t_tri, (d, e, V, tau) = best_time(lambda M: _kernels.tridiagonalize(M / unit), S, repeats)
    t_val, lam = best_time(lambda _: _kernels.tridiagonal_eigenvalues(d, e, 0, min(k + 1, len(d))), S, repeats)
    t_vec, Z = best_time(lambda _: _kernels.tridiagonal_eigenvectors(d, e, lam[:k]), S, repeats)
    t_back, _ = best_time(lambda _: _kernels.back_transform(V, tau, Z.copy()), S, repeats)
    return t_tri, t_val, t_vec, t_back


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="12,30,48,60,120,250,500,1000")
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    rng = np.random.default_rng(0)

    stages = ("tridiag", "eigvals", "eigvecs", "back")
    print(f"{'n':>5} {'smallest_k 5':>13} " + " ".join(f"{s:>9}" for s in stages)
          + f" {'sym_eigen':>12} {'numpy eigh':>12} {'max |dλ|':>10}")
    for n in (int(s) for s in args.sizes.split(",")):
        S = planted_laplacian(rng, n)
        t_k, (vals, _) = best_time(lambda M: sp.smallest_k(M, 5), S, args.repeats)
        split = " ".join(f"{t * 1e3:>7.2f}ms" for t in stage_times(S, args.repeats))
        t_ref, ref = best_time(np.linalg.eigh, S, args.repeats)
        err = float(np.max(np.abs(vals - ref.eigenvalues[:5])))
        if n <= SYM_EIGEN_MAX_N:
            t_full, eig = best_time(sp.sym_eigen, S, args.repeats)
            err = max(err, float(np.max(np.abs(eig.values - ref.eigenvalues))))
            full = f"{t_full * 1e3:>10.2f}ms"
        else:
            full = f"{'-':>12}"
        print(f"{n:>5} {t_k * 1e3:>11.2f}ms {split} {full} {t_ref * 1e3:>10.3f}ms {err:>10.1e}")

    print(f"\n{'shape':>7} {'svd':>12} {'numpy svd':>12} {'ratio':>8} {'max |dσ|':>10} {'init_R1':>12}")
    for m, n in SVD_SHAPES:
        M = rng.standard_normal((m, n))
        t_own, res = best_time(sp.svd, M, args.repeats, number=20)
        t_ref, ref = best_time(np.linalg.svd, M, args.repeats, number=20)
        t_r1, _ = best_time(sp.init_rotation_R1, M, args.repeats, number=20)
        err = float(np.max(np.abs(res.S - ref.S)))
        print(f"{f'{m}x{n}':>7} {t_own * 1e6:>10.1f}us {t_ref * 1e6:>10.1f}us {t_own / t_ref:>7.0f}x {err:>10.1e}"
              f" {t_r1 * 1e6:>10.1f}us")


if __name__ == "__main__":
    main()

"""Time speclap's smallest_k, sym_eigen, svd and init_rotation_R1 against the numpy.linalg yardsticks.

Each size n gets the normalized Laplacian of a seeded unsigned planted graph
from `perfbench/gen.py` (imported read-only), four blocks as equal as n
allows: the graphs the perfbench workloads draw, and the matrix a 4-way
`speclap cluster` solves on them. The table
gives the best wall time over the repeats of smallest_k(S, 5), the number
of Sturm-count passes of its multisection (`sturm_counts` calls), the mean
number of Newton steps per isolated eigenvalue (runs of the recurrence in
`_newton`), the Krylov dimension m its Lanczos reduction stopped at and
the number of checkpoints it took to get there, and the largest
difference of its five eigenvalues from numpy's eigh. Then the best times
of its four stages, each run on its own on the input smallest_k gave it at
its last checkpoint: the Lanczos reduction to m (`lanczos`, all
checkpoints' steps in one call), multisection and Newton for the six
lowest eigenvalues of T_m (`tridiagonal_eigenvalues`), inverse iteration
for their vectors (`tridiagonal_eigenvectors`), and the Ritz product
Y = Q_m Z with the certificate (`certify`, not run at m = n). The
checkpoints before the last, and the Rayleigh quotients of the isolated
eigenvalues, are in the total only. Then kernel_dimension on the same
Laplacian (the whole Lanczos reduction, multisection and Newton for its
two extreme eigenvalues and two Sturm counts), the full decomposition
sym_eigen, which is smallest_k(S, n) and
runs the whole reduction (skipped above n = 500, where the per-vector
inverse iteration over all n vectors takes seconds), with the largest
difference of all its eigenvalues from eigh, and numpy's eigh itself. The
default sizes include n = 12 and 48, the sizes the perfbench workloads
solve besides 120.
The SVD gets seeded Gaussian matrices of the shapes the pipeline
decomposes: K x K for K = 2-5 (Z^T X in the Procrustes step) and N x K (the
least-squares rescale of Z * Z, and the relaxed Z) for the benchmark's
N = 12, 48, 120. Next to each SVD row, init_rotation_R1 on the same matrix
taken as Z: its K x K eigensolve of Z^T Z runs as the SVD of Z. numpy is a
yardstick here, never a production path: speclap calls no external
eigensolver.

With --against PATH, the tables give way to a comparison of this
checkout's four stages with those of another `_kernels.py`, loaded by its
file path (the module imports only numpy and the standard library). Both
versions run each stage on the same inputs, made by this checkout: the
planted Laplacian as smallest_k enters it (at unit scale and exactly
symmetric), its Lanczos basis and tridiagonal form at the last
checkpoint, the six lowest eigenvalues, their vectors and Ritz values.
Each of --repeats pairs times both versions
back to back, the order alternating from pair to pair, each side the mean
of enough calls to take about 5 ms. The table gives each side's median,
their ratio against / this (above 1: this checkout is faster), the pairs
this checkout won, and whether every output array, the certificate's
verdict included, is bit-identical: `yes`, or `NO` and the
largest difference of an entry relative to the largest entry of its array
(`NO 4.4e-16` is a rounding-level move, `NO 1.0e+00` a wrong result).
Against a `_kernels.py` from before Newton finished the isolated
eigenvalues, stage 2 (`eigvals`) reads `NO` near 1e-8: that one stopped an
isolated eigenvalue at the midpoint of a bracket a millionth of its
clearance wide, where Newton's is exact to rounding. Stage 3 (`eigvecs`)
reads `NO` too, at rounding level or, for a vector whose shift lies above
its eigenvalue, up to `NO 2.0e+00`: inverse iteration then flips the
vector's sign each solve, and it now takes one solve fewer. smallest_k
orients every vector by its sign rule.

Usage: python benchmarks/bench_eigen.py [--sizes 12,30,48,60,120,250,500,1000] [--repeats 3]
                                        [--against OTHER/src/speclap/_kernels.py]
"""

import argparse
import importlib.util
import math
import os
import statistics
import sys
import time

import numpy as np

import speclap as sp
from speclap import _kernels, eigen

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import gen  # noqa: E402


def workload_laplacian(rng, n, blocks=4):
    """The normalized Laplacian of gen.planted's unsigned graph on n nodes."""
    sizes = [n // blocks + (b < n % blocks) for b in range(blocks)]
    return sp.laplacian(sp.Graph(gen.planted(rng, sizes, "unsigned").W), "sym").M


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
    """Best times of smallest_k(S, k)'s four stages (stage_calls)."""
    calls = stage_calls(_kernels, S, k).values()
    return tuple(best_time(lambda _, call=call: call(), S, repeats)[0] for call in calls)


def solve_trace(S, k=5):
    """What smallest_k(S, k) did: its Sturm-count passes (calls of
    `_kernels.sturm_counts`), the Newton steps of each isolated eigenvalue
    (`_kernels._newton`), the Krylov dimension m of its last checkpoint,
    the number of checkpoints, and the eigenvalues and Ritz values of T_m
    that its last checkpoint solved for and certified."""
    trace = {"passes": 0, "newton": [], "checkpoints": 0}
    counts, newton, reduce, vectors = _kernels.sturm_counts, _kernels._newton, eigen.lanczos, eigen.tridiagonal_eigenvectors
    certify = eigen.certify

    def counted(*args):
        trace["passes"] += 1
        return counts(*args)

    def stepped(*args):
        x, steps = newton(*args)
        trace["newton"].append(steps)
        return x, steps

    def reduced(A, Q, d, e, start, stop):
        trace["checkpoints"] += 1
        trace["m"] = stop
        return reduce(A, Q, d, e, start, stop)

    def solved(d, e, lam):
        trace["lam"] = lam
        return vectors(d, e, lam)

    def certified(A, Y, theta):
        trace["theta"] = theta
        return certify(A, Y, theta)

    _kernels.sturm_counts, _kernels._newton, eigen.lanczos, eigen.tridiagonal_eigenvectors = (
        counted, stepped, reduced, solved)
    eigen.certify = certified
    try:
        sp.smallest_k(S, k)
    finally:
        _kernels.sturm_counts, _kernels._newton, eigen.lanczos, eigen.tridiagonal_eigenvectors = (
            counts, newton, reduce, vectors)
        eigen.certify = certify
    return trace


def load_kernels(path):
    """The `_kernels.py` at path, imported by its file path as a module of its own."""
    spec = importlib.util.spec_from_file_location("against_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stage_calls(kernels, S, k=5):
    """smallest_k(S, k)'s four stages at its last checkpoint as calls of the
    module `kernels`, each on the output of the stage before as this
    checkout's `_kernels` makes it, starting from the matrix smallest_k
    reduces: S scaled and symmetrised by eigen._symmetric_input. Each call
    returns a tuple of its output arrays; the Ritz stage's ends with the
    certificate's verdict (true at m = n, where smallest_k runs none)."""
    A, _, _ = eigen._symmetric_input(S)
    n = A.shape[0]
    trace = solve_trace(S, k)
    m, lam = trace["m"], trace["lam"]
    Q, d, e = np.zeros((n, n)), np.zeros(n), np.zeros(n - 1)
    _kernels.lanczos(A, Q, d, e, 0, m)
    d, e = d[:m], e[: m - 1]
    Z = _kernels.tridiagonal_eigenvectors(d, e, lam)

    def lanczos():
        out = np.zeros((n, n)), np.zeros(n), np.zeros(n - 1)
        kernels.lanczos(A, *out, 0, m)
        return out

    def ritz():
        Y = Q[:m].T @ Z
        return Y, np.array(m == n or kernels.certify(A, Y, trace["theta"]))

    return {
        "lanczos": lanczos,
        "eigvals": lambda: kernels.tridiagonal_eigenvalues(d, e, 0, min(k + 1, m)),
        "eigvecs": lambda: (kernels.tridiagonal_eigenvectors(d, e, lam),),
        "ritz": ritz,
    }


def difference(out, other):
    """None when two stage outputs hold the same arrays bit for bit, else
    the largest difference of an entry relative to the largest entry of its
    array in `other` (inf for arrays of different shapes or a missing one)."""
    if len(out) != len(other):
        return math.inf
    worst = None
    for a, b in zip(out, other):
        if a is None or b is None or a.shape != b.shape:
            if a is not b:
                return math.inf
        elif a.dtype != b.dtype or a.tobytes() != b.tobytes():
            a, b = a.astype(float), b.astype(float)
            top, moved = float(np.abs(b).max()), float(np.abs(a - b).max())
            worst = max(worst or 0.0, moved / top if top else math.inf if moved else 0.0)
    return worst


def compare(path, sizes, pairs, rng):
    """Print this checkout's stages against those of the `_kernels.py` at path."""
    other = load_kernels(path)
    print(f"against {path}")
    print(f"{'n':>5} {'stage':>8} {'this':>11} {'against':>11} {'ratio':>6} {'won':>7} {'identical':>10}")
    for n in sizes:
        S = workload_laplacian(rng, n)
        ours, theirs = stage_calls(_kernels, S), stage_calls(other, S)
        for stage, call in ours.items():
            t0 = time.perf_counter()
            out = call()
            number = max(1, round(5e-3 / (time.perf_counter() - t0)))
            moved = difference(out, theirs[stage]())
            times = {"this": [], "against": []}
            for r in range(pairs):
                sides = [("this", call), ("against", theirs[stage])]
                for side, fn in sides if r % 2 == 0 else sides[::-1]:
                    t0 = time.perf_counter()
                    for _ in range(number):
                        fn()
                    times[side].append((time.perf_counter() - t0) / number)
            t_this, t_against = statistics.median(times["this"]), statistics.median(times["against"])
            won = sum(a < b for a, b in zip(times["this"], times["against"]))
            print(f"{n:>5} {stage:>8} {t_this * 1e3:>9.3f}ms {t_against * 1e3:>9.3f}ms {t_against / t_this:>6.3f}"
                  f" {f'{won}/{pairs}':>7} {'yes' if moved is None else f'NO {moved:.1e}':>10}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="12,30,48,60,120,250,500,1000")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--against", metavar="PATH", help="another checkout's src/speclap/_kernels.py")
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    if args.against:
        compare(args.against, [int(s) for s in args.sizes.split(",")], args.repeats, rng)
        return

    stages = ("lanczos", "eigvals", "eigvecs", "ritz")
    print(f"{'n':>5} {'smallest_k 5':>13} {'passes':>6} {'newton':>6} {'m':>5} {'ckpts':>5} {'max |dλ|':>9} "
          + " ".join(f"{s:>9}" for s in stages)
          + f" {'kernel_dim':>11} {'sym_eigen':>12} {'max |dλ|':>9} {'numpy eigh':>12}")
    for n in (int(s) for s in args.sizes.split(",")):
        S = workload_laplacian(rng, n)
        t_k, (vals, _) = best_time(lambda M: sp.smallest_k(M, 5), S, args.repeats)
        t_ref, ref = best_time(np.linalg.eigh, S, args.repeats)
        err = float(np.max(np.abs(vals - ref.eigenvalues[:5])))
        split = " ".join(f"{t * 1e3:>7.2f}ms" for t in stage_times(S, args.repeats))
        t_ker, _ = best_time(sp.eigen._kernel_dimension, S, args.repeats)
        if n <= SYM_EIGEN_MAX_N:
            t_full, eig = best_time(sp.sym_eigen, S, args.repeats)
            full = f"{t_full * 1e3:>10.2f}ms {float(np.max(np.abs(eig.values - ref.eigenvalues))):>9.1e}"
        else:
            full = f"{'-':>12} {'-':>9}"
        trace = solve_trace(S)
        steps = f"{statistics.mean(trace['newton']):.1f}" if trace["newton"] else "-"
        print(f"{n:>5} {t_k * 1e3:>11.2f}ms {trace['passes']:>6} {steps:>6} {trace['m']:>5} {trace['checkpoints']:>5}"
              f" {err:>9.1e} {split} {t_ker * 1e3:>9.2f}ms"
              f" {full} {t_ref * 1e3:>10.3f}ms")

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

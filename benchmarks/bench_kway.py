"""Time the K-way rounding layer of speclap's cluster stage by stage, with the relaxation taken out.

Each size n gets seeded planted graphs from `perfbench/gen.py` with K equal
blocks: unsigned ones for ncut and rcut, unbalanced signed ones for
signed_ncut and signed_rcut (as the batch-n12 workload draws them). Every
mode runs with every rescale method. `kway.solve_relaxed` is computed once
per graph and mode and then replaced by a lookup, so the times cover only
what `cluster` does after the eigensolver. The stages of a call are read off
wrappers around `kway.podx`, `kway.podr` and `kway.objective`, the way
perfbench's harness splits a traced call: initialisation (R1, the rescales,
R2 and the candidate scoring) runs from the start of the call to the start
of the podx right before the first podr, the alternation from there to the
start of `objective` (or to the NoConvergence raise), and the objective
after it. The normalized cuts solve for R1, rescale both Z and Z R1 and
score the four candidate roundings of each; the ratio cuts take R1 = I,
since their relaxation constrains Z^T Z = c^2 I, so Z R1 is Z: they rescale
Z once and score its four roundings with one R2. The two families'
initialisations differ in work, so the table gives them apart: `init ncut`
averages over the ncut and signed_ncut calls, `init rcut` over the rcut and
signed_rcut calls. Then each shape the one-sided Jacobi SVD is called on,
timed on its own with the matrices of the same calls: `eigen.svd` of the
K x K Z^T X of podr's first round, `eigen._gram_eigen` of the N x K relaxed
Z of the ncut and signed_ncut calls (init_rotation_R1) and `kway._pinv` of
Z * Z (the row_norm_ls rescale).

The table gives microseconds per call: the median over the repeats (after
one warm-up pass) of the mean over the calls at that size, all of them but
for the two init columns; the K x K column includes forming Z^T X.
`rounds` is the mean number of alternation rounds and `fail` the number of
calls that raised NoConvergence.

Usage: python benchmarks/bench_kway.py [--sizes 12,48,120] [--k 3] [--graphs 4] [--repeats 5]
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

import speclap as sp
from speclap import eigen, kway

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import gen  # noqa: E402

MODES = (("ncut", "unsigned"), ("rcut", "unsigned"), ("signed_ncut", "unbalanced"),
         ("signed_rcut", "unbalanced"))
STAGES = ("init", "alternation", "objective", "total")
SHAPES = ("svd KxK", "gram NxK", "pinv NxK")
COLUMNS = ("init ncut", "init rcut") + STAGES[1:] + SHAPES


class StageClock:
    """Start times of the podx, podr and objective calls of one cluster call."""

    def __init__(self):
        self.events = []
        self.first_podr = None  # (X, Z) of the first round

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            self.events.append((name, time.perf_counter()))
            if name == "podr" and self.first_podr is None:
                self.first_podr = args
            return fn(*args, **kwargs)

        return timed

    def split(self, start, end):
        names = [n for n, _ in self.events]
        first = names.index("podr") - 1  # the podx that starts round 1
        alt_start = self.events[first][1]
        alt_end = self.events[names.index("objective")][1] if "objective" in names else end
        return {"init": alt_start - start, "alternation": alt_end - alt_start,
                "objective": end - alt_end, "total": end - start}, names.count("podr")


def jobs_for(rng, n, K, graphs):
    """(g, K, mode, rescale, solution) for every graph, mode and rescale."""
    out = []
    for _ in range(graphs):
        planted = {kind: sp.Graph(gen.planted(rng, [n // K] * K, kind).W) for kind in ("unsigned", "unbalanced")}
        for mode, kind in MODES:
            sol = kway.solve_relaxed(planted[kind], K, mode)
            out += [(planted[kind], K, mode, rescale, sol) for rescale in kway.RESCALE_METHODS]
    return out


def run_cluster(job):
    """Stage times and round count of one cluster call, and the first podr's
    (X, Z); None for the rounds if it raised NoConvergence."""
    g, K, mode, rescale, sol = job
    clock = StageClock()
    saved = {name: getattr(kway, name) for name in ("podx", "podr", "objective", "solve_relaxed")}
    for name in ("podx", "podr", "objective"):
        setattr(kway, name, clock.wrap(name, saved[name]))
    kway.solve_relaxed = lambda *args: sol
    rounds = None
    try:
        start = time.perf_counter()
        try:
            kway.cluster(g, K, mode, rescale)
        except sp.errors.NoConvergence:
            pass
        end = time.perf_counter()
        times, rounds = clock.split(start, end)
    finally:
        for name, fn in saved.items():
            setattr(kway, name, fn)
    if "objective" not in [n for n, _ in clock.events]:
        rounds = None
    return times, rounds, clock.first_podr


def time_each(fn, args_list):
    t0 = time.perf_counter()
    for args in args_list:
        fn(*args)
    return (time.perf_counter() - t0) / len(args_list)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", default="12,48,120")
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--graphs", type=int, default=4)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    rng = np.random.default_rng(0)

    print(f"{'n':>5} {'calls':>6} {'rounds':>6} {'fail':>5} " + " ".join(f"{s:>12}" for s in COLUMNS))
    for n in (int(s) for s in args.sizes.split(",")):
        jobs = jobs_for(rng, n, args.k, args.graphs)
        per_repeat = {s: [] for s in COLUMNS}
        for job in jobs:  # warm-up
            run_cluster(job)
        for _ in range(args.repeats):
            results = [run_cluster(job) for job in jobs]
            for s in STAGES[1:]:
                per_repeat[s].append(statistics.fmean(times[s] for times, _, _ in results))
            for column, normalized in (("init ncut", True), ("init rcut", False)):
                per_repeat[column].append(statistics.fmean(
                    times["init"] for (times, _, _), job in zip(results, jobs) if job[2].endswith("ncut") == normalized))
            podr_inputs = [(X.X if isinstance(X, kway.IndicatorMatrix) else X, Z) for _, _, (X, Z) in results]
            per_repeat["svd KxK"].append(time_each(lambda X, Z: eigen.svd(Z.T @ X), podr_inputs))
            zs = [(job[4].Z,) for job in jobs]
            normalized = [(job[4].Z,) for job in jobs if job[2].endswith("ncut")]
            per_repeat["gram NxK"].append(time_each(eigen._gram_eigen, normalized))
            per_repeat["pinv NxK"].append(time_each(lambda Z: kway._pinv(Z * Z), zs))
        rounds = [r for _, r, _ in results if r is not None]
        print(f"{n:>5} {len(jobs):>6} {statistics.fmean(rounds):>6.2f} {len(jobs) - len(rounds):>5} "
              + " ".join(f"{statistics.median(per_repeat[s]) * 1e6:>10.1f}us" for s in COLUMNS))


if __name__ == "__main__":
    main()

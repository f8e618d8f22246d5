"""How far `cluster` lands from the best partition: brute force on the benchmark's own graphs.

For every call of the perfbench `batch-n12` schedule (n = 12, K = 3, all four
modes and three rescale methods; built by `perfbench/workloads.py`, imported
read-only) at the given seeds, this runs the call in this process through
`speclap.cli.main` and computes the exact optimum of the call's cut
objective over all S(12, 3) = 86 526 partitions into three nonempty blocks.
The partitions are enumerated once, as label rows, and each graph is scored
in one vectorised pass over their one-hot blocks, for all the modes it is
clustered in. The objective is recomputed from W alone, without speclap:
sum over blocks A of cut'(A) / size(A), with cut'(A) = sum_{i in A} |d|_i -
sum_{i, j in A} w_ij (|d| the row sums of |W|) and size(A) the volume under
|d| for the normalized cuts (ncut, sncut) or |A| for the ratio cuts.

Per seed it prints one row per mode x rescale and a total: the calls, how
many succeed, how many are exact (objective within 1e-9 relative of the
optimum), how many are more than 1 % above it, the worst objective over the
optimum, how many lie below it (an objective or enumeration fault: 0), and
how many raise `NoConvergence`.

Usage, from the root of a checkout (speclap is imported from ./src):
  PYTHONPATH=src python benchmarks/quality.py [--seeds 1,2,3]
"""

import argparse
import json
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from parity import error_class, run_call, workloads
from speclap import cli

WORKLOAD = "batch-n12"
NORMALIZED = {"ncut": True, "sncut": True, "rcut": False, "srcut": False}
EXACT_RTOL = 1e-9
OFF = 0.01


def partition_labels(n, k):
    """Every partition of n nodes into exactly k nonempty blocks, one row
    of block labels each: the restricted growth strings (node 0 in block 0,
    each block first used after the one before it) that use all k labels."""
    labels = (np.arange(k**n)[:, None] // k ** np.arange(n - 1, -1, -1)) % k
    reached = np.maximum.accumulate(labels, axis=1)
    grows = (labels[:, 0] == 0) & (labels[:, 1:] <= reached[:, :-1] + 1).all(axis=1)
    return labels[grows & (reached[:, -1] == k - 1)]


def optima(W, labels, modes):
    """{mode: the least objective over the partitions in labels}, from one
    pass over each block's one-hot rows. A partition with a block of zero
    size counts as infinite."""
    W = np.asarray(W, dtype=float)
    degree = np.abs(W).sum(axis=1)
    totals = {mode: np.zeros(len(labels)) for mode in modes}
    for block in range(labels.max() + 1):
        x = (labels == block).astype(float)
        cut = x @ degree - ((x @ W) * x).sum(axis=1)
        size = {True: x @ degree, False: x.sum(axis=1)}
        for mode in modes:
            den = size[NORMALIZED[mode]]
            totals[mode] += np.divide(cut, den, out=np.full(len(x), np.inf), where=den > 0)
    return {mode: float(total.min()) for mode, total in totals.items()}


@dataclass(frozen=True)
class Outcome:
    mode: str
    rescale: str
    objective: float | None  # None when the call failed
    error: str | None  # the error class of a failed call
    optimum: float


def score_seed(seed):
    """One Outcome per call of the workload schedule at this seed."""
    labels = partition_labels(12, 3)
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        units = workloads.WORKLOADS[WORKLOAD].build(workloads.rng_for(seed, WORKLOAD), directory)
        for unit in units:
            by_graph = {}
            for call in unit:
                by_graph.setdefault(call.argv[1], []).append(call)
            for path, calls in by_graph.items():
                best = optima(cli.parse_graph(path).W, labels, {call.mode for call in calls})
                for call in calls:
                    rec = run_call(call.argv, directory)
                    objective = json.loads(rec["stdout"])["objective"] if rec["code"] == 0 else None
                    rescale = call.argv[call.argv.index("--rescale") + 1]
                    outcomes.append(Outcome(call.mode, rescale, objective, error_class(rec), best[call.mode]))
    return outcomes


def summarise(outcomes):
    """(calls, succeed, exact, off, worst, below, NoConvergence) over the outcomes."""
    done = [o for o in outcomes if o.objective is not None]
    ratios = [o.objective / o.optimum for o in done]
    return (len(outcomes), len(done),
            sum(abs(o.objective - o.optimum) <= EXACT_RTOL * o.optimum for o in done),
            sum(r > 1.0 + OFF for r in ratios),
            max(ratios, default=float("nan")),
            sum(r < 1.0 - EXACT_RTOL for r in ratios),
            sum(o.error == "NoConvergence" for o in outcomes))


def print_seed(seed, outcomes):
    print(f"{WORKLOAD}, seed {seed}")
    print(f"{'mode':<6} {'rescale':<11} {'calls':>5} {'succeed':>7} {'exact':>5} {'>1% off':>7} "
          f"{'worst':>7} {'below':>5} {'NoConvergence':>13}")
    groups = {}
    for o in outcomes:
        groups.setdefault((o.mode, o.rescale), []).append(o)
    for (mode, rescale), group in [*groups.items(), (("all", ""), outcomes)]:
        calls, succeed, exact, off, worst, below, stalled = summarise(group)
        print(f"{mode:<6} {rescale:<11} {calls:>5} {succeed:>7} {exact:>5} {off:>7} "
              f"{worst:>7.3f} {below:>5} {stalled:>13}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    args = p.parse_args(argv)
    for seed in (int(s) for s in args.seeds.split(",") if s):
        print_seed(seed, score_seed(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())

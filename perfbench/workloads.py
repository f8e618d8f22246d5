"""The benchmark's workloads: which CLI calls run, on which generated graphs.

A workload is a list of units; a unit is a short list of calls that the loop
always runs whole, so each run sees the same mix of commands. The loop runs
every unit once, then repeats them in order while the next one is expected
to end within the run's time. Each call of the schedule is an operation;
since every run tries all of them, which operations fail depends on the
seed alone. At today's speed the first pass takes about 32 s on
cluster-n120 (two calls), 18 s on batch-n12 and 22 s on signed-n48.

Why each workload exists (the layer it lets show, and what should not move):

* cluster-n120: `cluster --k 4 --mode ncut` on planted 4-block graphs at
  n = 120, the roadmap's headline size. The eigensolver is about 99.7 % of
  a call, the rounding layers under 0.1 %: an eigensolver change shows here,
  a rounding or CLI change should not.
* batch-n12: many small graphs at n = 12, K = 3, rotating through all four
  modes (unsigned graphs for ncut/rcut, signed for sncut/srcut) and all
  three rescale methods. A call takes milliseconds and the eigensolver is
  about 70 % of it; argparse, parsing, Graph validation, initialisation,
  podx/podr/svd and the objective are the rest. Per-call overhead and the
  cost of added diagnostics show here.
* signed-n48: rounds of four commands at n = 48 that ask for 1-3 eigenpairs
  but solve the whole 48 x 48 problem more than once (balance 1 solve,
  draw 2, cluster --k 2 --mode ncut 2). Rounds alternate a balanced 2-block
  and an unbalanced 3-block signed graph. Removing repeated solves shows
  here and not on cluster-n120, which does one n x n solve per call.
"""

import os
from dataclasses import dataclass

import numpy as np

import gen


@dataclass(frozen=True)
class Call:
    command: str  # cluster | cluster_k2 | draw | balance
    argv: tuple
    graph: gen.Planted
    k: int = 0
    mode: str = ""
    dim: int = 0
    svg: str = ""
    csv: str = ""

    @property
    def n(self):
        return self.graph.n


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_argv: tuple  # the workload's command, run on the W1 graph
    build: object  # (rng, directory) -> list of units


def _write(directory, name, planted_graph):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(gen.graph_text(planted_graph.W))
    return path


def _cluster(path, g, k, mode, rescale=None):
    argv = ["cluster", path, "--k", str(k), "--mode", mode]
    if rescale:
        argv += ["--rescale", rescale]
    command = "cluster_k2" if (k, mode) == (2, "ncut") else "cluster"
    return Call(command, tuple(argv), g, k=k, mode=mode)


def build_cluster_n120(rng, directory):
    units = []
    for i in range(2):
        g = gen.planted(rng, [30] * 4, "unsigned")
        units.append([_cluster(_write(directory, f"n120-{i}.txt", g), g, 4, "ncut")])
    return units


BATCH_MODES = (("ncut", "unsigned"), ("rcut", "unsigned"), ("sncut", "unbalanced"), ("srcut", "unbalanced"))
BATCH_RESCALES = ("rowsum", "rownorm-ls", "rownorm")


def build_batch_n12(rng, directory):
    out = []
    for u in range(100):
        graphs = {}
        for kind in ("unsigned", "unbalanced"):
            g = gen.planted(rng, [4, 4, 4], kind)
            graphs[kind] = (_write(directory, f"n12-{u}-{kind}.txt", g), g)
        out.append([
            _cluster(*graphs[kind], 3, mode, rescale)
            for mode, kind in BATCH_MODES
            for rescale in BATCH_RESCALES
        ])
    return out


def _signed_round(directory, name, g):
    path = _write(directory, f"{name}.txt", g)
    abs_g = gen.absolute(g)
    abs_path = _write(directory, f"{name}-abs.txt", abs_g)
    svg = os.path.join(directory, "draw.svg")
    csv = os.path.join(directory, "draw.csv")
    return [
        Call("balance", ("balance", path), g),
        Call("draw", ("draw", path, "--signed", "--dim", "2", "--svg", svg, "--csv", csv), g,
             dim=2, svg=svg, csv=csv),
        _cluster(path, g, 3, "sncut", "rownorm-ls"),
        _cluster(abs_path, abs_g, 2, "ncut"),
    ]


def build_signed_n48(rng, directory):
    units = []
    for i in range(2):
        balanced = gen.planted(rng, [24, 24], "balanced")
        unbalanced = gen.planted(rng, [16, 16, 16], "unbalanced")
        units.append(
            _signed_round(directory, f"n48-{i}-balanced", balanced)
            + _signed_round(directory, f"n48-{i}-unbalanced", unbalanced)
        )
    return units


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cluster-n120",
            "4-way ncut at n = 120: the eigensolver is 99.7 % of a call, so "
            "eigensolver changes show and rounding or CLI changes should not",
            ("cluster", "--k", "4", "--mode", "ncut"),
            build_cluster_n120,
        ),
        Workload(
            "batch-n12",
            "many n = 12 calls over all modes and rescales: per-call overhead "
            "of parsing, validation, rounding and diagnostics shows",
            ("cluster", "--k", "3", "--mode", "ncut"),
            build_batch_n12,
        ),
        Workload(
            "signed-n48",
            "balance, signed draw and cluster at n = 48 repeat full solves "
            "for 1-3 eigenpairs: removing repeated solves shows here only",
            ("cluster", "--k", "2", "--mode", "ncut"),
            build_signed_n48,
        ),
    )
}


def planted_match(call):
    """The planted labelling when it has exactly the call's K blocks."""
    if call.command.startswith("cluster") and call.graph.k == call.k:
        return call.graph.blocks
    return None


def rng_for(seed, name):
    # one independent stream per (seed, workload)
    return np.random.default_rng([seed, sum(map(ord, name))])

"""Command-line front end.

Graph files are plain text: a first line with the node count N, then one
edge per line as "i j w" with 1-based endpoints and a real weight. Blank
lines and lines starting with '#' are ignored. Self-loops, duplicate
unordered pairs and non-finite weights are rejected.

Exit codes: 0 success, 1 usage error, 2 domain error. Errors are printed
to stderr as a single-line JSON object.

Every command solves with the eigen module's one tolerance
(eigen.DEFAULT_TOL); no option or environment variable changes it.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import eigen
from .drawing import emit_csv, emit_svg, energy, signed_drawing, spectral_drawing
from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    NonFiniteWeight,
    ParseError,
    SpeclapError,
)
from .graph import Graph, orient
from .kway import cluster
from .laplacian import is_balanced, laplacian
from .ncut2 import orient_sign, round_2way, two_way_vector

_MODE_MAP = {
    "ncut": "ncut",
    "sncut": "signed_ncut",
    "rcut": "rcut",
    "srcut": "signed_rcut",
}
_RESCALE_MAP = {
    "rowsum": "row_sum_ls",
    "rownorm-ls": "row_norm_ls",
    "rownorm": "row_normalize",
}


def parse_graph(path):
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    n = None
    W = None
    seen = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise ParseError(line_no, "expected the node count alone on the first line")
            try:
                n = int(fields[0])
            except ValueError:
                raise ParseError(line_no, f"bad node count {fields[0]!r}") from None
            if n < 1:
                raise ParseError(line_no, "node count must be >= 1")
            try:
                W = np.zeros((n, n))
            except (MemoryError, ValueError):  # n * n floats do not fit
                raise ParseError(line_no, f"node count {n} is too large") from None
            continue
        if len(fields) != 3:
            raise ParseError(line_no, "expected 'i j w'")
        try:
            i = int(fields[0])
            j = int(fields[1])
            w = float(fields[2])
        except ValueError:
            raise ParseError(line_no, f"bad edge record {line!r}") from None
        if not math.isfinite(w):
            raise NonFiniteWeight(f"line {line_no}: non-finite weight {fields[2]!r}")
        if i == j:
            raise ParseError(line_no, f"self-loop on node {i}")
        for idx in (i, j):
            if not 1 <= idx <= n:
                raise IndexOutOfRange(line_no, idx)
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise DuplicateEdge(line_no, i, j)
        seen.add(pair)
        W[i - 1, j - 1] = w
        W[j - 1, i - 1] = w
    if n is None:
        raise ParseError(0, "empty graph file")
    return Graph(W)


def serialize_graph(g):
    """Round-trippable edge-list text for a Graph."""
    lines = [str(g.m)] + [f"{i} {j} {w!r}" for i, j, w in orient(g).edges]
    return "\n".join(lines) + "\n"


def cmd_draw(args):
    g = parse_graph(args.graph)
    n = args.dim
    if args.signed:
        dm = signed_drawing(g, n, bipartite=args.bipartite)
    else:
        dm = spectral_drawing(g, n)
    report = {
        "dim": n,
        "energy": energy(g, dm, signed=args.signed),
        "eigenvalues": [float(v) for v in dm.eigenvalues],
    }
    if args.svg:
        report["svg"] = emit_svg(dm, g, args.svg)
    if args.csv:
        emit_csv(dm, args.csv)
        report["csv"] = args.csv
    print(json.dumps(report))
    return 0


def cmd_cluster(args):
    g = parse_graph(args.graph)
    mode = _MODE_MAP[args.mode]
    result = cluster(g, args.k, mode=mode, rescale=_RESCALE_MAP[args.rescale])
    assignments = [int(b) + 1 for b in result.X.assignment]
    report = {
        "k": args.k,
        "mode": args.mode,
        "assignments": assignments,
        "objective": result.objective,
        "relaxation_value": result.relaxation_value,
        "iterations": result.iterations,
        "residual": result.residual,
    }
    if args.k == 2 and mode == "ncut":
        # the 2-way vector is column 2 of the K = 2 relaxation just solved
        two = round_2way(g, orient_sign(two_way_vector(g, result.Z.Z)))
        report["two_way"] = {
            "partition": [sorted(two.partition[0].members), sorted(two.partition[1].members)],
            "ncut": two.ncut,
            "residual": two.residual,
        }
    text = json.dumps(report)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    print(text)
    return 0


def cmd_balance(args):
    g = parse_graph(args.graph)
    report = is_balanced(g)
    vals, _ = eigen.smallest_k(laplacian(g, "signed_unnormalized").M, 1)
    out = {
        "balanced": report.balanced,
        "smallest_signed_laplacian_eigenvalue": float(vals[0]),
    }
    if report.bipartition is not None:
        out["bipartition"] = [int(s) for s in report.bipartition]
    print(json.dumps(out))
    return 0


def _build_parser():
    p = argparse.ArgumentParser(prog="speclap", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("draw", help="spectral drawing of a graph")
    d.add_argument("graph")
    d.add_argument("--dim", type=int, default=2)
    d.add_argument("--signed", action="store_true")
    d.add_argument("--bipartite", action="store_true")
    d.add_argument("--svg")
    d.add_argument("--csv")
    d.set_defaults(func=cmd_draw)

    c = sub.add_parser("cluster", help="K-way clustering")
    c.add_argument("graph")
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--mode", choices=sorted(_MODE_MAP), default="ncut")
    c.add_argument("--rescale", choices=sorted(_RESCALE_MAP), default="rownorm")
    c.add_argument("--json")
    c.set_defaults(func=cmd_cluster)

    b = sub.add_parser("balance", help="balance check for a signed graph")
    b.add_argument("graph")
    b.set_defaults(func=cmd_balance)
    return p


_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except (SpeclapError, ValueError, OSError) as e:
        print(json.dumps({"error": type(e).__name__, "message": str(e)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

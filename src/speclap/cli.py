"""Command-line front end.

Graph files are UTF-8 text, read once and then line by line; lines end in
LF, CRLF or CR, and a file that is not UTF-8 fails with UnicodeDecodeError
before any line is parsed. Blank lines are skipped, and so is a comment: a
whole line whose first non-blank character is '#'. The first other line
holds the node count N alone, a decimal integer >= 1. Every later line is
one edge "i j w": i and j are 1-based node indices written as decimal
integers, w is a real weight.
Fields are separated by any whitespace (spaces, tabs, form feeds). Indices
and weights follow Python's int() and float(): a sign is allowed, "1.0" and
"1e0" are not indices, and "1_0" or non-ASCII decimal digits are accepted.
A '#' after a record's fields is a fourth field, an error, not a comment.
Self-loops, indices outside 1..N, an unordered pair given twice (as i j or
as j i) and non-finite weights (nan, inf) are errors. Every error names the
first failing line (line 0 for a file without a node count): ParseError,
or its subclasses IndexOutOfRange and DuplicateEdge, or NonFiniteWeight.

Each command takes the parsed graph and the arguments and returns its
report, which `main` prints as one JSON line on stdout.

Exit codes: 0 success, 1 usage error, 2 domain error. A domain error (a
SpeclapError, ValueError or OSError raised while reading the graph or
running the command) is printed to stderr as a single-line JSON object,
{"error": ..., "message": ...}. A usage error, found by argparse before
the graph is read, prints argparse's usage text and message instead, not
JSON. Each warning a command raises goes to stderr as one JSON line too,
{"warning": <class name>, "message": ...}, ahead of any error line.

Every command solves with the eigen module's one tolerance
(eigen.DEFAULT_TOL); no option or environment variable changes it.
"""

import argparse
import json
import math
import sys
import warnings

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
from .ncut2 import orient_sign, round_2way

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


# one edge record as np.loadtxt reads it
_RECORD = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def parse_graph(path):
    """The Graph in a graph file (grammar in the module docstring).

    The file is read once. `_read_header` parses the node count line. The
    records after it have two readers and one grammar. `_parse_records`
    defines the grammar: it reads one record at a time in Python and raises
    the first error with its line number, but at n = 120 that loop took
    about a third of a `cluster` call. So `_read_records` runs first: all
    records in one `np.loadtxt` pass in C, checked vectorised. It takes
    records that are all three plain ASCII decimal fields and break no
    rule, as in every valid file that `serialize_graph` or `perfbench`
    writes. Any other record section goes to `_parse_records`: one with an
    error, a '#' line or no record, or a token that int() or float() accept
    and loadtxt refuses (1_0, non-ASCII digits, integers beyond 64 bits).
    The loop then raises the error it always raised, or fills W as it
    always did. The input alone selects the reader.
    """
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    start, W = _read_header(lines)
    if not _read_records(lines[start:], W):
        _parse_records(lines, start, W)
    return Graph(W)


def _read_header(lines):
    """(index of the line after the node count, the N x N zero W), or the
    header's error with its 1-based line number (0 for no node count)."""
    for line_no, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 1:
            raise ParseError(line_no, "expected the node count alone on the first line")
        try:
            n = int(fields[0])
        except ValueError:
            raise ParseError(line_no, f"bad node count {fields[0]!r}") from None
        if n < 1:
            raise ParseError(line_no, "node count must be >= 1")
        try:
            return line_no, np.zeros((n, n))
        except (MemoryError, ValueError):  # n * n floats do not fit
            raise ParseError(line_no, f"node count {n} is too large") from None
    raise ParseError(0, "empty graph file")


def _read_records(lines, W):
    """Fill W from one np.loadtxt pass over the record lines and return
    True; False, with W untouched, where that pass refuses the lines or a
    record breaks a rule."""
    n = len(W)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns on lines without records
            i, j, w = np.loadtxt(lines, dtype=_RECORD, comments=None, ndmin=1, unpack=True)
    except (ValueError, MemoryError, Warning):
        return False
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    if not (np.isfinite(w).all() and lo.min() >= 1 and hi.max() <= n and (lo < hi).all()):
        return False
    pairs = np.sort(lo * (n + 1) + hi)
    if (pairs[1:] == pairs[:-1]).any():
        return False
    W[i - 1, j - 1] = w
    W[j - 1, i - 1] = w
    return True


def _parse_records(lines, start, W):
    """The record grammar, one line at a time from lines[start]: fill W, or
    raise the first error with its 1-based line number."""
    n = len(W)
    seen = set()
    for line_no, raw in enumerate(lines[start:], start=start + 1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) != 3:
            raise ParseError(line_no, "expected 'i j w'")
        try:
            i = int(fields[0])
            j = int(fields[1])
            w = float(fields[2])
        except ValueError:
            raise ParseError(line_no, f"bad edge record {raw.strip()!r}") from None
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


def serialize_graph(g):
    """Round-trippable edge-list text for a Graph."""
    lines = [str(g.m)] + [f"{i} {j} {w!r}" for i, j, w in orient(g).edges]
    return "\n".join(lines) + "\n"


def cmd_draw(g, args):
    n = args.dim
    dm = signed_drawing(g, n, bipartite=args.bipartite) if args.signed else spectral_drawing(g, n)
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
    return report


def cmd_cluster(g, args):
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
        # the 2-way vector is column 2 of the K = 2 relaxation just solved, at
        # its scale: rounding is homogeneous in z, so only the residual sees it
        two = round_2way(g, orient_sign(result.Z.Z[:, 1]))
        report["two_way"] = {
            "partition": [sorted(two.partition[0].members), sorted(two.partition[1].members)],
            "ncut": two.ncut,
            "residual": two.residual,
        }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(json.dumps(report) + "\n")
    return report


def cmd_balance(g, args):
    report = is_balanced(g)
    vals, _ = eigen.smallest_k(laplacian(g, "signed_unnormalized").M, 1)
    out = {
        "balanced": report.balanced,
        "smallest_signed_laplacian_eigenvalue": float(vals[0]),
    }
    if report.bipartition is not None:
        out["bipartition"] = [int(s) for s in report.bipartition]
    return out


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
        if getattr(args, "bipartite", False) and not args.signed:
            _PARSER.error("draw: --bipartite needs --signed")
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    code, error = 0, None
    with warnings.catch_warnings(record=True) as caught:
        try:
            print(json.dumps(args.func(parse_graph(args.graph), args)))
        except (SpeclapError, ValueError, OSError) as e:
            code, error = 2, {"error": type(e).__name__, "message": str(e)}
    for w in caught:
        print(json.dumps({"warning": w.category.__name__, "message": str(w.message)}), file=sys.stderr)
    if error is not None:
        print(json.dumps(error), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

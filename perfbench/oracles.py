"""Independent checks of every CLI result, in numpy.

Each check returns None when the output is right and a one-line reason when
it is not. Nothing here calls speclap: objectives are recomputed from W,
spectra come from `numpy.linalg.eigh`.
"""

import json
import math

import numpy as np

CLUSTER_FIELDS = ("k", "mode", "assignments", "objective", "relaxation_value", "iterations", "residual")
SIGNED_MODES = ("sncut", "srcut")


def _close(a, b, rel=1e-9, scale=1.0):
    return abs(a - b) <= rel * max(abs(a), abs(b), scale)


def signed_laplacian(W):
    return np.diag(np.abs(W).sum(axis=1)) - W


def cut_objective(W, labels, mode):
    """The CLI mode's discrete objective of a labelling (any integer ids)."""
    signed = mode in SIGNED_MODES
    A = np.abs(W)
    d = A.sum(axis=1) if signed else W.sum(axis=1)
    total = 0.0
    for j in np.unique(labels):
        m = labels == j
        num = A[np.ix_(m, ~m)].sum()
        if signed:
            inner = W[np.ix_(m, m)]
            num += 2.0 * -inner[inner < 0].sum()
        den = d[m].sum() if mode.endswith("ncut") else m.sum()
        total += num / den
    return float(total)


def ncut2(W, in_a):
    d = W.sum(axis=1)
    cut = W[np.ix_(in_a, ~in_a)].sum()
    return float(cut * (1.0 / d[in_a].sum() + 1.0 / d[~in_a].sum()))


def parse_report(out):
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return None
    return report if isinstance(report, dict) else None


def check_cluster(report, W, k, mode):
    missing = [f for f in CLUSTER_FIELDS if f not in report]
    if missing:
        return f"missing fields {missing}"
    if report["k"] != k or report["mode"] != mode:
        return "k or mode not echoed"
    labels = np.asarray(report["assignments"])
    n = W.shape[0]
    if labels.shape != (n,) or labels.dtype.kind != "i":
        return "assignments are not one integer per node"
    if set(labels.tolist()) != set(range(1, k + 1)):
        return f"assignments do not form {k} non-empty blocks"
    want = cut_objective(W, labels, mode)
    if not _close(report["objective"], want):
        return f"objective {report['objective']!r} != recomputed {want!r}"
    for f in ("relaxation_value", "residual"):
        if not math.isfinite(report[f]) or report[f] < 0:
            return f"{f} is not a finite non-negative number"
    if not (isinstance(report["iterations"], int) and report["iterations"] >= 1):
        return "iterations is not a positive integer"
    if k == 2 and mode == "ncut":
        return _check_two_way(report.get("two_way"), W)
    return None


def _check_two_way(two, W):
    if not isinstance(two, dict) or set(two) != {"partition", "ncut", "residual"}:
        return "two_way report missing or malformed"
    n = W.shape[0]
    a, b = two["partition"]
    if not a or not b or sorted(a + b) != list(range(1, n + 1)):
        return "two_way partition does not split the nodes in two"
    in_a = np.zeros(n, dtype=bool)
    in_a[np.asarray(a) - 1] = True
    want = ncut2(W, in_a)
    if not _close(two["ncut"], want):
        return f"two_way ncut {two['ncut']!r} != recomputed {want!r}"
    return None


def check_draw(report, W, dim, unbalanced, csv_text, svg_text):
    """`draw --signed`: eigenvalues against eigh, CSV coordinates orthonormal
    eigenvectors, energy = sum of the eigenvalues the drawing uses."""
    if not {"dim", "energy", "eigenvalues", "svg", "csv"} <= set(report):
        return "missing fields"
    L = signed_laplacian(W)
    ref = np.linalg.eigh(L)[0]
    scale = max(1.0, float(np.abs(ref).max()))
    got = np.asarray(report["eigenvalues"], dtype=float)
    want = ref[: min(dim + 1, W.shape[0])]
    if got.shape != want.shape or np.abs(got - want).max() > 1e-8 * scale:
        return "eigenvalues differ from numpy.linalg.eigh"
    used = want[:dim] if unbalanced else want[1 : dim + 1]
    if not _close(report["energy"], float(used.sum()), rel=1e-8, scale=scale):
        return f"energy {report['energy']!r} != sum of used eigenvalues {used.sum()!r}"
    rows = [line.split(",") for line in csv_text.strip().splitlines()]
    if rows[0] != ["node"] + [f"x{c + 1}" for c in range(dim)] or len(rows) != W.shape[0] + 1:
        return "CSV header or row count wrong"
    R = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    if np.abs(R.T @ R - np.eye(dim)).max() > 1e-8:
        return "CSV columns are not orthonormal"
    if np.abs(L @ R - R * used[None, :]).max() > 1e-6 * scale:
        return "CSV columns are not eigenvectors of the used eigenvalues"
    if not svg_text.startswith("<svg") or svg_text.count("<circle") != W.shape[0]:
        return "SVG malformed"
    return None


def check_balance(report, W, sides):
    """sides: the planted +/-1 bipartition, or None for an unbalanced graph."""
    if "balanced" not in report or "smallest_signed_laplacian_eigenvalue" not in report:
        return "missing fields"
    if report["balanced"] != (sides is not None):
        return f"balanced={report['balanced']} contradicts the generator"
    if sides is not None:
        got = np.asarray(report.get("bipartition", []))
        if not (np.array_equal(got, sides) or np.array_equal(got, -sides)):
            return "bipartition differs from the planted sides up to a flip"
    ref = float(np.linalg.eigh(signed_laplacian(W))[0][0])
    if abs(report["smallest_signed_laplacian_eigenvalue"] - ref) > 1e-8 * max(1.0, np.abs(W).sum()):
        return "smallest eigenvalue differs from numpy.linalg.eigh"
    return None

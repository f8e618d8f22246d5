"""Laplacian construction, quadratic forms, and balance of signed graphs."""

from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import IsolatedVertex, NegativeWeightInUnsignedMode
from .graph import Graph, _connected, _walk, degree_vector

KINDS = ("unnormalized", "sym", "rw", "signed_unnormalized", "signed_sym")


@dataclass(frozen=True)
class LaplacianMatrix:
    kind: str
    M: np.ndarray
    degree: np.ndarray  # the degree vector used (plain or absolute-value)


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    bipartition: np.ndarray | None  # +/-1 per node, present iff balanced


def laplacian(g, kind="unnormalized"):
    if kind not in KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    signed = kind.startswith("signed")
    d = degree_vector(g, signed=signed)
    L = np.diag(d) - g.W
    if kind in ("unnormalized", "signed_unnormalized"):
        return LaplacianMatrix(kind=kind, M=L, degree=d)
    # the normalised kinds divide by d: a node whose degree is <= 0 is
    # isolated, or has edges whose negative weights cancel its positive ones
    bad = np.flatnonzero(d <= 0)
    if bad.size:
        i = int(bad[0])
        if not g.W[i].any():
            raise IsolatedVertex(i + 1)
        raise NegativeWeightInUnsignedMode(
            f"the {kind} Laplacian needs a positive plain degree at every node, and node {i + 1} "
            f"has edges but plain degree {float(d[i])}: use signed_sym for signed graphs")
    if kind in ("sym", "signed_sym"):
        dm = 1.0 / np.sqrt(d)
        M = dm[:, None] * L * dm[None, :]
        return LaplacianMatrix(kind=kind, M=M, degree=d)
    # rw
    M = L / d[:, None]
    return LaplacianMatrix(kind=kind, M=M, degree=d)


def quadratic_form(g, x, signed=False):
    """x^T L x (signed: x^T Lbar x) as sum_i d_i x_i^2 - x^T W x, without
    building the Laplacian: a float for a vector, one value per column for
    an m x k matrix. x must be finite (eigen._finite)."""
    x = eigen._finite(x)
    if x.ndim not in (1, 2) or x.shape[0] != g.m:
        raise ValueError("x must be a vector or matrix with one row per node")
    q = degree_vector(g, signed) @ (x * x) - (x * (g.W @ x)).sum(axis=0)
    return float(q) if x.ndim == 1 else q


def kernel_dimension(lap):
    """Number of eigenvalues with |lambda| at most 1e-9 max |lambda|: zero
    to rounding, on either side, so the negative eigenvalues of a signed
    graph's unsigned Laplacian do not count. The rw Laplacian D^-1 L is
    counted on D^1/2 (D^-1 L) D^-1/2, the symmetric matrix it is similar
    to. Counted by eigen._kernel_dimension, without eigenvectors."""
    M = lap.M
    if lap.kind == "rw":
        root = np.sqrt(lap.degree)
        M = root[:, None] * M / root[None, :]
    return eigen._kernel_dimension(M)


def _first_broken_edge(g, s):
    """The first edge (i, j), 0-based in row-major order, with
    s_i s_j != sgn(w_ij), or None if the signs s agree with every edge.
    W is symmetric, so the first one found has i < j."""
    broken = np.flatnonzero((g.W != 0) & (np.outer(s, s) != np.sign(g.W)))
    return divmod(int(broken[0]), g.m) if broken.size else None


def is_balanced(g):
    """BFS sign propagation over a connected signed graph.

    Assign +1 to the root and s_j = sgn(w_ij) * s_i across tree edges;
    the graph is balanced iff every remaining edge agrees. All-positive
    graphs come out balanced with everyone on the +1 side.
    """
    _, c, s = _walk(g)
    _connected(c)
    if _first_broken_edge(g, s) is not None:
        return BalanceReport(balanced=False, bipartition=None)
    return BalanceReport(balanced=True, bipartition=s)


def unsign_conjugation(g, bipartition):
    """For a balanced graph with bipartition x, return the all-positive graph
    with weights |w_ij| and X = diag(x), so that Lbar = X L|W| X."""
    x = np.asarray(bipartition, dtype=int)
    if x.shape != (g.m,) or not np.all(np.abs(x) == 1):
        raise ValueError("bipartition must be a +/-1 vector of length m")
    broken = _first_broken_edge(g, x)
    if broken is not None:
        i, j = broken
        raise ValueError(f"bipartition inconsistent with the sign of edge ({i + 1}, {j + 1})")
    return Graph(np.abs(g.W)), np.diag(x.astype(float))

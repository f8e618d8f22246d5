"""Laplacian construction, quadratic forms, and balance of signed graphs."""

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import IsolatedVertex, NotConnected
from .graph import Graph, connected_components, degree_vector

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
    isolated = np.flatnonzero(d <= 0)
    if isolated.size:
        raise IsolatedVertex(int(isolated[0]) + 1)
    if kind in ("sym", "signed_sym"):
        dm = 1.0 / np.sqrt(d)
        M = dm[:, None] * L * dm[None, :]
        return LaplacianMatrix(kind=kind, M=M, degree=d)
    # rw
    M = L / d[:, None]
    return LaplacianMatrix(kind=kind, M=M, degree=d)


def quadratic_form(g, x, signed=False):
    """Edge-sum form of x^T L x (signed: x^T Lbar x), computed without
    building the Laplacian."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.m,):
        raise ValueError("vector length must equal the node count")
    W = g.W
    if signed:
        diff = x[:, None] - np.sign(W) * x[None, :]
        return float(0.5 * (np.abs(W) * diff * diff).sum())
    diff = x[:, None] - x[None, :]
    return float(0.5 * (W * diff * diff).sum())


def kernel_dimension(lap, tol=1e-9):
    """Number of eigenvalues below tol relative to the largest eigenvalue."""
    eig = eigen.sym_eigen(lap.M)
    top = max(abs(eig.values[-1]), 1.0e-300)
    return int(np.count_nonzero(eig.values < tol * top))


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
    _, c = connected_components(g)
    if c != 1:
        raise NotConnected(f"graph has {c} components")
    s = np.zeros(g.m, dtype=int)
    s[0] = 1
    q = deque([0])
    while q:
        i = q.popleft()
        for j in np.nonzero(g.W[i])[0]:
            if s[j] == 0:
                s[j] = s[i] * (1 if g.W[i, j] > 0 else -1)
                q.append(int(j))
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

"""Graph representation and combinatorial quantities.

Node indices are 1-based in every public interface and 0-based internally;
the conversion happens at the boundary of each function.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeWeightInUnsignedMode, NonFiniteWeight


class Graph:
    """An undirected weighted graph held as a dense symmetric weight matrix.

    Weights may be negative (signed graph) but must be finite. The matrix
    must be exactly symmetric with a zero diagonal; use symmetrize() first
    if your data is noisy.
    """

    __slots__ = ("m", "W")

    def __init__(self, W):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight matrix must be square")
        if W.shape[0] < 1:
            raise ValueError("graph needs at least one node")
        if not np.all(np.isfinite(W)):
            raise NonFiniteWeight("weight matrix has a nan or infinite entry")
        if not np.array_equal(W, W.T):
            raise ValueError("weight matrix must be symmetric (see symmetrize)")
        if np.any(np.diag(W) != 0):
            raise ValueError("weight matrix must have a zero diagonal (no self-loops)")
        self.m = W.shape[0]
        self.W = W.copy()
        self.W.setflags(write=False)

    @property
    def has_negative_edges(self):
        return bool(np.any(self.W < 0))

    def edge_count(self):
        return int(np.count_nonzero(np.triu(self.W)))


def symmetrize(W):
    """Average a nearly-symmetric matrix into an exactly symmetric one."""
    W = np.asarray(W, dtype=float)
    return 0.5 * (W + W.T)


@dataclass(frozen=True)
class NodeSubset:
    """A set of 1-based node indices."""

    members: frozenset = field(default_factory=frozenset)

    def __init__(self, members=(), m=None):
        mem = frozenset(int(i) for i in members)
        for i in mem:
            if i < 1 or (m is not None and i > m):
                raise ValueError(f"node index {i} out of range")
        object.__setattr__(self, "members", mem)

    def indices0(self):
        """Members as a sorted 0-based numpy index array."""
        return np.array(sorted(i - 1 for i in self.members), dtype=int)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))


def _as_subset(g, A):
    if isinstance(A, NodeSubset):
        for i in A.members:
            if i > g.m:
                raise ValueError(f"node index {i} out of range")
        return A
    return NodeSubset(A, m=g.m)


@dataclass(frozen=True)
class OrientedGraph:
    base: Graph
    edges: tuple  # (source, target, weight) triples, 1-based, one per edge


@dataclass(frozen=True)
class IncidenceMatrix:
    B: np.ndarray  # m x n, n = number of edges


def degree_vector(g, signed=False):
    """Row sums of W (unsigned) or of |W| (signed)."""
    if signed:
        return np.abs(g.W).sum(axis=1)
    return g.W.sum(axis=1)


def volume(g, A, signed=False):
    """Sum of (signed) degrees over the subset A."""
    A = _as_subset(g, A)
    if len(A) == 0:
        return 0.0
    d = degree_vector(g, signed=signed)
    return float(d[A.indices0()].sum())


def links(g, A, B, sign_filter="all"):
    """Total weight mass between subsets A and B (which may overlap).

    sign_filter 'positive_only' keeps w_ij > 0 terms, 'negative_only' sums
    -w_ij over w_ij < 0 terms (a nonnegative quantity), 'all' sums w_ij.
    """
    A = _as_subset(g, A)
    B = _as_subset(g, B)
    if len(A) == 0 or len(B) == 0:
        return 0.0
    block = g.W[np.ix_(A.indices0(), B.indices0())]
    if sign_filter == "all":
        return float(block.sum())
    if sign_filter == "positive_only":
        return float(block[block > 0].sum())
    if sign_filter == "negative_only":
        return float(-block[block < 0].sum())
    raise ValueError(f"unknown sign_filter {sign_filter!r}")


def cut(g, A):
    """Total absolute weight of edges leaving A (coincides with links(A, A-bar)
    on graphs without negative weights)."""
    A = _as_subset(g, A)
    idx = A.indices0()
    comp = np.setdiff1d(np.arange(g.m), idx)
    if idx.size == 0 or comp.size == 0:
        return 0.0
    return float(np.abs(g.W[np.ix_(idx, comp)]).sum())


def _walk(g):
    """Breadth-first walk over the edges, one frontier step per level.

    Returns the component labels in first-visit order (1..c), the count c
    and signs s: +1 at each component's lowest node, then s_j = sgn(w_ij) s_i
    from the lowest-index frontier node i next to j. On a balanced component
    every spanning tree gives the same s, so s is its bipartition.
    """
    adj = g.W != 0
    labels = np.zeros(g.m, dtype=int)
    s = np.zeros(g.m, dtype=int)
    c = 0
    while not labels.all():
        start = int(np.argmin(labels))
        c += 1
        labels[start] = c
        s[start] = 1
        front = np.array([start])
        while front.size:
            reach = adj[front]
            new = np.flatnonzero(reach.any(axis=0) & (labels == 0))
            parent = front[np.argmax(reach[:, new], axis=0)]
            labels[new] = c
            s[new] = np.where(g.W[parent, new] > 0, s[parent], -s[parent])
            front = new
    return labels, c, s


def connected_components(g):
    """Component labels in first-visit order (1..c) and the count c."""
    labels, c, _ = _walk(g)
    return labels, c


def orient(g):
    """Canonical orientation: every edge {i, j} with i < j becomes (i, j),
    listed in lexicographic order."""
    # row-major order of the upper triangle is the lexicographic order
    rows, cols = np.nonzero(np.triu(g.W, 1))
    edges = zip((rows + 1).tolist(), (cols + 1).tolist(), g.W[rows, cols].tolist())
    return OrientedGraph(base=g, edges=tuple(edges))


def incidence_matrix(og, signed=False):
    """Node-by-edge matrix with +/- sqrt(w) entries; the signed variant puts
    +sqrt(-w) in both endpoint rows of a negative edge."""
    m = og.base.m
    n = len(og.edges)
    B = np.zeros((m, n))
    for col, (i, j, w) in enumerate(og.edges):
        if w > 0:
            r = np.sqrt(w)
            B[i - 1, col] = r
            B[j - 1, col] = -r
        else:
            if not signed:
                raise NegativeWeightInUnsignedMode(
                    f"edge ({i}, {j}) has negative weight {w}"
                )
            r = np.sqrt(-w)
            B[i - 1, col] = r
            B[j - 1, col] = r
    return IncidenceMatrix(B=B)


def adjacency_matrix(g):
    """0/1 matrix with a_ij = 1 iff w_ij != 0."""
    return (g.W != 0).astype(int)

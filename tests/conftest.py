"""Shared fixtures: reference matrices and random graph generators."""

from collections import deque

import numpy as np
import pytest

from speclap import Graph, NodeSubset, cut, links, volume
from speclap.eigen import sym_eigen
from speclap.errors import ZeroVolume

# 5-node example graph: adjacency and unnormalized Laplacian.
A5 = np.array([
    [0, 1, 1, 0, 0],
    [1, 0, 1, 1, 1],
    [1, 1, 0, 1, 0],
    [0, 1, 1, 0, 1],
    [0, 1, 0, 1, 0],
], dtype=float)

L5 = np.array([
    [2, -1, -1, 0, 0],
    [-1, 4, -1, -1, -1],
    [-1, -1, 3, -1, 0],
    [0, -1, -1, 3, -1],
    [0, -1, 0, -1, 2],
], dtype=float)

# 4-node weighted example and the incidence matrix of its canonical
# orientation (edge (i, j) oriented i -> j for i < j, lexicographic order).
W4 = np.array([
    [0, 3, 6, 3],
    [3, 0, 0, 3],
    [6, 0, 0, 3],
    [3, 3, 3, 0],
], dtype=float)

B4 = np.array([
    [1.7321, 2.4495, 1.7321, 0, 0],
    [-1.7321, 0, 0, 1.7321, 0],
    [0, -2.4495, 0, 0, 1.7321],
    [0, 0, -1.7321, -1.7321, -1.7321],
])

# 9-node unit-weight clustering benchmark graph.
W1_EDGES = [(1, 2), (1, 4), (2, 5), (3, 6), (4, 5), (5, 9), (6, 9), (7, 8), (8, 9)]

# Signed Laplacian of the balanced 9-node signed graph and its spectrum.
L1BAR = np.array([
    [2, -1, 0, -1, 0, 0, 0, 0, 0],
    [-1, 5, 1, -1, 1, 0, 0, -1, 0],
    [0, 1, 3, 0, -1, -1, 0, 0, 0],
    [-1, -1, 0, 5, 1, 0, -1, -1, 0],
    [0, 1, -1, 1, 6, -1, 0, 1, -1],
    [0, 0, -1, 0, -1, 4, 0, 1, -1],
    [0, 0, 0, -1, 0, 0, 2, -1, 0],
    [0, -1, 0, -1, 1, 1, -1, 6, 1],
    [0, 0, 0, 0, -1, -1, 0, 1, 3],
], dtype=float)

L1BAR_EIGENVALUES = np.array(
    [0.0, 1.4790, 1.7513, 2.7883, 4.3570, 4.8815, 6.2158, 7.2159, 7.3112])

# Signed Laplacian of the unbalanced variant (two edge signs differ).
L2BAR = np.array([
    [2, -1, 0, -1, 0, 0, 0, 0, 0],
    [-1, 5, 1, 1, -1, 0, 0, -1, 0],
    [0, 1, 3, 0, -1, -1, 0, 0, 0],
    [-1, 1, 0, 5, 1, 0, -1, -1, 0],
    [0, -1, -1, 1, 6, -1, 0, 1, -1],
    [0, 0, -1, 0, -1, 4, 0, 1, -1],
    [0, 0, 0, -1, 0, 0, 2, -1, 0],
    [0, -1, 0, -1, 1, 1, -1, 6, 1],
    [0, 0, 0, 0, -1, -1, 0, 1, 3],
], dtype=float)

L2BAR_EIGENVALUES = np.array(
    [0.5175, 1.5016, 1.7029, 2.7058, 3.7284, 4.9604, 5.6026, 7.0888, 8.1921])

G1_BIPARTITION = ({1, 2, 4, 7, 8}, {3, 5, 6, 9})


def signed_weights_from_laplacian(Lbar):
    """Recover the signed weight matrix: w_ij = -Lbar_ij off the diagonal."""
    W = -Lbar.copy()
    np.fill_diagonal(W, 0.0)
    return W


def w1_graph():
    W = np.zeros((9, 9))
    for i, j in W1_EDGES:
        W[i - 1, j - 1] = W[j - 1, i - 1] = 1.0
    return Graph(W)


def g1_signed():
    return Graph(signed_weights_from_laplacian(L1BAR))


def g2_signed():
    return Graph(signed_weights_from_laplacian(L2BAR))


def ring(n, weight=1.0):
    W = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        W[i, j] = W[j, i] = weight
    return Graph(W)


def path(n, weight=1.0):
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = W[i + 1, i] = weight
    return Graph(W)


def complete(n, weight=1.0):
    W = np.full((n, n), weight)
    np.fill_diagonal(W, 0.0)
    return Graph(W)


def random_connected(rng, n, signed=False, extra_edge_prob=0.3):
    """Random connected graph: spanning tree plus random extra edges."""
    W = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i = order[k]
        j = order[rng.integers(0, k)]
        W[i, j] = W[j, i] = rng.uniform(0.2, 2.0)
    for i in range(n):
        for j in range(i + 1, n):
            if W[i, j] == 0 and rng.random() < extra_edge_prob:
                W[i, j] = W[j, i] = rng.uniform(0.2, 2.0)
    if signed:
        for i in range(n):
            for j in range(i + 1, n):
                if W[i, j] != 0 and rng.random() < 0.4:
                    W[i, j] = W[j, i] = -W[i, j]
    return Graph(W)


def random_orthonormal(rng, m, n):
    Q, _ = np.linalg.qr(rng.standard_normal((m, n)))
    return Q[:, :n]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260824)


def one_rotation_at_a_time(A, V, tol, max_sweeps, sweep_pairs):
    """Reference Jacobi eigensolver: the rotations of a sweep applied one at
    a time, in the order sweep_pairs lists them, with the kernel's angle
    formula and skip threshold. Updates A and V in place; returns the sweep
    count or -1."""
    n = A.shape[0]
    thresh = tol * np.sqrt((A * A).sum())
    for sweep in range(max_sweeps):
        if np.abs(A - np.diag(np.diag(A))).max() <= thresh:
            return sweep
        for p, q in sweep_pairs:
            apq = A[p, q]
            if abs(apq) <= thresh * 1e-4:
                continue
            theta = (A[q, q] - A[p, p]) / (2.0 * apq)
            if theta >= 0.0:
                t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
            else:
                t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            G = np.array([[c, s], [-s, c]])
            A[:, [p, q]] = A[:, [p, q]] @ G
            V[:, [p, q]] = V[:, [p, q]] @ G
            A[[p, q], :] = G.T @ A[[p, q], :]
    return -1


def row_cyclic_jacobi(A, V, tol, max_sweeps):
    """The classic row-cyclic order (0, 1), (0, 2), ..., (n-2, n-1): a
    drop-in for _kernels.jacobi_eigen that rotates in another order."""
    n = A.shape[0]
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    return one_rotation_at_a_time(A, V, tol, max_sweeps, pairs)


def jacobi_smallest_k(S, k):
    """Reference smallest_k: the full round-robin Jacobi decomposition of
    sym_eigen, sliced to the k smallest eigenpairs."""
    eig = sym_eigen(S)
    return eig.values[:k].copy(), eig.vectors[:, :k].copy()


def scalar_jacobi_svd(A, V, tol, max_sweeps):
    """Reference one-sided Jacobi SVD: the cyclic (p, q) order, angle formula
    and skip rule of _kernels.jacobi_svd, with every dot product and column
    update a scalar loop over the rows. Updates A and V in place; returns
    the sweep count or -1."""
    m, n = A.shape
    norm = sum(A[i, j] * A[i, j] for i in range(m) for j in range(n))
    if norm == 0.0 or n == 1:
        return 0
    thresh = tol * tol * norm * norm
    for sweep in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                alpha = sum(A[k, p] * A[k, p] for k in range(m))
                beta = sum(A[k, q] * A[k, q] for k in range(m))
                gamma = sum(A[k, p] * A[k, q] for k in range(m))
                if gamma * gamma <= thresh * 1e-12 or gamma * gamma <= tol * tol * alpha * beta:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = (1.0 if zeta >= 0.0 else -1.0) / (abs(zeta) + np.sqrt(zeta * zeta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                for X in (A, V):
                    for k in range(X.shape[0]):
                        xp, xq = X[k, p], X[k, q]
                        X[k, p] = c * xp - s * xq
                        X[k, q] = s * xp + c * xq
        if not rotated:
            return sweep
    return -1


def random_sparse(rng, n, p, signs="positive"):
    """Random graph with edge probability p, so it may be disconnected and
    have isolated nodes. signs: 'positive', 'balanced' (a positive graph
    conjugated by random +/-1 node signs) or 'mixed' (each edge negative
    with probability 0.4)."""
    W = np.triu(rng.uniform(0.2, 2.0, (n, n)) * (rng.random((n, n)) < p), 1)
    W = W + W.T
    if signs == "balanced":
        x = rng.choice([-1.0, 1.0], size=n)
        W *= np.outer(x, x)
    elif signs == "mixed":
        flip = np.triu(rng.random((n, n)) < 0.4, 1)
        W *= np.where(flip | flip.T, -1.0, 1.0)
    return Graph(W)


def reference_components(g):
    """Reference walk: depth-first with a stack, one node at a time.
    Component labels in first-visit order (1..c) and the count c."""
    labels = np.zeros(g.m, dtype=int)
    c = 0
    for start in range(g.m):
        if labels[start]:
            continue
        c += 1
        stack = [start]
        labels[start] = c
        while stack:
            i = stack.pop()
            for j in np.nonzero(g.W[i])[0]:
                if not labels[j]:
                    labels[j] = c
                    stack.append(int(j))
    return labels, c


def reference_balance(g):
    """Reference balance test for a connected graph: breadth-first sign
    propagation from node 1 with a deque, then every edge checked one at a
    time. Returns the bipartition, or None when the graph is unbalanced."""
    s = np.zeros(g.m, dtype=int)
    s[0] = 1
    q = deque([0])
    while q:
        i = q.popleft()
        for j in np.nonzero(g.W[i])[0]:
            if s[j] == 0:
                s[j] = s[i] * (1 if g.W[i, j] > 0 else -1)
                q.append(int(j))
    for i, j in zip(*np.nonzero(g.W)):
        if s[i] * s[j] != np.sign(g.W[i, j]):
            return None
    return s


def reference_objective(g, partition, mode="ncut"):
    """Reference cut objective of a well-formed partition, one block at a
    time from cut, links and volume."""
    signed, normalized = mode.startswith("signed"), mode.endswith("ncut")
    blocks = [NodeSubset(p, m=g.m) for p in partition]
    total = 0.0
    for A in blocks:
        num = cut(g, A)
        if signed:
            num += 2.0 * links(g, A, A, "negative_only")
        if normalized:
            denom = volume(g, A, signed=signed)
            if denom <= 0:
                raise ZeroVolume(f"block {sorted(A.members)} has zero volume")
        else:
            denom = float(len(A))
        total += num / denom
    return total


def edge_sum_form(g, x, signed=False):
    """Reference x^T L x (signed: x^T Lbar x) of a vector x as the edge sum
    1/2 sum_ij |w_ij| (x_i - sgn(w_ij) x_j)^2."""
    x = np.asarray(x, dtype=float)
    if x.shape != (g.m,):
        raise ValueError("vector length must equal the node count")
    W = g.W
    if signed:
        diff = x[:, None] - np.sign(W) * x[None, :]
        return float(0.5 * (np.abs(W) * diff * diff).sum())
    diff = x[:, None] - x[None, :]
    return float(0.5 * (W * diff * diff).sum())

"""Shared fixtures: reference matrices and random graph generators."""

import math
from collections import deque

import numpy as np
import pytest

from speclap import Graph, NodeSubset, _kernels, cut, eigen, links, volume
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


@pytest.fixture
def rng():
    """A fresh generator per test, so no test's data depends on which tests
    ran before it."""
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


def jacobi_sym_eigen(S, rotate=_kernels.jacobi_eigen):
    """Reference full eigendecomposition, independent of the tridiagonal
    path: Jacobi rotations (round-robin _kernels.jacobi_eigen, or a drop-in
    such as row_cyclic_jacobi), then the library's tie groups, canonical
    basis and sign rule. This was sym_eigen before it became smallest_k(S, n)."""
    A, scale = eigen._symmetric_input(S)
    V = np.eye(A.shape[0])
    assert rotate(A, V, eigen.DEFAULT_TOL, eigen.MAX_SWEEPS) >= 0, "reference Jacobi did not converge"
    values = np.diag(A).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = eigen._canonicalise(V[:, order], eigen._tie_groups(values, eigen.DEFAULT_TOL * scale))
    return eigen.SymmetricEigen(values=values, vectors=vectors)


def jacobi_smallest_k(S, k, rotate=_kernels.jacobi_eigen):
    """Reference smallest_k: jacobi_sym_eigen sliced to the k smallest
    eigenpairs."""
    eig = jacobi_sym_eigen(S, rotate)
    return eig.values[:k].copy(), eig.vectors[:, :k].copy()


def jacobi_gram_eigen(Z, rotate=_kernels.jacobi_eigen):
    """Reference eigen._gram_eigen: jacobi_sym_eigen on the formed Z^T Z,
    the R1 solve before it came from the SVD of Z."""
    return jacobi_sym_eigen(Z.T @ Z, rotate)


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



def reference_tridiagonalize(A):
    """Reference Householder tridiagonalisation: _kernels.tridiagonalize
    with each rank-2 update's two factors built by np.stack. Same (d, e, V,
    tau) contract, in place on A."""
    n = A.shape[0]
    negligible = np.finfo(float).eps * np.linalg.norm(A)
    d = np.empty(n)
    e = np.zeros(max(n - 1, 0))
    V = np.zeros((max(n - 2, 0), n))
    tau = np.zeros(max(n - 2, 0))
    work = np.empty(max(n - 1, 0) ** 2)  # the rank-2 updates, not one n^2 temporary each
    for j in range(n - 2):
        d[j] = A[j, j]
        x = A[j, j + 1 :]  # row j is column j: A stays symmetric
        alpha = float(x[0])
        xnorm = math.sqrt(float(x[1:] @ x[1:]))
        if xnorm <= negligible:
            e[j] = alpha
            continue
        beta = -math.copysign(math.hypot(alpha, xnorm), alpha)
        t = (beta - alpha) / beta
        v = x / (alpha - beta)
        v[0] = 1.0
        B = A[j + 1 :, j + 1 :]
        p = t * (B @ v)
        w = p - (0.5 * t * float(p @ v)) * v
        m = n - j - 1
        B -= np.matmul(np.stack((v, w), axis=1), np.stack((w, v)), out=work[: m * m].reshape(m, m))
        e[j], tau[j] = beta, t
        V[j, j + 1 :] = v
    if n >= 2:
        d[n - 2], e[n - 2] = A[n - 2, n - 2], A[n - 2, n - 1]
    if n >= 1:
        d[n - 1] = A[n - 1, n - 1]
    return d, e, V, tau


def reference_sturm_counts(d, e2, x, pivmin):
    """Reference Sturm counts: _kernels.sturm_counts indexing q row by row
    and allocating each quotient."""
    q = d[:, None] - x
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(1, len(d)):
            np.subtract(q[i], e2[i - 1] / q[i - 1], out=q[i])
    if not np.isnan(q[-1]).any():
        return np.signbit(q).sum(axis=0)
    q = d[:, None] - x
    for i in range(len(d)):
        if i:
            q[i] -= e2[i - 1] / q[i - 1]
        q[i][np.abs(q[i]) < pivmin] = -pivmin
    return np.signbit(q).sum(axis=0)


def _reference_factor_shifted(d, e, lam, pivot_floor):
    """dlagtf for every shift at once: one numpy column per shift."""
    n, m = len(d), len(lam)
    a = d[:, None] - lam
    b = np.repeat(e[:, None], m, axis=1)
    c = np.zeros((max(n - 2, 0), m))
    mult = np.empty((max(n - 1, 0), m))
    swap = np.empty((max(n - 1, 0), m), dtype=bool)
    for k in range(n - 1):
        # pivot between row k (a_k, b_k, 0) and row k + 1 (e_k, a_k+1, e_k+1)
        ak, bk, ak1 = a[k], b[k], a[k + 1]
        s = abs(e[k]) > np.abs(ak)
        piv = np.where(s, e[k], ak)
        mk = np.where(s, ak, e[k]) / np.where(piv == 0.0, 1.0, piv)
        bk_new = np.where(s, ak1, bk)
        a[k + 1] = np.where(s, bk, ak1) - mk * bk_new
        a[k], b[k] = piv, bk_new
        if k < n - 2:
            c[k] = np.where(s, e[k + 1], 0.0)
            b[k + 1] = np.where(s, -mk * e[k + 1], e[k + 1])
        mult[k], swap[k] = mk, s
    small = np.abs(a) < pivot_floor
    a[small] = np.where(a[small] < 0.0, -pivot_floor, pivot_floor)
    return a, b, c, mult, swap


def _reference_solve_shifted(factors, y):
    """dlagts for every column of y at once, in place on y."""
    a, b, c, mult, swap = factors
    n = len(a)
    for k in range(n - 1):
        s, yk, yk1 = swap[k], y[k], y[k + 1]
        top = np.where(s, yk1, yk)
        y[k + 1] = np.where(s, yk, yk1) - mult[k] * top
        y[k] = top
    y[n - 1] /= a[n - 1]
    if n >= 2:
        y[n - 2] = (y[n - 2] - b[n - 2] * y[n - 1]) / a[n - 2]
    for k in range(n - 3, -1, -1):
        y[k] = (y[k] - b[k] * y[k + 1] - c[k] * y[k + 2]) / a[k]
    return y


def reference_tridiagonal_eigenvectors(d, e, lam):
    """Reference inverse iteration: _kernels.tridiagonal_eigenvectors with
    the factorisation and solves vectorised over all shifts at once, one
    numpy call per row and step. Same start vectors, iteration counts,
    clusters and pivot floor."""
    n, m = len(d), len(lam)
    eps = np.finfo(float).eps
    onenrm = float((np.abs(d) + np.r_[0.0, np.abs(e)] + np.r_[np.abs(e), 0.0]).max())
    factors = _reference_factor_shifted(d, e, lam, eps * onenrm)
    rhs_scale = n * onenrm * np.maximum(eps, np.abs(factors[0][n - 1]))
    breaks = np.flatnonzero(np.diff(lam) > 1e-3 * onenrm) + 1
    clusters = [(s, t) for s, t in zip(np.r_[0, breaks], np.r_[breaks, m]) if t - s > 1]
    X = _kernels._start_vectors(n, m)
    passed = np.zeros(m, dtype=np.intp)
    for _ in range(_kernels.INVERSE_ITERATIONS):
        X *= rhs_scale / np.abs(X).max(axis=0)
        _reference_solve_shifted(factors, X)
        for s, t in clusters:
            for i in range(s + 1, t):
                B = X[:, s:i]
                for _ in range(2):
                    X[:, i] -= B @ ((B.T @ X[:, i]) / (B * B).sum(axis=0))
        passed += np.abs(X).max(axis=0) >= math.sqrt(0.1 / n)
        if (passed > _kernels.EXTRA_ITERATIONS).all():
            break
    if not passed.all():
        return None
    return X / np.sqrt((X * X).sum(axis=0))

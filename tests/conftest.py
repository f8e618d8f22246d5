"""Shared fixtures: reference matrices and random graph generators."""

import math
from collections import deque

import numpy as np
import pytest

from speclap import Graph, NodeSubset, _kernels, cut, eigen, kway, links, volume
from speclap.errors import NegativeWeightInUnsignedMode, NoConvergence, ZeroVolume

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
    A, power, scale = eigen._symmetric_input(S)
    V = np.eye(A.shape[0])
    assert rotate(A, V, eigen.DEFAULT_TOL, eigen.MAX_SWEEPS) >= 0, "reference Jacobi did not converge"
    values = np.diag(A).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = eigen._canonicalise(V[:, order], eigen._tie_groups(values, eigen.DEFAULT_TOL * scale))
    return eigen.SymmetricEigen(values=np.ldexp(values, power), vectors=vectors)


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
    and skip rules of _kernels.jacobi_svd, with every dot product and column
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
                if min(alpha, beta) <= _kernels.NEGLIGIBLE * max(alpha, beta):
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



# incidence_matrix as it was before the unsigned refusal moved ahead of its
# loop: one branch per edge sign, the refusal met at the first negative edge.
def reference_incidence_matrix(og, signed=False):
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
    return B


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


def reference_tridiagonal_eigenvalues(d, e, first, stop, guard=False):
    """Reference multisection: _kernels.tridiagonal_eigenvalues' passes with
    each pass's clearances, isolated, guard and live marks, distinct
    intervals and shifts past the range's ends as numpy calls over all
    brackets, and no Newton finish. Returns the brackets (lo, hi) of
    eigenvalues first..stop-1 as the passes leave them, and their isolated
    marks: the kernel's eigenvalue is the bracket's midpoint where it is
    not isolated, and Newton's, inside the bracket, where it is. The counts
    come from _kernels.sturm_counts, looked up at each call."""
    n = len(d)
    eps = np.finfo(float).eps
    e2 = e * e
    pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
    r = np.zeros(n)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    gl, gu = float((d - r).min()), float((d + r).max())
    tnorm = max(abs(gl), abs(gu))
    fudge = 2.1 * (n * eps * tnorm + 2.0 * pivmin)
    width = 4.0 * eps * tnorm + 2.0 * pivmin
    gap = _kernels.CLUSTER_GAP * _kernels._one_norm(d, e)
    j = np.arange(first - 1, stop + 1)
    index = j[:, None]
    lo = np.where(j < n, gl - fudge, np.inf)
    hi = np.where(j >= 0, gu + fudge, -np.inf)
    wlo, whi = lo[1:-1], hi[1:-1]  # the wanted eigenvalues, updated in place
    while True:
        clear = lo[1:] - hi[:-1]
        isolated = (clear[:-1] > gap) & (clear[1:] > gap)
        done = isolated.copy()
        if guard and len(done):
            # the guard needs only its clearance from the eigenvalue below
            isolated[-1], done[-1] = False, clear[-2] > gap
        live = (whi - wlo > width) & ~done
        if not live.any():
            return wlo.copy(), whi.copy(), isolated
        # eigenvalues sharing an interval share its shifts
        first_of = live.copy()
        first_of[1:] &= (wlo[1:] != wlo[:-1]) | (whi[1:] != whi[:-1])
        a, b = wlo[first_of], whi[first_of]
        m = _kernels.MULTISECTION * int(live.sum()) // len(a)
        x = (a[:, None] + (b - a)[:, None] * (np.arange(1, m + 1) / (m + 1))).ravel()
        # one shift 2 gaps past an open end whose clearance is unproven
        if clear[0] <= gap and live[0]:
            x = np.r_[x, wlo[0] - 2.0 * gap]
        if clear[-1] <= gap and live[-1] and not guard:
            x = np.r_[x, whi[-1] + 2.0 * gap]
        below = _kernels.sturm_counts(d, e2, x) <= index  # x <= eigenvalue j
        np.maximum(lo, np.where(below, x, -np.inf).max(axis=1), out=lo)
        np.minimum(hi, np.where(below, np.inf, x).min(axis=1), out=hi)


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
    extra = np.full(m, _kernels.EXTRA_ITERATIONS)
    for s, t in clusters:
        extra[s:t] += 1
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
        if (passed > extra).all():
            break
    if not passed.all():
        return None
    return X / np.sqrt((X * X).sum(axis=0))


# The candidate scoring of kway.cluster as it was before it became one
# stacked pass (kway._score_candidates): one podx / flip_columns / podx per
# candidate, then _first_min. podx, flip_columns and init_rotation_R2 are
# kept here as they were too, so the reference shares no rounding code with
# the stacked pass.
TIE = eigen.TIE_RTOL


def reference_first_min(values, scale):
    values = np.asarray(values, dtype=float)
    return int(np.argmax(values <= values.min() + TIE * scale))


def reference_init_rotation_R2(Z):
    N, K = Z.shape
    available = list(range(1, N))
    cols = [Z[0].copy()]
    c = np.zeros(N)
    for _ in range(1, K):
        c = c + np.abs(Z @ cols[-1])
        pick = available[reference_first_min(c[available], c.max())]
        cols.append(Z[pick].copy())
        available.remove(pick)
    R = np.column_stack(cols)
    norms = np.linalg.norm(R, axis=0)
    norms[norms == 0] = 1.0
    return R / norms


def reference_flip_columns(ZR):
    ZR = np.asarray(ZR, dtype=float)
    signs = np.where(ZR.mean(axis=0) < -TIE * np.abs(ZR).max(axis=0), -1.0, 1.0)
    return ZR * signs[None, :], np.diag(signs)


def reference_podx(Z, Q=None):
    """The indicator of Z Q as a plain array (N x K), and whether any column
    needed repair."""
    Y = Z if Q is None else Z @ Q
    N, K = Y.shape
    top = Y.max(axis=1, keepdims=True)
    tied = Y >= top - TIE * np.abs(Y).max(axis=1, keepdims=True)
    pattern = np.zeros((N, K))
    pattern[np.arange(N), np.argmax(tied, axis=1)] = 1.0
    counts = pattern.sum(axis=0)
    repaired = bool(np.any(counts == 0))
    while np.any(counts == 0):
        k_from = int(np.argmax(counts))  # leftmost column with the most ones
        row = int(np.nonzero(pattern[:, k_from])[0][0])  # smallest such row
        k_to = int(np.nonzero(counts == 0)[0][0])  # leftmost zero column
        pattern[row, k_from] = 0.0
        pattern[row, k_to] = 1.0
        counts[k_from] -= 1
        counts[k_to] += 1
    a = float(np.linalg.norm(Z) / np.sqrt(N))
    return pattern * a, repaired


def reference_score_candidates(Zinit1, Zinit2, R1):
    """(Q0, residuals, repairs): the initial rotation, the residual each of
    the four candidates was scored by, and how many of the eight roundings
    repaired an empty column."""
    K = R1.shape[0]
    candidates, repairs = [], 0
    for Zc, base_R in ((Zinit1, np.eye(K)), (Zinit2, R1)):
        for Rc in (np.eye(K), reference_init_rotation_R2(Zc)):
            ZR = Zc @ Rc
            X_plain, rep_plain = reference_podx(Zc, Rc)
            res_plain = float(np.linalg.norm(X_plain - ZR))
            ZQp, Rp = reference_flip_columns(ZR)
            X_flip, rep_flip = reference_podx(ZQp)
            res_flip = float(np.linalg.norm(X_flip - ZQp))
            repairs += rep_plain + rep_flip
            if res_flip < res_plain * (1.0 - TIE):
                candidates.append((res_flip, base_R @ Rc @ Rp))
            else:
                candidates.append((res_plain, base_R @ Rc))
    residuals = [res for res, _ in candidates]
    _, Q0 = candidates[reference_first_min(residuals, max(residuals))]
    return Q0, residuals, repairs


def reference_cluster(g, K, mode, rescale):
    """(assignment, objective, Q, iterations, residual) of kway.cluster's
    pipeline with R1 from init_rotation_R1 in every mode and both initial
    solutions, Z1 and Z1 R1, rescaled on their own; the alternation as
    cluster runs it."""
    Z1 = kway.solve_relaxed(g, K, mode).Z
    R1 = kway.init_rotation_R1(Z1).R
    Zinit1 = kway.rescale_variant(Z1, rescale)
    Zinit2 = kway.rescale_variant(Z1 @ R1, rescale)
    Q = kway.TransformQ(R=kway._score_candidates([(Zinit1, np.eye(K)), (Zinit2, R1)])[0], Lambda=np.eye(K))
    prev_phi = np.inf
    for it in range(1, kway.MAX_ROUNDS + 1):
        X = kway.podx(Z1, Q)
        Q = kway.podr(X, Z1)
        phi = float(np.linalg.norm(X.X - Z1 @ Q.Q))
        if phi > prev_phi + 1e-9:
            raise NoConvergence(f"alternation round {it} raised phi = ||X - ZQ|| from {prev_phi!r} to {phi!r}")
        if prev_phi - phi < 1e-12:
            break
        prev_phi = phi
    return X.assignment, kway.objective(g, X.blocks(), mode), Q.Q, it, phi

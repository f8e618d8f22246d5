"""Dense symmetric eigendecomposition and SVD built on Jacobi rotations.

Every spectral computation in the library goes through this module; nothing
else calls an external eigensolver.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import jacobi_eigen, jacobi_svd
from .errors import NoConvergence, NotSymmetric, ZeroVector

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100
# relative gap under which two computed quantities count as equal: far above
# the solver's rounding (about 1e-13), far below any real difference
TIE_RTOL = 1e-9


@dataclass(frozen=True)
class SymmetricEigen:
    values: np.ndarray  # ascending
    vectors: np.ndarray  # column k pairs with values[k]


@dataclass(frozen=True)
class SVDResult:
    U: np.ndarray  # m x m orthogonal
    S: np.ndarray  # min(m, n) singular values, descending
    V: np.ndarray  # n x n orthogonal


def _fix_signs(vectors):
    # deterministic orientation: largest-magnitude component of each column
    # positive; components within TIE_RTOL of the largest are tied, and the
    # lowest index among them decides
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mag = np.abs(col)
        i = int(np.argmax(mag >= (1.0 - TIE_RTOL) * mag.max()))
        if col[i] < 0:
            out[:, k] = -col
    return out


def _canonical_basis(V):
    """Orthonormal basis of span(V) that does not depend on the basis V holds.

    Gram-Schmidt over the projections P e_0, P e_1, ... of the unit vectors
    onto the span (P = V V^T), skipping those with less than 1/(2 sqrt(n))
    of their length outside the basis built so far; the rows of V span R^m,
    so m of them always pass. Works on the coordinates (the rows of V) and
    orthogonalises twice, so the basis stays orthonormal to rounding.
    """
    n, m = V.shape
    C = np.empty((m, 0))
    floor = 0.5 / np.sqrt(n)
    for r in V:
        w = r - C @ (C.T @ r)
        w -= C @ (C.T @ w)
        nrm = np.linalg.norm(w)
        if nrm > floor:
            C = np.column_stack((C, w / nrm))
            if C.shape[1] == m:
                break
    return V @ C


def sym_eigen(S, tol=DEFAULT_TOL, max_sweeps=MAX_SWEEPS):
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Eigenvalues that agree to tol * ||S||_F, the solver's own accuracy, are
    one multiple eigenvalue: its eigenvectors are returned in a canonical
    basis (_canonical_basis), so they do not depend on the rotation order.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NotSymmetric("matrix is not square")
    scale = np.linalg.norm(S)
    if np.linalg.norm(S - S.T) > 1e-12 * max(scale, 1.0):
        raise NotSymmetric("matrix is not symmetric")
    n = S.shape[0]
    A = 0.5 * (S + S.T)  # kill roundoff asymmetry before rotating
    V = np.eye(n)
    sweeps = jacobi_eigen(A, V, tol, max_sweeps)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi eigen did not converge in {max_sweeps} sweeps")
    values = np.diag(A).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = V[:, order]
    start = 0
    for k in range(1, n + 1):
        if k == n or values[k] - values[start] > tol * scale:
            if k - start > 1:
                vectors[:, start:k] = _canonical_basis(vectors[:, start:k])
            start = k
    vectors = _fix_signs(vectors)
    return SymmetricEigen(values=values, vectors=vectors)


def _complete_basis(Q):
    # extend the orthonormal columns of Q (m x r) to an m x m orthogonal matrix
    m, r = Q.shape
    if r == m:
        return Q
    out = np.empty((m, m))
    out[:, :r] = Q
    k = r
    for i in range(m):
        if k == m:
            break
        v = np.zeros(m)
        v[i] = 1.0
        for j in range(k):
            v -= (out[:, j] @ v) * out[:, j]
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            out[:, k] = v / nrm
            k += 1
    if k != m:  # pragma: no cover - defensive; cannot happen for orthonormal Q
        raise NoConvergence("failed to complete orthonormal basis")
    return out


def svd(M, tol=DEFAULT_TOL, max_sweeps=MAX_SWEEPS):
    """One-sided Jacobi SVD. Singular values descending, U-sign convention
    matching sym_eigen (largest-magnitude entry of each U column positive)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    m, n = M.shape
    transposed = m < n
    A = (M.T if transposed else M).astype(float).copy()
    rows, cols = A.shape
    V = np.eye(cols)
    sweeps = jacobi_svd(A, V, tol, max_sweeps)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi SVD did not converge in {max_sweeps} sweeps")
    norms = np.sqrt((A * A).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    A = A[:, order]
    V = V[:, order]
    scale = norms[0] if norms.size and norms[0] > 0 else 1.0
    U_cols = []
    rank = 0
    for k in range(cols):
        if norms[k] > 1e-14 * scale:
            U_cols.append(A[:, k] / norms[k])
            rank += 1
        else:
            norms[k] = 0.0
    if U_cols:
        U = _complete_basis(np.column_stack(U_cols))
    else:
        U = np.eye(rows)
    # deterministic signs: largest-magnitude entry of each U column positive;
    # a flip must hit the paired V column too or U diag(S) V^T changes
    for k in range(rows):
        i = int(np.argmax(np.abs(U[:, k])))
        if U[i, k] < 0:
            U[:, k] = -U[:, k]
            if k < rank:
                V[:, k] = -V[:, k]
    for k in range(rank, cols):  # null-space columns of V are free
        i = int(np.argmax(np.abs(V[:, k])))
        if V[i, k] < 0:
            V[:, k] = -V[:, k]
    if transposed:
        U, V = V, U
    return SVDResult(U=U, S=norms[: min(m, n)].copy(), V=V)


def rayleigh(S, x):
    """Rayleigh quotient x^T S x / x^T x."""
    x = np.asarray(x, dtype=float)
    denom = x @ x
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    S = np.asarray(S, dtype=float)
    return float(x @ (S @ x) / denom)


def smallest_k(S, k, tol=DEFAULT_TOL):
    """The k smallest eigenvalues and their eigenvectors."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    eig = sym_eigen(S, tol=tol)
    return eig.values[:k].copy(), eig.vectors[:, :k].copy()

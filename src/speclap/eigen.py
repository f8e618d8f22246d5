"""Dense symmetric eigensolvers and SVD.

`smallest_k`, the solve of every n x n Laplacian, reduces to tridiagonal
form by Householder reflections, finds the k smallest eigenvalues by Sturm
multisection and their vectors by inverse iteration. `sym_eigen`, for full
decompositions (the K x K solve of the rounding, `kernel_dimension`), and
`svd` run Jacobi rotations. Both eigensolvers return multiple eigenvalues'
vectors in one canonical basis and under one sign rule. Every spectral
computation in the library goes through this module; nothing else calls an
external eigensolver.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import (
    back_transform,
    jacobi_eigen,
    jacobi_svd,
    tridiagonal_eigenvalues,
    tridiagonal_eigenvectors,
    tridiagonalize,
)
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


def _valid_tol(tol):
    return 0.0 < tol < 1.0  # a finite tolerance in (0, 1); false for nan


def _check_tol(tol):
    if not _valid_tol(tol):
        raise ValueError(f"tol must be a finite number with 0 < tol < 1, got {tol!r}")


def _check_solver_args(tol, max_sweeps):
    _check_tol(tol)
    if not max_sweeps >= 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps!r}")


def _column_signs(M):
    """+1 or -1 per column of M: the sign of its largest-magnitude entry.

    Entries within TIE_RTOL of the largest are tied, and the lowest index
    among them decides. Multiplying the columns by these signs gives the
    deterministic orientation every decomposition here returns.
    """
    if M.size == 0:
        return np.ones(M.shape[1])
    mag = np.abs(M)
    first = np.argmax(mag >= (1.0 - TIE_RTOL) * mag.max(axis=0), axis=0)
    return np.where(M[first, np.arange(M.shape[1])] < 0, -1.0, 1.0)


def _extend_basis(C, candidates):
    """The orthonormal columns C (d x k) extended to a d x d orthogonal matrix.

    Gram-Schmidt over the candidate vectors in order, each orthogonalised
    twice so the basis stays orthonormal to rounding, skipping those with
    less than 1/(2 sqrt(N)) of their length outside the basis built so far
    (N candidates). The candidates must satisfy sum r r^T = I, as the rows
    of a matrix with orthonormal columns do: then the candidates have total
    squared length d - k >= 1 outside any basis short of d columns, so some
    candidate has length >= 1/sqrt(N) outside it and d columns are reached.
    """
    d, k = C.shape
    out = np.empty((d, d))
    out[:, :k] = C
    floor = 0.5 / np.sqrt(max(len(candidates), 1))
    for r in candidates:
        if k == d:
            break
        B = out[:, :k]
        w = r - B @ (B.T @ r)
        w -= B @ (B.T @ w)
        nrm = np.linalg.norm(w)
        if nrm > floor:
            out[:, k] = w / nrm
            k += 1
    return out


def _canonical_basis(V):
    """Orthonormal basis of span(V) that does not depend on the basis V holds.

    Gram-Schmidt over the projections P e_0, P e_1, ... of the unit vectors
    onto the span (P = V V^T). It works on the coordinates, the rows of V,
    which span R^m.
    """
    return V @ _extend_basis(np.empty((V.shape[1], 0)), V)


def _symmetric_input(S):
    """S as a float array, checked finite, square and symmetric to 1e-12 of
    its norm, then symmetrised exactly; and ||S||_F."""
    S = np.asarray(S, dtype=float)
    if not np.isfinite(S).all():
        raise ValueError("matrix has non-finite entries")
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise NotSymmetric("matrix is not square")
    scale = np.linalg.norm(S)
    if np.linalg.norm(S - S.T) > 1e-12 * max(scale, 1.0):
        raise NotSymmetric("matrix is not symmetric")
    return 0.5 * (S + S.T), scale


def _tie_groups(values, thresh):
    """(start, end) of each run of the ascending values that lie within
    thresh of the run's first value: the multiple eigenvalues."""
    groups, start = [], 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[start] > thresh:
            groups.append((start, k))
            start = k
    return groups


def _canonicalise(vectors, groups):
    """In place: each multiple eigenvalue's eigenvectors in the canonical
    basis (_canonical_basis), then every column oriented by _column_signs."""
    for start, end in groups:
        if end - start > 1:
            vectors[:, start:end] = _canonical_basis(vectors[:, start:end])
    vectors *= _column_signs(vectors)
    return vectors


def sym_eigen(S, tol=DEFAULT_TOL, max_sweeps=MAX_SWEEPS):
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Eigenvalues that agree to tol * ||S||_F, the solver's own accuracy, are
    one multiple eigenvalue: its eigenvectors are returned in a canonical
    basis (_canonical_basis), so they do not depend on the rotation order.
    """
    _check_solver_args(tol, max_sweeps)
    A, scale = _symmetric_input(S)
    V = np.eye(A.shape[0])
    sweeps = jacobi_eigen(A, V, tol, max_sweeps)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi eigen did not converge in {max_sweeps} sweeps")
    values = np.diag(A).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = _canonicalise(V[:, order], _tie_groups(values, tol * scale))
    return SymmetricEigen(values=values, vectors=vectors)


def _jacobi_svd_sorted(M, tol=DEFAULT_TOL, max_sweeps=MAX_SWEEPS):
    """One-sided Jacobi on the columns of M: (A, S, V, rank) with M V = A,
    V orthogonal and the columns of A orthogonal with norms S, sorted by
    descending S. Columns past the rank count as zero: S is 0 there."""
    A = np.array(M, dtype=float)
    V = np.eye(A.shape[1])
    sweeps = jacobi_svd(A, V, tol, max_sweeps)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi SVD did not converge in {max_sweeps} sweeps")
    norms = np.sqrt((A * A).sum(axis=0))
    order = np.argsort(-norms, kind="stable")
    norms = norms[order]
    scale = norms[0] if norms.size and norms[0] > 0 else 1.0
    rank = int(np.count_nonzero(norms > 1e-14 * scale))
    norms[rank:] = 0.0
    return A[:, order], norms, V[:, order], rank


def svd(M, tol=DEFAULT_TOL, max_sweeps=MAX_SWEEPS):
    """Full SVD by one-sided Jacobi: U is m x m, V is n x n, singular values
    descending. The sign rule of sym_eigen (_column_signs) orients every
    column of the taller factor (U if m >= n, else V) and the null-space
    columns of the other; the rest are paired with the taller factor's."""
    _check_solver_args(tol, max_sweeps)
    M = np.asarray(M, dtype=float)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    transposed = M.shape[0] < M.shape[1]
    A, norms, V, rank = _jacobi_svd_sorted(M.T if transposed else M, tol, max_sweeps)
    U = _extend_basis(A[:, :rank] / norms[:rank], np.eye(A.shape[0]))
    # a sign flip of a U column must hit the paired V column too or
    # U diag(S) V^T changes; the null-space columns of V are free
    signs = _column_signs(U)
    U *= signs
    V[:, :rank] *= signs[:rank]
    V[:, rank:] *= _column_signs(V[:, rank:])
    if transposed:
        U, V = V, U
    return SVDResult(U=U, S=norms, V=V)


def rayleigh(S, x):
    """Rayleigh quotient x^T S x / x^T x."""
    x = np.asarray(x, dtype=float)
    denom = x @ x
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    S = np.asarray(S, dtype=float)
    return float(x @ (S @ x) / denom)


def smallest_k(S, k, tol=DEFAULT_TOL):
    """The k smallest eigenvalues and their eigenvectors, without a full
    decomposition (Golub & Van Loan ch. 8; LAPACK dsytrd, dstebz, dstein).

    Householder reduction to a tridiagonal T, Sturm-count multisection for
    the eigenvalues, inverse iteration on T for their vectors, and the
    stored reflectors to carry those back. Multiple eigenvalues and signs
    follow sym_eigen's rules (tie groups at tol * ||S||_F, canonical basis,
    sign rule); a tie group that k cuts is computed whole before the cut,
    so the result is sym_eigen's first k columns to rounding.
    """
    _check_tol(tol)
    A, scale = _symmetric_input(S)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if not A.any():
        return np.zeros(k), np.eye(n)[:, :k]
    # the kernels work at unit scale: dividing by a power of two (exact)
    # brings the largest entry into [0.5, 1), where no floor or scale
    # they derive from ||T|| falls into subnormal or overflowing range
    unit = np.ldexp(1.0, np.frexp(np.abs(A).max())[1])
    d, e, V, tau = tridiagonalize(A / unit)
    values = unit * tridiagonal_eigenvalues(d, e, 0, min(k + 1, n))
    while True:
        groups = _tie_groups(values, tol * scale)
        end = next(t for _, t in groups if t >= k)  # of the group holding k - 1
        if end < len(values) or len(values) == n:
            break
        more = unit * tridiagonal_eigenvalues(d, e, len(values), min(2 * len(values), n))
        values = np.concatenate((values, more))
    values = values[:end]
    Z = tridiagonal_eigenvectors(d, e, values / unit)
    if Z is None:
        raise NoConvergence("inverse iteration did not converge")
    vectors = _canonicalise(back_transform(V, tau, Z), [g for g in groups if g[1] <= end])
    return values[:k].copy(), vectors[:, :k].copy()

"""Dense symmetric eigensolver and SVD.

Every symmetric eigensolve takes one path, `smallest_k`: a Lanczos
reduction to tridiagonal form, run to checkpoints. At each, Sturm
multisection isolates the k smallest eigenvalues of the tridiagonal
matrix and Newton finishes them, the (k + 1)-th is resolved only as far
as showing that it does not tie with the k-th, inverse iteration gives
the vectors of the k, and the reduction stops once a Cholesky inertia
test certifies those k Ritz pairs, or once it is whole.
`sym_eigen`, the full decomposition, is `smallest_k` with k = n, which
always runs the whole reduction. `kernel_dimension` needs no eigenvector:
`_kernel_dimension` counts eigenvalues on the whole tridiagonal form by
Sturm counts and Newton alone. Every SVD takes one engine,
`_jacobi_svd_sorted`: one Householder QR reduces a tall matrix to its
square triangular factor, and one-sided Jacobi rotations on Python floats
make the columns orthogonal (Drmac & Veselic 2008). `svd` is the full
decomposition, and the K x K eigenproblem of the rounding, Z^T Z, is solved
as the SVD of Z (`_gram_eigen`). Multiple eigenvalues' vectors come back in
one canonical basis and under one sign rule. Every spectral computation in
the library goes through this module, and none calls an external
eigensolver (numpy.linalg.qr and numpy.linalg.cholesky are factorisations,
not eigensolvers).

One scale rule, as in LAPACK's dsyev and dgesvd: every decomposition (and
`rayleigh`) divides its input once, where it enters, by the power of two
that brings its largest entry into [0.5, 1) (`_unit_scale`), works at that
scale (norms, tolerances, tie groups, rank tests) and multiplies the values
back by the same power. A power of two commutes with every rounding in the
normal range, so the results at 2^p S are those at S, values times 2^p,
to the bit, and no norm or tolerance overflows or underflows whatever the
scale of the input.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    certify,
    jacobi_svd,
    lanczos,
    sturm_counts,
    tridiagonal_eigenvalues,
    tridiagonal_eigenvectors,
)
from .errors import NoConvergence, NotSymmetric, ZeroVector

# the one tolerance and sweep limit: the stopping rule of the Jacobi SVD,
# and eigenvalues within DEFAULT_TOL * ||S||_F of each other count as one
# multiple eigenvalue in every eigensolve
DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100
# relative gap under which two computed quantities count as equal: far above
# the solver's rounding (about 1e-13), far below any real difference
TIE_RTOL = 1e-9


def _first_max(M, scale, axis=-1):
    """Index along axis of the first entry of M within TIE_RTOL * scale of
    the largest: the one tie rule of the library, under which the lowest
    index wins among entries equal to rounding. scale broadcasts against M
    with axis kept; -values gives the first minimum, and an entry of -inf
    never wins unless all are."""
    return np.argmax(M >= M.max(axis=axis, keepdims=True) - TIE_RTOL * scale, axis=axis)


@dataclass(frozen=True)
class SymmetricEigen:
    values: np.ndarray  # ascending
    vectors: np.ndarray  # column k pairs with values[k]


@dataclass(frozen=True)
class SVDResult:
    U: np.ndarray  # m x m orthogonal
    S: np.ndarray  # min(m, n) singular values, descending
    V: np.ndarray  # n x n orthogonal


def _column_signs(M):
    """+1 or -1 per column of M: the sign of its largest-magnitude entry.

    Entries within TIE_RTOL of the largest are tied, and the lowest index
    among them decides (_first_max). Multiplying the columns by these signs
    gives the deterministic orientation every decomposition here returns.
    """
    if M.size == 0:
        return np.ones(M.shape[1])
    mag = np.abs(M)
    first = _first_max(mag, mag.max(axis=0), axis=0)
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


def _real(M):
    """M as a float array, checked real: ValueError before any work on a
    complex M, whose imaginary part the conversion would drop with only a
    ComplexWarning. The one conversion of the library's numeric inputs."""
    if np.iscomplexobj(M):
        raise ValueError("matrix has complex entries")
    return np.asarray(M, dtype=float)


def _finite(M):
    """M as a float array (_real), checked finite: ValueError before any
    work. The one finiteness check of the library's numeric inputs."""
    M = _real(M)
    if not np.isfinite(M).all():
        raise ValueError("matrix has non-finite entries")
    return M


def _unit_scale(M):
    """(M / 2^power, power): M as a float array, checked finite (_finite),
    divided by the power of two that brings its largest |entry| into
    [0.5, 1); power is 0 for a zero or empty M. The division is exact
    wherever the result stays in the normal range. The one scale decision
    of this module."""
    M = _finite(M)
    power = math.frexp(np.abs(M).max(initial=0.0))[1]
    return np.ldexp(M, -power), power


def _symmetric_input(S):
    """(A, power, ||A||_F): A = S / 2^power at unit scale (_unit_scale),
    checked square and symmetric to 1e-12 of its norm, then symmetrised
    exactly. The test is relative only, so it holds at every scale."""
    A, power = _unit_scale(S)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric("matrix is not square")
    scale = np.linalg.norm(A)
    if np.linalg.norm(A - A.T) > 1e-12 * scale:
        raise NotSymmetric("matrix is not symmetric")
    return 0.5 * (A + A.T), power, scale


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


def sym_eigen(S):
    """Full eigendecomposition of a symmetric matrix: smallest_k(S, n).

    Eigenvalues that agree to DEFAULT_TOL * ||S||_F are one multiple
    eigenvalue: its eigenvectors are returned in a canonical basis
    (_canonical_basis), so they do not depend on the solver's internals.
    """
    S = _real(S)
    if S.shape == (0, 0):
        return SymmetricEigen(values=np.zeros(0), vectors=np.zeros((0, 0)))
    values, vectors = smallest_k(S, S.shape[0] if S.ndim else 1)
    return SymmetricEigen(values=values, vectors=vectors)


def _jacobi_svd_sorted(M):
    """QR-preconditioned one-sided Jacobi (Drmac & Veselic, New fast and
    accurate Jacobi SVD algorithm I, SIAM J. Matrix Anal. Appl. 29(4), 2008;
    LAPACK dgejsv): (U, S, V, rank) with V orthogonal, S sorted descending
    and M V[:, :rank] = U diag(S[:rank]), the columns of U orthonormal.
    Columns of M V past the rank count as zero: S is 0 there.

    M enters at unit scale (_unit_scale), where the rotations, the rank test
    and U = A / S (A = M V at that scale) are computed; only S is multiplied
    back by the power of two. So svd, _gram_eigen and kway._pinv give the
    same U and V at every scale, and S times the scale, to the bit.

    M is m x n with m >= n; n <= 5 on every library path. A tall M is
    reduced to its n x n triangular factor by one Householder QR, M = Q R;
    the rotations (jacobi_svd) run on R and A = Q (R V). A square M is
    rotated as it is: its QR would leave the rotations as many and only
    add its own cost. jacobi_svd starts V = I and returns, per column, the
    column of R V followed by that of V as one list, with the squared norm
    it tracked; the norms are the square roots of those, sorted by a
    stable sort (on the squares, two norms that round to the same double
    could swap), and R V and V come from one array of the sorted lists.
    The rotations act on columns, never on M^T M, and Householder QR
    perturbs each column of M by a few eps of that column's own norm, so
    the condition number is never squared: a small singular value of a
    matrix with graded columns keeps its accuracy relative to itself, not
    to the largest."""
    R, power = _unit_scale(M)
    Q, R = np.linalg.qr(R) if R.shape[0] > R.shape[1] else (None, R)
    T, sq, sweeps = jacobi_svd(R, DEFAULT_TOL, MAX_SWEEPS)
    if sweeps < 0:
        raise NoConvergence(f"Jacobi SVD did not converge in {MAX_SWEEPS} sweeps")
    # the n <= 5 column norms are sorted and ranked as Python floats
    norms = [math.sqrt(s) for s in sq]
    n = len(norms)
    order = sorted(range(n), key=lambda j: -norms[j])  # stable
    norms = [norms[j] for j in order]
    rank = sum(s > 1e-14 * norms[0] for s in norms)
    norms[rank:] = [0.0] * (n - rank)
    # the sorted rows of T as columns: R V on top of V, each n x n
    RV = np.reshape(list(zip(*(T[j] for j in order))), (2 * n, n))
    A = RV[:n] if Q is None else Q @ RV[:n]
    return A[:, :rank] / norms[:rank], np.ldexp(norms, power), RV[n:], rank


def _gram_eigen(Z):
    """Eigendecomposition of G = Z^T Z without forming G: its eigenvectors
    are the right singular vectors of Z and its eigenvalues their squared
    singular values, both from the QR-first Jacobi SVD of Z
    (_jacobi_svd_sorted), which rotates the columns of Z's triangular
    factor and never forms G. So Z's condition number is not squared into
    the solve, and a small eigenvalue is accurate relative to itself.
    Ascending, with smallest_k's tie groups (at DEFAULT_TOL * ||G||_F),
    canonical basis and sign rule; the groups are formed at unit scale, so
    they hold while ||G||_F itself would overflow or underflow."""
    _, norms, V, _ = _jacobi_svd_sorted(Z)
    unit_values = _unit_scale(norms[::-1])[0] ** 2
    groups = _tie_groups(unit_values, DEFAULT_TOL * np.linalg.norm(unit_values))
    return SymmetricEigen(values=norms[::-1] ** 2, vectors=_canonicalise(V[:, ::-1].copy(), groups))


def svd(M):
    """Full SVD by the QR-first one-sided Jacobi of _jacobi_svd_sorted: U is
    m x m, V is n x n, singular values descending. The eigensolver's sign
    rule (_column_signs) orients every column of the taller factor (U if
    m >= n, else V) and the null-space columns of the other; the rest are
    paired with the taller factor's. Only when the rank is below m is U
    completed (_extend_basis), so a square full-rank M, the Procrustes
    step's Z^T X, costs one Jacobi run and the sign rule."""
    M = _real(M)
    if M.ndim != 2:
        raise ValueError("expected a 2-d array")
    transposed = M.shape[0] < M.shape[1]
    U, norms, V, rank = _jacobi_svd_sorted(M.T if transposed else M)
    if rank < U.shape[0]:
        U = _extend_basis(U, np.eye(U.shape[0]))
    # a sign flip of a U column must hit the paired V column too or
    # U diag(S) V^T changes; the null-space columns of V are free
    signs = _column_signs(U)
    U *= signs
    V[:, :rank] *= signs[:rank]
    if rank < V.shape[1]:
        V[:, rank:] *= _column_signs(V[:, rank:])
    if transposed:
        U, V = V, U
    return SVDResult(U=U, S=norms, V=V)


def rayleigh(S, x):
    """Rayleigh quotient x^T S x / x^T x, with S and x each at unit scale
    (_unit_scale): x's scale cancels, and S's multiplies the quotient."""
    x, _ = _unit_scale(x)
    denom = x @ x
    if denom == 0.0:
        raise ZeroVector("Rayleigh quotient of the zero vector")
    S, power = _unit_scale(S)
    return float(np.ldexp(x @ (S @ x) / denom, power))


def _kernel_dimension(S):
    """Number of eigenvalues of the symmetric S with |lambda| <= t =
    1e-9 max |lambda|, without eigenvectors: on the whole Lanczos
    tridiagonal form of S at unit scale (_symmetric_input), multisection
    and Newton find the two extreme eigenvalues, whose larger magnitude is
    max |lambda|, and the count is the difference of two Sturm counts, of
    the eigenvalues below t and below -t. An isolated extreme eigenvalue
    takes a pass or two of multisection and Newton's steps; one in a
    cluster is bisected to full width, though t needs only a few digits.
    The zero matrix counts n."""
    A, _, _ = _symmetric_input(S)
    n = A.shape[0]
    if not A.any():
        return n
    d, e = np.zeros(n), np.zeros(n - 1)
    lanczos(A, np.zeros((n, n)), d, e, 0, n)
    (lowest,), _ = tridiagonal_eigenvalues(d, e, 0, 1)
    (highest,), _ = tridiagonal_eigenvalues(d, e, n - 1, n)
    t = 1e-9 * max(abs(lowest), abs(highest))
    below_minus_t, below_t = sturm_counts(d, e * e, np.array([-t, t]))
    return int(below_t - below_minus_t)


# smallest_k's first checkpoint is at Krylov dimension
# max(KRYLOV_PER_PAIR k + KRYLOV_BASE, KRYLOV_FLOOR), each later one
# KRYLOV_GROWTH times the last, capped at n. Measured, not knobs: the first
# certifies all six 4-way solves of perfbench's cluster-n120 at seeds 1-3
# (m = 56 of 120; they certify from m = 27-30) and the planted 4-way solves
# of benchmarks/bench_eigen.py from n = 60 to 1000 in one checkpoint. The
# floor keeps the k = 1 and 2 solves of signed-n48 at one checkpoint
# (balance's k = 1 solves certify only from m = 22-30), and with it every
# certificate runs at n > 32, where its margin proves a tie group whole
# (_kernels.certify). Lower first checkpoints add a failed checkpoint
# wherever lambda_k lies in the bulk: 8 per pair, or m = 38 at k = 4, made
# those 4-way solves about 1.3x faster but the planted 5-way ones of
# bench_eigen 1.2-1.6x slower at n = 120 and 250 (one BLAS thread); 16 per
# pair was slower at k = 4, a floor of 24 or 40 slower on signed-n48.
# Growth 1.25 to 2 timed alike when the certificate read k + 1 pairs
KRYLOV_PER_PAIR = 12
KRYLOV_BASE = 8
KRYLOV_FLOOR = 32
KRYLOV_GROWTH = 1.5


def _lowest_eigenvalues(d, e, k, thresh):
    """(lam, isolated, groups, end): the lowest eigenvalues of the
    tridiagonal T = (d, e) (tridiagonal_eigenvalues) and their isolated
    marks, at least k + 1 of them and more, doubling, while the tie group
    (_tie_groups at thresh) holding the k-th runs on to the last computed;
    groups are their tie groups, and end is where the group holding the
    k-th ends. lam[k] is wanted only to tell whether that group runs on
    (the guard of tridiagonal_eigenvalues): it is resolved only as far as
    that takes."""
    m = len(d)
    lam, isolated = tridiagonal_eigenvalues(d, e, 0, min(k + 1, m), k < m)
    while True:
        groups = _tie_groups(lam, thresh)
        end = next(t for _, t in groups if t >= k)  # of the group holding k - 1
        if end < len(lam) or len(lam) == m:
            return lam, isolated, groups, end
        more, more_isolated = tridiagonal_eigenvalues(d, e, len(lam), min(2 * len(lam), m))
        lam, isolated = np.concatenate((lam, more)), np.concatenate((isolated, more_isolated))


def smallest_k(S, k):
    """The k smallest eigenvalues and their eigenvectors, without a full
    decomposition: a Lanczos reduction run to checkpoints, each solved as
    LAPACK's dstebz and dstein solve a tridiagonal matrix (Parlett, The
    Symmetric Eigenvalue Problem, ch. 11 and 13).

    S enters at unit scale (_symmetric_input), and the eigenvalues are
    multiplied back by the same power of two. At each checkpoint m the
    Lanczos reduction (_kernels.lanczos) has reached T_m = Q_m^T A Q_m.
    Sturm-count multisection and Newton give T_m's k smallest eigenvalues,
    and more while the tie group holding the k-th runs on
    (_lowest_eigenvalues); the eigenvalue past that group is resolved only
    as far as telling that it does not tie, and gets no Newton finish and
    no vector. Inverse iteration on T_m gives the group's vectors Z, and
    Y = Q_m Z, one matrix product, the Ritz vectors. The reduction stops
    once _kernels.certify proves these the smallest eigenpairs of A (their
    residual at most 8 eps ||A||_F, and a Cholesky inertia test showing
    none missed below them and the next eigenvalue of A farther above them
    than a tie), or at m = n, where T_n is the whole reduction. A failed
    certificate only extends m. So the first eigenvalue of the bulk, the
    last to converge, is never certified: a K-way solve on a graph with K
    clusters stops once the K outliers below the eigengap have converged.
    An isolated eigenvalue (proven farther than CLUSTER_GAP ||T||_1 from
    every other, and finished by Newton; see tridiagonal_eigenvalues) is
    the Rayleigh quotient z^T T z of its unit vector z, the others the
    midpoints of their brackets at full width.
    Eigenvalues within DEFAULT_TOL * ||S||_F of
    each other are one multiple eigenvalue, whose eigenvectors come back in
    the canonical basis (_canonical_basis); every column is oriented by
    _column_signs. A tie group that k cuts is computed whole before the
    cut, so the result is the first k columns of
    sym_eigen(S) = smallest_k(S, n) to rounding.
    """
    k = operator.index(k)
    A, power, scale = _symmetric_input(S)
    n = A.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range 1..{n}")
    if not A.any():
        return np.zeros(k), np.eye(n)[:, :k]
    Q, d, e = np.zeros((n, n)), np.zeros(n), np.zeros(n - 1)
    m, stop = 0, min(max(KRYLOV_PER_PAIR * k + KRYLOV_BASE, KRYLOV_FLOOR), n)
    while True:
        lanczos(A, Q, d, e, m, stop)
        m = stop
        T = d[:m], e[: m - 1]
        lam, isolated, groups, end = _lowest_eigenvalues(*T, k, DEFAULT_TOL * scale)
        if end < m or m == n:
            Z = tridiagonal_eigenvectors(*T, lam[:end])
            if Z is None:
                raise NoConvergence("inverse iteration did not converge")
            # an isolated eigenvalue is the Rayleigh quotient z^T T z of its vector
            theta = np.where(isolated[:end], T[0] @ (Z * Z) + 2.0 * (T[1] @ (Z[:-1] * Z[1:])), lam[:end])
            Y = Q[:m].T @ Z
            if m == n or certify(A, Y, theta):
                break
        stop = min(math.ceil(KRYLOV_GROWTH * m), n)
    vectors = _canonicalise(Y, [g for g in groups if g[1] <= end])
    return np.ldexp(theta[:k], power), vectors[:, :k].copy()

"""K-way clustering by normalized, signed-normalized, ratio, and signed-ratio
cuts: the continuous relaxation, initialization heuristics, and the
alternating discretization (per-row argmax rounding vs. Procrustes refit)."""

from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import (
    EmptyBlock,
    NegativeWeightInUnsignedMode,
    NoConvergence,
    NotConnected,
    RankDeficient,
    ZeroVector,
    ZeroVolume,
)
from .graph import NodeSubset, connected_components, degree_vector
from .laplacian import laplacian, quadratic_form

MODES = ("ncut", "rcut", "signed_ncut", "signed_rcut")
TIE = eigen.TIE_RTOL
TARGET_FROBENIUS = 100.0
RESCALE_METHODS = ("row_sum_ls", "row_norm_ls", "row_normalize")
# a safety cap, not a setting: a round that lowers phi by less than 1e-12 ends the alternation
MAX_ROUNDS = 100


@dataclass(frozen=True)
class IndicatorMatrix:
    X: np.ndarray  # N x K, one nonzero per row, no zero column

    @property
    def assignment(self):
        return np.argmax(self.X != 0, axis=1)

    def blocks(self):
        """One NodeSubset per column of X: the 1-based rows it holds."""
        N, K = self.X.shape
        asg = self.assignment
        return tuple(NodeSubset((np.nonzero(asg == j)[0] + 1).tolist(), m=N) for j in range(K))


@dataclass(frozen=True)
class ContinuousSolution:
    Z: np.ndarray
    mode: str
    eigenvalues: np.ndarray  # the K smallest of the mode's Laplacian, ascending


@dataclass(frozen=True)
class TransformQ:
    R: np.ndarray  # K x K orthogonal (or near-orthogonal for the greedy init)
    Lambda: np.ndarray  # K x K diagonal invertible

    @property
    def Q(self):
        return self.R @ self.Lambda


@dataclass(frozen=True)
class KWayResult:
    partition: tuple
    objective: float
    X: IndicatorMatrix
    Z: ContinuousSolution
    Q: TransformQ
    iterations: int
    residual: float
    relaxation_value: float
    constraints_deformed: bool  # True when the init rescale left (*_1)


def _mode_kind(g, mode):
    """Read a cut mode as (signed, normalized): signed modes use |W| degrees
    and the signed Laplacian, normalized cuts divide by volume, ratio cuts
    by block size. The unsigned modes refuse negative weights."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    signed = mode.startswith("signed")
    if not signed and g.has_negative_edges:
        raise NegativeWeightInUnsignedMode(
            f"mode {mode!r} needs nonnegative weights: use signed_{mode} for signed graphs"
        )
    return signed, mode.endswith("ncut")


def _quadratic_forms(g, X, mode):
    """Per-column x^T L x and x^T D x of X: L is the mode's unnormalized
    Laplacian, D its degrees for normalized cuts and I for ratio cuts."""
    signed, normalized = _mode_kind(g, mode)
    XX = X * X
    den = degree_vector(g, signed) @ XX if normalized else XX.sum(axis=0)
    return quadratic_form(g, X, signed), den


def objective(g, partition, mode="ncut"):
    """Discrete clustering objective of a partition: the Rayleigh sum of its
    0/1 indicator, sum_j cut'(A_j) / size(A_j) with cut' = cut + 2 * the
    negative weight inside A_j in signed modes, and size the volume for
    normalized cuts and the node count for ratio cuts."""
    blocks = [p if isinstance(p, NodeSubset) else NodeSubset(p, m=g.m) for p in partition]
    seen = set()
    for b in blocks:
        if len(b) == 0:
            raise EmptyBlock("every block must be nonempty")
        if seen & b.members:
            raise ValueError("blocks must be disjoint")
        seen |= b.members
    if seen != set(range(1, g.m + 1)):
        raise ValueError("blocks must cover all nodes")
    X = np.zeros((g.m, len(blocks)))
    for j, b in enumerate(blocks):
        X[[i - 1 for i in b.members], j] = 1.0
    num, den = _quadratic_forms(g, X, mode)
    empty = np.flatnonzero(den <= 0)
    if empty.size:
        raise ZeroVolume(f"block {sorted(blocks[empty[0]].members)} has zero volume")
    return float((num / den).sum())


def rayleigh_sum(g, X, mode="ncut"):
    """Sum over the columns x of X of x^T L x / x^T D x (D = I for ratio
    cuts): on a partition's indicator, its objective; on the relaxed
    solution, the sum of the K smallest eigenvalues."""
    Xm = X.X if isinstance(X, IndicatorMatrix) else np.asarray(X, dtype=float)
    num, den = _quadratic_forms(g, Xm, mode)
    zero = np.flatnonzero(den <= 0)
    if zero.size:
        raise ZeroVector(f"column {zero[0] + 1} of X has x^T D x <= 0")
    return float((num / den).sum())


def solve_relaxed(g, K, mode="ncut"):
    """Continuous solution: K smallest eigenvectors of the mode's Laplacian,
    unnormalized by D^{-1/2} where applicable, rescaled to ||Z||_F = 100.
    This is the one place a cut mode is mapped to its eigenproblem."""
    signed, normalized = _mode_kind(g, mode)
    if not 2 <= K <= g.m:
        raise ValueError(f"K={K} out of range")
    prefix = "signed_" if signed else ""
    if normalized:
        if not signed:
            _, c = connected_components(g)
            if c != 1:
                raise NotConnected(f"graph has {c} components")
        lap = laplacian(g, prefix + "sym")
        values, Y = eigen.smallest_k(lap.M, K)
        Z = Y / np.sqrt(lap.degree)[:, None]
    else:
        values, Z = eigen.smallest_k(laplacian(g, prefix + "unnormalized").M, K)
    Z = Z * (TARGET_FROBENIUS / np.linalg.norm(Z))
    return ContinuousSolution(Z=Z, mode=mode, eigenvalues=values)


def init_rotation_R1(Z):
    """Rotation making the columns of Z R1 simultaneously orthogonal and
    D-orthogonal: the eigenvector matrix of Z^T Z, taken as the right
    singular vectors of Z (eigen._gram_eigen), ascending."""
    Z = _as_z(Z)
    eig = eigen._gram_eigen(Z)
    if eig.values[0] <= 1e-12 * max(eig.values[-1], 1e-300):
        raise RankDeficient("Z does not have full column rank")
    return TransformQ(R=eig.vectors, Lambda=np.eye(Z.shape[1]))


def init_rotation_R2(Z):
    """Greedy pick of K rows of Z that are as mutually orthogonal as
    possible, starting from row 0; the chosen rows, unit-normalized, become
    the columns of R."""
    Z = _as_z(Z)
    N, K = Z.shape
    available = list(range(1, N))
    cols = [Z[0].copy()]
    c = np.zeros(N)
    for _ in range(1, K):
        c = c + np.abs(Z @ cols[-1])
        pick = available[_first_min(c[available], c.max())]
        cols.append(Z[pick].copy())
        available.remove(pick)
    R = np.column_stack(cols)
    norms = np.linalg.norm(R, axis=0)
    norms[norms == 0] = 1.0
    return TransformQ(R=R / norms, Lambda=np.eye(K))


def rescale_variant(Z, method="row_normalize"):
    """Deform Z to sit closer to a discrete solution. Returns (Z', deformed)
    where deformed is True when Z' may no longer satisfy the relaxed
    constraints (row normalization does not preserve them); it depends on
    the method only. Z must be finite (ValueError before any work)."""
    Z = _as_z(Z)
    if not np.isfinite(Z).all():
        raise ValueError("matrix has non-finite entries")
    if method == "row_sum_ls":
        lam = np.linalg.solve(Z.T @ Z, Z.T @ np.ones(Z.shape[0]))
        if np.any(np.abs(lam) < 1e-6):
            return Z.copy(), False
        return Z * lam[None, :], False
    if method == "row_norm_ls":
        sq = Z * Z
        lam2 = _pinv(sq) @ np.ones(Z.shape[0])
        if np.any(lam2 <= 1e-12):
            return Z.copy(), False
        return Z * np.sqrt(lam2)[None, :], False
    if method == "row_normalize":
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return Z / norms, True
    raise ValueError(f"unknown rescale method {method!r}")


def _pinv(M):
    A, S, V, _ = eigen._jacobi_svd_sorted(M)
    keep = S > 1e-10 * S[0]
    # M = U S V^T with U = A / S, so pinv(M) = V S^-1 U^T
    return (V[:, keep] / S[keep]) @ (A[:, keep] / S[keep]).T


def flip_columns(ZR):
    """Negate every column with a strictly negative mean (a mean within
    rounding of zero is not negative)."""
    ZR = np.asarray(ZR, dtype=float)
    signs = np.where(ZR.mean(axis=0) < -TIE * np.abs(ZR).max(axis=0), -1.0, 1.0)
    return ZR * signs[None, :], np.diag(signs)


def podx(Z, Q=None):
    """Round Z Q to an indicator: per row keep the leftmost largest entry
    (entries within rounding of the largest are tied);
    repair empty columns by migrating a 1 from the most populated column;
    rescale so ||X||_F = ||Z||_F."""
    Z = _as_z(Z)
    if Q is None:
        Y = Z
    else:
        Qm = Q.Q if isinstance(Q, TransformQ) else np.asarray(Q, dtype=float)
        Y = Z @ Qm
    N, K = Y.shape
    top = Y.max(axis=1, keepdims=True)
    tied = Y >= top - TIE * np.abs(Y).max(axis=1, keepdims=True)
    pattern = np.zeros((N, K))
    pattern[np.arange(N), np.argmax(tied, axis=1)] = 1.0
    counts = pattern.sum(axis=0)
    while np.any(counts == 0):
        k_from = int(np.argmax(counts))  # leftmost column with the most ones
        row = int(np.nonzero(pattern[:, k_from])[0][0])  # smallest such row
        k_to = int(np.nonzero(counts == 0)[0][0])  # leftmost zero column
        pattern[row, k_from] = 0.0
        pattern[row, k_to] = 1.0
        counts[k_from] -= 1
        counts[k_to] += 1
    a = float(np.linalg.norm(Z) / np.sqrt(N))
    return IndicatorMatrix(X=pattern * a)


def podr(X, Z):
    """Best transform Q = R Lambda for fixed X: R from the SVD of Z^T X
    (orthogonal Procrustes), then the per-column least-squares diagonal
    evaluated against Z R, falling back to Lambda = I when singular."""
    Xm = X.X if isinstance(X, IndicatorMatrix) else np.asarray(X, dtype=float)
    Z = _as_z(Z)
    res = eigen.svd(Z.T @ Xm)
    R = res.U @ res.V.T
    ZR = Z @ R
    K = Xm.shape[1]
    if res.S[-1] < 1e-9 * max(res.S[0], 1.0):
        # Z^T X is rank deficient: the rotation is not unique and the
        # diagonal stage is singular, so skip it
        return TransformQ(R=R, Lambda=np.eye(K))
    lam = np.zeros(K)
    for j in range(K):
        denom = float(ZR[:, j] @ ZR[:, j])
        lam[j] = float(ZR[:, j] @ Xm[:, j]) / denom if denom > 0 else 0.0
    if np.any(np.abs(lam) < 1e-9):
        lam = np.ones(K)
    return TransformQ(R=R, Lambda=np.diag(lam))


def projective_distance(x, y):
    """Angle between the lines spanned by x and y (antipodal points equal)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ZeroVector("projective distance of the zero vector")
    return float(np.arccos(min(1.0, abs(float(x @ y)) / (nx * ny))))


def first_column_rotation(g, X):
    """Orthogonal R whose first column is (sqrt(vol(A_j)/d))_j, so that the
    first column of X R is constant; completed by Gram-Schmidt over
    (R^1, e_2, ..., e_K, e_1), each column oriented by eigen's sign rule."""
    Xm = X.X if isinstance(X, IndicatorMatrix) else np.asarray(X, dtype=float)
    N, K = Xm.shape
    D = degree_vector(g)
    d = float(D.sum())
    vols = np.zeros(K)
    c2 = None
    for j in range(K):
        nz = np.nonzero(Xm[:, j])[0]
        if nz.size == 0:
            raise ValueError("indicator has an empty column")
        vals = Xm[nz, j]
        if np.max(np.abs(vals - vals[0])) > 1e-10 * abs(vals[0]):
            raise ValueError("column entries must be equal")
        vols[j] = float(D[nz].sum())
        form = float(vals[0] ** 2 * vols[j])
        if c2 is None:
            c2 = form
        elif abs(form - c2) > 1e-8 * max(c2, 1.0):
            raise ValueError("columns must be D-normalized to a common value")
    r1 = np.sqrt(vols / d)
    # the unit vectors satisfy sum e e^T = I, so the completion reaches K columns
    R = eigen._extend_basis(r1[:, None], np.roll(np.eye(K), -1, axis=0))
    return TransformQ(R=R * eigen._column_signs(R), Lambda=np.eye(K))


def _as_z(Z):
    if isinstance(Z, ContinuousSolution):
        return Z.Z
    return np.asarray(Z, dtype=float)


def _first_min(values, scale):
    """Index of the first entry within TIE * scale of the smallest: exact ties
    must not be broken by the last bits of the eigensolver's output."""
    values = np.asarray(values, dtype=float)
    return int(np.argmax(values <= values.min() + TIE * scale))


def cluster(g, K, mode="ncut", rescale="row_normalize"):
    """Full pipeline: relaxation, candidate initialization, and the rounding/
    refit alternation. Returns the discrete partition with diagnostics. The
    alternation stops once phi = ||X - ZQ|| falls by less than 1e-12 in a
    round (MAX_ROUNDS caps it) and raises NoConvergence if phi rises."""
    if rescale not in RESCALE_METHODS:
        raise ValueError(f"unknown rescale method {rescale!r}")
    sol = solve_relaxed(g, K, mode)
    Z1 = sol.Z
    R1 = init_rotation_R1(Z1).R
    Z2 = Z1 @ R1
    Zinit1, deformed = rescale_variant(Z1, rescale)
    Zinit2, _ = rescale_variant(Z2, rescale)

    # candidate initial (X, Q): Q is expressed against the original Z1 so the
    # iteration proper always runs on the undeformed relaxed solution
    candidates = []
    for Zc, base_R in ((Zinit1, np.eye(K)), (Zinit2, R1)):
        for Rc in (np.eye(K), init_rotation_R2(Zc).R):
            ZR = Zc @ Rc
            X_plain = podx(Zc, Rc)
            res_plain = float(np.linalg.norm(X_plain.X - ZR))
            ZQp, Rp = flip_columns(ZR)
            X_flip = podx(ZQp)
            res_flip = float(np.linalg.norm(X_flip.X - ZQp))
            if res_flip < res_plain * (1.0 - TIE):
                candidates.append((res_flip, base_R @ Rc @ Rp))
            else:
                candidates.append((res_plain, base_R @ Rc))
    residuals = [res for res, _ in candidates]
    _, Q0 = candidates[_first_min(residuals, max(residuals))]

    Q = TransformQ(R=Q0, Lambda=np.eye(K))
    prev_phi = np.inf
    for it in range(1, MAX_ROUNDS + 1):
        X = podx(Z1, Q)
        Q = podr(X, Z1)
        phi = float(np.linalg.norm(X.X - Z1 @ Q.Q))
        if phi > prev_phi + 1e-9:  # the alternation must not worsen the fit
            raise NoConvergence(
                f"alternation round {it} raised phi = ||X - ZQ|| from {prev_phi!r} to {phi!r}"
            )
        if prev_phi - phi < 1e-12:
            break
        prev_phi = phi

    blocks = X.blocks()
    return KWayResult(
        partition=blocks,
        objective=objective(g, blocks, mode),
        X=X,
        Z=sol,
        Q=Q,
        iterations=it,
        residual=phi,
        relaxation_value=float(sol.eigenvalues.sum()),
        constraints_deformed=deformed,
    )

"""K-way clustering by normalized, signed-normalized, ratio, and signed-ratio
cuts: the continuous relaxation, initialization heuristics, and the
alternating discretization (per-row argmax rounding vs. Procrustes refit)."""

import math
from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import NoConvergence, RankDeficient, ZeroVector, ZeroVolume
from .graph import _blocks, _connected, _labels, _nonnegative, connected_components, degree_vector
from .laplacian import laplacian, quadratic_form

MODES = ("ncut", "rcut", "signed_ncut", "signed_rcut")
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
        return _blocks(self.assignment, self.X.shape[1])


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
    constraints_deformed: bool  # True under row_normalize, whose rows leave the constraints (*_1)


def _mode_kind(g, mode):
    """Read a cut mode as (signed, normalized): signed modes use |W| degrees
    and the signed Laplacian, normalized cuts divide by volume, ratio cuts
    by block size. The unsigned modes refuse negative weights."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    signed = mode.startswith("signed")
    if not signed:
        _nonnegative(g, f"mode {mode!r}", f"signed_{mode}")
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
    return _labels_objective(g, _labels(g, partition), mode)


def _labels_objective(g, labels, mode):
    """objective of the partition given by each node's 0-based block, the
    labels: ZeroVolume names the first block without size."""
    num, den = _quadratic_forms(g, np.eye(labels.max() + 1)[labels], mode)
    empty = np.flatnonzero(den <= 0)
    if empty.size:
        raise ZeroVolume(f"block {(np.flatnonzero(labels == empty[0]) + 1).tolist()} has zero volume")
    return float((num / den).sum())


def rayleigh_sum(g, X, mode="ncut"):
    """Sum over the columns x of X of x^T L x / x^T D x (D = I for ratio
    cuts): on a partition's indicator, its objective; on the relaxed
    solution, the sum of the K smallest eigenvalues. X enters at unit scale
    (eigen._unit_scale), where each ratio is the same."""
    Xm, _ = _as_z(X, eigen._unit_scale)
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
            _connected(connected_components(g)[1])
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
    singular vectors of Z (eigen._gram_eigen), ascending. Z enters at unit
    scale (eigen._unit_scale), where the rank test reads the squared
    singular values. cluster calls it for the normalized cuts only: a ratio
    cut's relaxation constrains Z^T Z = c^2 I (D = I), whose canonical
    eigenbasis is I, so there R1 = I, Z1 R1 is Z1, and cluster scores that
    one start alone."""
    Z, _ = _as_z(Z, eigen._unit_scale)
    eig = eigen._gram_eigen(Z)
    if eig.values[0] <= 1e-12 * eig.values[-1]:
        raise RankDeficient("Z does not have full column rank")
    return TransformQ(R=eig.vectors, Lambda=np.eye(Z.shape[1]))


def init_rotation_R2(Z):
    """Greedy pick of K rows of Z that are as mutually orthogonal as
    possible, starting from row 0: each next pick is the first free row
    within rounding of the least summed |overlap| with the rows picked
    (eigen._first_max of its negation). The chosen rows, unit-normalized,
    become the columns of R."""
    Z = _as_z(Z)
    N, K = Z.shape
    picks = [0]
    c = np.zeros(N)
    for _ in range(1, K):
        c = c + np.abs(Z @ Z[picks[-1]])
        free = c.copy()
        free[picks] = np.inf
        picks.append(int(eigen._first_max(-free, c.max())))
    R = Z[picks].T
    norms = np.linalg.norm(R, axis=0)
    norms[norms == 0] = 1.0
    return TransformQ(R=R / norms, Lambda=np.eye(K))


def rescale_variant(Z, method="row_normalize"):
    """Deform Z to sit closer to a discrete solution and return the deformed
    Z: row_sum_ls scales each column by the least-squares fit of unit row
    sums, row_norm_ls by that of unit row norms, row_normalize divides each
    row by its norm (only this one leaves the relaxed constraints). Z enters
    at unit scale (eigen._unit_scale), so 2^p Z gives the same result. A fit
    with a column factor (squared for row_norm_ls) within TIE_RTOL of zero,
    relative to the largest, falls back to Z as given. row_sum_ls solves
    the normal equations, so it raises RankDeficient where Z lacks full
    column rank: where the Cholesky factorisation of Z^T Z fails or a
    squared pivot is at most 1e-12 of the largest."""
    Z, power = _as_z(Z, eigen._unit_scale)
    if method == "row_sum_ls":
        G = Z.T @ Z
        try:
            pivots = np.diag(np.linalg.cholesky(G)) ** 2
        except np.linalg.LinAlgError:
            pivots = np.zeros(1)  # not positive definite: a pivot at or below zero
        # the smallest eigenvalue of G is at most its smallest pivot and the
        # largest at least its largest, so init_rotation_R1 refuses this Z too
        if pivots.min() <= 1e-12 * pivots.max():
            raise RankDeficient("Z does not have full column rank")
        lam = np.linalg.solve(G, Z.T @ np.ones(Z.shape[0]))
        if np.all(np.abs(lam) > eigen.TIE_RTOL * np.abs(lam).max()):
            return Z * lam[None, :]
    elif method == "row_norm_ls":
        lam2 = _pinv(Z * Z) @ np.ones(Z.shape[0])
        if np.all(lam2 > eigen.TIE_RTOL * lam2.max()):
            return Z * np.sqrt(lam2)[None, :]
    elif method == "row_normalize":
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return Z / norms
    else:
        raise ValueError(f"unknown rescale method {method!r}")
    return np.ldexp(Z, power)


def _pinv(M):
    U, S, V, _ = eigen._jacobi_svd_sorted(M)
    keep = np.count_nonzero(S > 1e-10 * S[0])  # S descends: a prefix
    # M = U S V^T, so pinv(M) = V S^-1 U^T
    return (V[:, :keep] / S[:keep]) @ U[:, :keep].T


def flip_columns(ZR):
    """Negate every column with a strictly negative mean (a mean within
    rounding of zero is not negative). ZR is N x K or a stack (..., N, K)
    of such; returns the flipped input and the diagonal sign matrices."""
    ZR = _as_z(ZR)
    signs = np.where(ZR.mean(axis=-2) < -eigen.TIE_RTOL * np.abs(ZR).max(axis=-2), -1.0, 1.0)[..., None, :]
    return ZR * signs, signs * np.eye(ZR.shape[-1])


def _round_rows(Y, a):
    """The indicators of Y, N x K or a stack (..., N, K), scaled by a (a
    scalar, or one scale per stack member shaped to broadcast): per row the
    leftmost largest entry (eigen._first_max, at the row's largest |entry|);
    an empty column takes the lowest-index row of the leftmost fullest
    column, until none is empty. The one rounding rule of podx and of
    cluster's candidate scoring."""
    K = Y.shape[-1]
    labels = eigen._first_max(Y, np.abs(Y).max(axis=-1, keepdims=True))
    onehot = labels[..., None] == np.arange(K)
    if not onehot.any(axis=-2).all():
        for b in np.ndindex(labels.shape[:-1]):
            lab = labels[b]
            # the smallest row of the leftmost fullest column moves to the
            # leftmost empty one
            while not (count := np.bincount(lab, minlength=K)).all():
                lab[(lab == count.argmax()).argmax()] = count.argmin()
            onehot[b] = lab[:, None] == np.arange(K)
    return onehot * a


def podx(Z, Q=None):
    """Round Z Q to an indicator: per row keep the leftmost largest entry
    (entries within rounding of the largest are tied), repair empty columns
    by moving a row from the most populated column, and scale so that
    ||X||_F = ||Z||_F. The rule is _round_rows, shared with cluster's
    candidate scoring. Z and Q (a TransformQ or its Q) are read by _as_z."""
    Z = _as_z(Z)
    Y = Z if Q is None else Z @ _as_z(Q)
    return IndicatorMatrix(X=_round_rows(Y, np.linalg.norm(Z) / np.sqrt(Z.shape[0])))


def podr(X, Z):
    """Best transform Q = R Lambda for fixed X: R the polar factor U V^T of
    Z^T X (orthogonal Procrustes), then the per-column least-squares
    diagonal evaluated against Z R, or Lambda = I when Z^T X is rank
    deficient. When Z^T X is non-singular its polar factor is unique and
    eigen.svd's square full-rank path gives it without completing U; only
    the rank-deficient case needs the completed U. X and Z are read by
    _as_z."""
    Xm = _as_z(X)
    Z = _as_z(Z)
    res = eigen.svd(Z.T @ Xm)
    R = res.U @ res.V.T
    if res.S[-1] <= 1e-9 * res.S[0]:
        # Z^T X is rank deficient (a zero Z^T X too): the rotation is not
        # unique and the diagonal stage is singular, so skip it
        return TransformQ(R=R, Lambda=np.eye(Xm.shape[1]))
    # diag(R^T Z^T X) = diag(V S V^T) >= S_min > 0, so every column of Z R
    # is nonzero and every lambda_j positive
    ZR = Z @ R
    lam = (ZR * Xm).sum(axis=0) / (ZR * ZR).sum(axis=0)
    return TransformQ(R=R, Lambda=np.diag(lam))


def projective_distance(x, y):
    """Angle between the lines spanned by x and y (antipodal points equal),
    each at unit scale (eigen._unit_scale)."""
    x, _ = eigen._unit_scale(x)
    y, _ = eigen._unit_scale(y)
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0 or ny == 0:
        raise ZeroVector("projective distance of the zero vector")
    return float(np.arccos(min(1.0, abs(float(x @ y)) / (nx * ny))))


def first_column_rotation(g, X):
    """Orthogonal R whose first column is (sqrt(vol(A_j)/d))_j, so that the
    first column of X R is constant; completed by Gram-Schmidt over
    (R^1, e_2, ..., e_K, e_1), each column oriented by eigen's sign rule.
    The volumes are those of plain degrees, so a graph with a negative weight
    raises NegativeWeightInUnsignedMode. X (read by _as_z) must be an
    indicator: no empty column, the nonzero entries of a column equal to
    1e-10 of its first, and x^T D x equal over the columns to 1e-8 of the
    first column's; each rule is checked over all columns before the next."""
    _nonnegative(g, "first_column_rotation", "signed_ncut (no first-column constraint)")
    Xm = _as_z(X)
    K = Xm.shape[1]
    held = Xm != 0
    if not held.any(axis=0).all():
        raise ValueError("indicator has an empty column")
    first = Xm[held.argmax(axis=0), np.arange(K)]
    if (np.abs(Xm - first) > 1e-10 * np.abs(first))[held].any():
        raise ValueError("column entries must be equal")
    D = degree_vector(g)
    vols = D @ held
    form = first**2 * vols
    if np.any(np.abs(form - form[0]) > 1e-8 * form[0]):
        raise ValueError("columns must be D-normalized to a common value")
    r1 = np.sqrt(vols / D.sum())
    # the unit vectors satisfy sum e e^T = I, so the completion reaches K columns
    R = eigen._extend_basis(r1[:, None], np.roll(np.eye(K), -1, axis=0))
    return TransformQ(R=R * eigen._column_signs(R), Lambda=np.eye(K))


_FIELDS = {ContinuousSolution: "Z", IndicatorMatrix: "X", TransformQ: "Q"}


def _as_z(A, read=eigen._finite):
    """The one reader of the array arguments of the public K-way steps: a
    ContinuousSolution gives its Z, an IndicatorMatrix its X, a TransformQ
    its Q, anything else is the array itself. read checks it once:
    eigen._finite (ValueError before any work), or eigen._unit_scale, which
    makes the same check, for a step that works at unit scale."""
    field = _FIELDS.get(type(A))
    return read(A if field is None else getattr(A, field))


def _score_candidates(starts):
    """The initial rotation Q0 of the alternation and two residuals per
    start. A start (Zc, B) is a rescaled initial solution, the rescaled
    Z1 B, with its base rotation B. Its two candidates Zc Rc, for Rc = I and
    R2 of Zc, are rounded in one stack over all starts (_round_rows) as they
    stand and with flipped columns (flip_columns), each at the scale ||its
    Z||_F / sqrt(N); a flipped candidate wins over its plain one when its
    residual ||X - Y||_F is smaller beyond rounding, and the first residual
    within rounding of the smallest wins (eigen._first_max of -residuals).
    Q0 = B Rc, times the flip, is expressed against the relaxed solution Z1,
    so the iteration proper always runs on the undeformed relaxed solution."""
    eye = np.eye(starts[0][1].shape[0])
    Zc = np.repeat([Z for Z, _ in starts], 2, axis=0)
    Rc = np.array([R for Z, _ in starts for R in (eye, init_rotation_R2(Z).R)])
    ZR = Zc @ Rc
    flipped, Rp = flip_columns(ZR)
    Y = np.concatenate((ZR, flipped))
    W = np.concatenate((Zc, flipped))
    scales = np.sqrt((W * W).sum(axis=(1, 2))) / math.sqrt(Zc.shape[1])
    D = _round_rows(Y, scales[:, None, None]) - Y
    res_plain, res_flip = np.sqrt((D * D).sum(axis=(1, 2))).reshape(2, -1)
    flip = res_flip < res_plain * (1.0 - eigen.TIE_RTOL)
    residuals = np.where(flip, res_flip, res_plain)
    best = eigen._first_max(-residuals, residuals.max())
    return starts[best // 2][1] @ Rc[best] @ (Rp[best] if flip[best] else eye), residuals


def cluster(g, K, mode="ncut", rescale="row_normalize"):
    """Full pipeline: relaxation, candidate initialization, and the rounding/
    refit alternation. Returns the discrete partition with diagnostics. The
    candidate roundings of every distinct initial solution are scored in one
    stacked pass (_score_candidates); each alternation round is one podx and
    one podr. The alternation stops once phi = ||X - ZQ|| falls by less than
    1e-12 in a round (MAX_ROUNDS caps it) and raises NoConvergence if phi
    rises. The normalized cuts start from Z1 and from Z1 R1 (eight
    roundings). The ratio cuts start from Z1 alone (four roundings): their
    constraint Z^T Z = c^2 I gives R1 = I (init_rotation_R1 returns that I),
    so Z1 R1 is Z1."""
    if rescale not in RESCALE_METHODS:
        raise ValueError(f"unknown rescale method {rescale!r}")
    sol = solve_relaxed(g, K, mode)
    Z1 = sol.Z
    starts = [(Z1, np.eye(K))]
    if _mode_kind(g, mode)[1]:
        R1 = init_rotation_R1(Z1).R
        starts.append((Z1 @ R1, R1))
    Q0, _ = _score_candidates([(rescale_variant(Z, rescale), B) for Z, B in starts])
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
        constraints_deformed=rescale == "row_normalize",
    )

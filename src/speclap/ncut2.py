"""Two-way normalized cut: objective, relaxation, sign orientation, and the
exact rounding of zero entries in the continuous solution."""

from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import AllOneSide, DegenerateSubset, ZeroVolume
from .graph import _as_subset, _blocks, degree_vector
from .kway import _as_z, _labels_objective, solve_relaxed


@dataclass(frozen=True)
class TwoWayIndicator:
    a: float
    beta: float
    assignment: np.ndarray  # True where the node is in A

    def vector(self):
        return np.where(self.assignment, self.a, -self.beta * self.a)


@dataclass(frozen=True)
class TwoWayResult:
    partition: tuple  # (NodeSubset A, NodeSubset A-bar)
    ncut: float
    Z: np.ndarray
    X: TwoWayIndicator
    residual: float


def ncut2_value(g, A):
    """cut(A) * (1/vol(A) + 1/vol(A-bar)): the ncut objective of (A, A-bar)."""
    labels = np.ones(g.m, dtype=np.intp)
    labels[_as_subset(g, A).indices0()] = 0
    return _ncut2(g, labels)


def _ncut2(g, labels):
    """ncut2_value of A = the nodes labelled 0, A-bar = those labelled 1,
    scored as objective scores the same labels."""
    if labels.all() or not labels.any():
        raise DegenerateSubset("A must be a nonempty proper subset")
    try:
        return _labels_objective(g, labels, "ncut")
    except ZeroVolume:
        raise DegenerateSubset("both sides must have positive volume") from None


def solve_relaxed_2way(g):
    """Z = D^{-1/2} Y with Y the unit eigenvector of L_sym for nu_2: column 2
    of the K = 2 ncut relaxation, rescaled to Z^T D Z = 1."""
    z = solve_relaxed(g, 2, "ncut").Z[:, 1]
    return z / np.sqrt(z @ (degree_vector(g) * z))


def orient_sign(Z):
    """Flip Z when its positive side is more spread out than its negative
    side (compare each side against its own mean). Entries within rounding
    of zero belong to neither side, and a tie within rounding keeps Z.
    "Within rounding" is TIE_RTOL times max |Z|, so c Z (c > 0) decides as
    Z does."""
    Z = _as_z(Z)
    tol = eigen.TIE_RTOL * np.abs(Z).max(initial=0.0)

    def spread(side):
        return float(np.linalg.norm(Z[side] - Z[side].mean())) if side.any() else 0.0

    return -Z if spread(Z > tol) > spread(Z < -tol) + tol else Z


def round_2way(g, Z):
    """Discretize Z into a two-level indicator, deciding each zero entry by
    whether moving it to the positive side strictly reduces ||X - Z||.
    Entries and reductions within rounding of zero count as zero. The other
    side must have volume: DegenerateSubset if it starts without, and a
    move that would leave it without is skipped. Both tolerances are
    TIE_RTOL times the size of Z, so c Z (c > 0) gives the same partition
    and ncut, with X and the residual times c: Z can come at any scale.
    The zero entries are tried in index order, each against the indicator
    the moves before it left."""
    Z = _as_z(Z)
    d_vec = degree_vector(g)
    d = float(d_vec.sum())
    N = g.m
    norm_z = float(np.linalg.norm(Z))
    tol = eigen.TIE_RTOL * np.abs(Z).max(initial=0.0)
    if not (Z > tol).any() or not (Z < -tol).any():
        raise AllOneSide("Z must take both signs")

    def side(mask):
        """The indicator of A = mask with ||X|| = ||Z||, and its residual
        ||X - Z||; None when A-bar has no volume."""
        alpha = float(d_vec[mask].sum())
        if alpha >= d:
            return None
        beta = alpha / (d - alpha)
        n_a = int(mask.sum())
        X = TwoWayIndicator(a=float(norm_z / np.sqrt(n_a + beta * beta * (N - n_a))), beta=beta, assignment=mask)
        return X, float(np.linalg.norm(X.vector() - Z))

    best = side(Z > tol)
    if best is None:
        raise DegenerateSubset("both sides must have positive volume")
    for i in np.flatnonzero(np.abs(Z) <= tol):
        trial = best[0].assignment.copy()
        trial[i] = True
        moved = side(trial)
        if moved is not None and moved[1] < best[1] - eigen.TIE_RTOL * norm_z:
            best = moved

    X, residual = best
    labels = np.where(X.assignment, 0, 1)
    return TwoWayResult(partition=_blocks(labels, 2), ncut=_ncut2(g, labels), Z=Z, X=X, residual=residual)

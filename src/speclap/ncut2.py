"""Two-way normalized cut: objective, relaxation, sign orientation, and the
exact rounding of zero entries in the continuous solution."""

from dataclasses import dataclass

import numpy as np

from . import eigen
from .errors import AllOneSide, DegenerateSubset, ZeroVolume
from .graph import NodeSubset, degree_vector
from .kway import objective, solve_relaxed


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
    A = A if isinstance(A, NodeSubset) else NodeSubset(A, m=g.m)
    comp = NodeSubset(set(range(1, g.m + 1)) - A.members, m=g.m)
    if len(A) == 0 or len(comp) == 0:
        raise DegenerateSubset("A must be a nonempty proper subset")
    try:
        return objective(g, (A, comp), "ncut")
    except ZeroVolume:
        raise DegenerateSubset("both sides must have positive volume") from None


def solve_relaxed_2way(g):
    """Z = D^{-1/2} Y with Y the unit eigenvector of L_sym for nu_2."""
    return two_way_vector(g, solve_relaxed(g, 2, "ncut").Z)


def two_way_vector(g, Z):
    """Column 2 of a K = 2 ncut relaxation Z, rescaled to Z^T D Z = 1: the
    2-way vector D^{-1/2} Y with Y a unit eigenvector."""
    z = np.asarray(Z, dtype=float)[:, 1]
    return z / np.sqrt(z @ (degree_vector(g) * z))


def orient_sign(Z):
    """Flip Z when its positive side is more spread out than its negative
    side (compare each side against its own mean). Entries within rounding
    of zero belong to neither side, and a tie within rounding keeps Z."""
    Z = np.asarray(Z, dtype=float)
    tol = eigen.TIE_RTOL * np.abs(Z).max(initial=0.0)
    pos = Z > tol
    neg = Z < -tol
    res_pos = 0.0
    if pos.any():
        res_pos = float(np.linalg.norm(Z[pos] - Z[pos].mean()))
    res_neg = 0.0
    if neg.any():
        res_neg = float(np.linalg.norm(Z[neg] - Z[neg].mean()))
    if res_pos > res_neg + tol:
        return -Z
    return Z


def round_2way(g, Z):
    """Discretize Z into a two-level indicator, deciding each zero entry by
    whether moving it to the positive side strictly reduces ||X - Z||.
    Entries and reductions within rounding of zero count as zero. The other
    side must have volume: DegenerateSubset if it starts without, and a
    move that would leave it without is skipped."""
    Z = np.asarray(Z, dtype=float)
    d_vec = degree_vector(g)
    d = float(d_vec.sum())
    N = g.m
    norm_z = float(np.linalg.norm(Z))
    tol = eigen.TIE_RTOL * np.abs(Z).max(initial=0.0)
    pos = Z > tol
    zero = np.nonzero(np.abs(Z) <= tol)[0]
    if not pos.any() or not (Z < -tol).any():
        raise AllOneSide("Z must take both signs")

    def build(mask):
        n_a = int(mask.sum())
        alpha = float(d_vec[mask].sum())
        if alpha >= d:
            raise DegenerateSubset("both sides must have positive volume")
        beta = alpha / (d - alpha)
        a = norm_z / np.sqrt(n_a + beta * beta * (N - n_a))
        return a, beta, np.where(mask, a, -beta * a)

    a, beta, X = build(pos)
    for i in zero:
        trial = pos.copy()
        trial[i] = True
        try:
            ta, tbeta, tX = build(trial)
        except DegenerateSubset:
            continue
        if np.linalg.norm(tX - Z) < np.linalg.norm(X - Z) - eigen.TIE_RTOL * norm_z:
            pos, a, beta, X = trial, ta, tbeta, tX

    A = NodeSubset((np.nonzero(pos)[0] + 1).tolist(), m=N)
    comp = NodeSubset(set(range(1, N + 1)) - A.members, m=N)
    ind = TwoWayIndicator(a=float(a), beta=float(beta), assignment=pos)
    return TwoWayResult(
        partition=(A, comp),
        ncut=ncut2_value(g, A),
        Z=Z,
        X=ind,
        residual=float(np.linalg.norm(X - Z)),
    )

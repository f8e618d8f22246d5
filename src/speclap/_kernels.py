"""Hot numerical kernels: round-robin Jacobi eigensolver and one-sided Jacobi SVD.

The eigensolver is cyclic Jacobi in the round-robin parallel ordering of
Brent & Luk (1985): a sweep is a sequence of rounds, each holding up to n/2
disjoint (p, q) pairs, and all rotations of a round are applied together as
vectorised numpy row and column updates. The SVD is cyclic one-sided
Jacobi: it rotates one column pair at a time, each rotation one numpy
update of the pair's columns of A and V together. Nothing is compiled.
"""

import functools
import math

import numpy as np

# nothing is compiled; the flag stays only because perfbench/run.py records
# it with every run, and goes when that line does
USE_NUMBA = False


@functools.lru_cache(maxsize=32)
def round_robin_schedule(n):
    """Round-robin (Brent-Luk) ordering of the index pairs p < q of range(n).

    Returns one sweep as a tuple of rounds, each a (P, Q) pair of read-only
    index arrays with P < Q elementwise. The pairs of a round are disjoint,
    and every pair appears in exactly one round. Odd n is padded with a
    dummy index, which sits out one round each: n - 1 rounds for even n,
    n rounds for odd n.
    """
    m = n + n % 2
    rounds = []
    # circle method: index m - 1 stays put and meets x, the others pair up
    # symmetrically around x. Running x down from m - 2 makes a sweep for
    # n <= 3 the row-cyclic order (0, 1), (0, 2), (1, 2), so the small K x K
    # solves rotate exactly as the classic cyclic sweep does.
    for x in range(m - 2, -1, -1):
        pairs = [(x, m - 1)] + [((x - i) % (m - 1), (x + i) % (m - 1)) for i in range(1, m // 2)]
        pq = np.array([sorted(pr) for pr in pairs if max(pr) < n], dtype=np.intp).reshape(-1, 2)
        pq.setflags(write=False)
        rounds.append((pq[:, 0], pq[:, 1]))
    return tuple(rounds)


def _max_off_diagonal(A):
    return np.abs(A - np.diag(np.diag(A))).max()


def jacobi_eigen(A, V, tol, max_sweeps):
    """Round-robin Jacobi diagonalization of the symmetric matrix A, in place.

    V accumulates the rotations (must start as the identity). Returns the
    number of sweeps used, or -1 if the largest off-diagonal entry did not
    drop below tol * ||A||_F within max_sweeps.
    """
    n = A.shape[0]
    norm = np.sqrt((A * A).sum())
    if norm == 0.0 or n == 1:
        return 0
    thresh = tol * norm
    # A on top of V: one column update rotates both
    W = np.vstack((A, V))
    Aw = W[:n]
    for sweep in range(max_sweeps):
        if _max_off_diagonal(Aw) <= thresh:
            break
        for P, Q in round_robin_schedule(n):
            apq = Aw[P, Q]
            active = np.abs(apq) > thresh * 1e-4
            if not active.all():
                if not active.any():
                    continue
                P, Q, apq = P[active], Q[active], apq[active]
            # the pairs are disjoint, so no rotation of this round changes
            # another's angle: taking them all from the same A is exact
            theta = (Aw[Q, Q] - Aw[P, P]) / (2.0 * apq)
            t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            Xp, Xq = W[:, P], W[:, Q]
            W[:, P] = c * Xp - s * Xq
            W[:, Q] = s * Xp + c * Xq
            c, s = c[:, None], s[:, None]
            Yp, Yq = Aw[P], Aw[Q]
            Aw[P] = c * Yp - s * Yq
            Aw[Q] = s * Yp + c * Yq
    else:
        # final check after the last sweep
        sweep = max_sweeps if _max_off_diagonal(Aw) <= thresh else -1
    A[...] = Aw
    V[...] = W[n:]
    return sweep


def jacobi_svd(A, V, tol, max_sweeps):
    """One-sided cyclic Jacobi SVD on the columns of A (m x n, m >= n), in place.

    Columns of A are rotated until pairwise orthogonal; V (n x n, starts as
    identity) accumulates the right rotations so that input = A_out * V^T
    with A_out having orthogonal columns. Column p of A and column p of V
    are row p of one array T = [A^T | V^T], so one two-row update rotates
    both. Returns sweeps used or -1.
    """
    m, n = A.shape
    norm = float((A * A).sum())
    if norm == 0.0 or n == 1:
        return 0
    thresh = tol * tol * norm * norm  # compare against squared quantities
    T = np.hstack((A.T, V.T))
    Ta = T[:, :m]
    sweeps = -1
    for sweep in range(max_sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                ap, aq = Ta[p], Ta[q]
                alpha = float(ap @ ap)
                beta = float(aq @ aq)
                gamma = float(ap @ aq)
                if gamma * gamma <= thresh * 1e-12 or gamma * gamma <= tol * tol * alpha * beta:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = (1.0 if zeta >= 0.0 else -1.0) / (abs(zeta) + math.sqrt(zeta * zeta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                Tp, Tq = T[p], T[q]
                T[p], T[q] = c * Tp - s * Tq, s * Tp + c * Tq
        if not rotated:
            sweeps = sweep
            break
    A[...] = Ta.T
    V[...] = T[:, m:].T
    return sweeps

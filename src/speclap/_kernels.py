"""Hot numerical kernels: the tridiagonal eigensolver path and the one-sided
Jacobi SVD.

The SVD is cyclic one-sided Jacobi: it rotates one column pair at a time,
each rotation one numpy update of the pair's columns of A and V together.

Every symmetric eigensolve, full or partial, takes four stages (Golub &
Van Loan ch. 8, after LAPACK dsytrd, dstebz and dstein): Householder
tridiagonalisation with the reflectors stored, Sturm-count multisection for
the eigenvalues, inverse iteration on the tridiagonal matrix for the
vectors, and back-transformation by the reflectors. Inverse iteration runs
its O(n) recurrences (the shifted factorisation and each solve) one vector
at a time on Python floats: a Laplacian solve needs at most K + 1 vectors,
and across so few, one numpy call per row and step costs more in call
overhead than the arithmetic. That cost grows with the number of vectors:
at n = 120 the two forms break even near 40 vectors, and for all n vectors
(a full decomposition) the per-vector loops take about three times as long.
Nothing is compiled.

Round-robin Jacobi (`jacobi_eigen`, with `round_robin_schedule` and
`_max_off_diagonal`) is not called by the library. It stays because
perfbench/spans.py traces it by name (its TARGETS list), and the tests use
it as their independent full eigensolver; it goes once that entry does.
"""

import functools
import math

import numpy as np

# nothing is compiled; the flag stays only because perfbench/run.py looks it
# up by name and records it with every run, and goes when that line does
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
    drop below tol * ||A||_F within max_sweeps. No library code calls it:
    it is the tests' independent full-decomposition reference, and
    perfbench/spans.py traces it by name (TARGETS), so it stays until that
    entry goes.
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


def tridiagonalize(A):
    """Householder reduction Q^T A Q = T of the symmetric A, in place.

    Returns (d, e, V, tau): the diagonal and subdiagonal of T, and the
    reflectors H_j = I - tau_j v_j v_j^T with Q = H_0 H_1 ... H_{n-3}; row j
    of V holds v_j, which is zero in columns 0..j and 1 in column j + 1.
    Each column costs one matrix-vector product and one symmetric rank-2
    update of the trailing block (Golub & Van Loan 8.3.1, LAPACK dsytd2).
    A column whose entries below the subdiagonal are at most eps ||A||_F
    long is taken as reduced (tau = 0): dropping them is within the
    reduction's rounding, and no reflector mixes rows of unrelated size.
    """
    n = A.shape[0]
    negligible = np.finfo(float).eps * np.linalg.norm(A)
    d = np.empty(n)
    e = np.zeros(max(n - 1, 0))
    V = np.zeros((max(n - 2, 0), n))
    tau = np.zeros(max(n - 2, 0))
    work = np.empty(max(n - 1, 0) ** 2)  # the rank-2 updates, not one n^2 temporary each
    # the factors [v w] (m x 2) and [w; v] (2 x m) of each update
    left, right = np.empty(2 * max(n - 1, 0)), np.empty(2 * max(n - 1, 0))
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
        vw, wv = left[: 2 * m].reshape(m, 2), right[: 2 * m].reshape(2, m)
        vw[:, 0] = wv[1] = v
        vw[:, 1] = wv[0] = w
        B -= np.matmul(vw, wv, out=work[: m * m].reshape(m, m))
        e[j], tau[j] = beta, t
        V[j, j + 1 :] = v
    if n >= 2:
        d[n - 2], e[n - 2] = A[n - 2, n - 2], A[n - 2, n - 1]
    if n >= 1:
        d[n - 1] = A[n - 1, n - 1]
    return d, e, V, tau


def back_transform(V, tau, Z):
    """Q Z for the Q = H_0 ... H_{n-3} of tridiagonalize, in place on Z."""
    for j in range(len(tau) - 1, -1, -1):
        if tau[j]:
            v = V[j, j + 1 :]
            Zj = Z[j + 1 :]
            Zj -= (tau[j] * v)[:, None] * (v @ Zj)
    return Z


def sturm_counts(d, e2, x, pivmin):
    """Number of eigenvalues of the tridiagonal T = (d, e) below each shift
    in x: the negative pivots of the LDL^T factorisation of T - x I, all
    shifts in one pass of the recurrence.

    The pivots first run unguarded. In IEEE arithmetic a zero pivot makes
    the next one infinite and the count still right, provided a signed
    zero counts by its sign. Only 0/0, a zero pivot over a zero e_i, gives
    a NaN; then the pass is redone with dstebz's guard, which takes a pivot
    below pivmin in magnitude as -pivmin (LAPACK dlaneg, dlaebz).
    """
    q = d[:, None] - x
    rows = list(q)
    quotient = np.empty(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for e2i, prev, row in zip(e2.tolist(), rows, rows[1:]):
            np.subtract(row, np.divide(e2i, prev, out=quotient), out=row)
    if not np.isnan(q[-1]).any():
        return np.signbit(q).sum(axis=0)
    q = d[:, None] - x
    for i in range(len(d)):
        if i:
            q[i] -= e2[i - 1] / q[i - 1]
        q[i][np.abs(q[i]) < pivmin] = -pivmin
    return np.signbit(q).sum(axis=0)


MULTISECTION = 16  # Sturm-count shifts per open eigenvalue and pass


def tridiagonal_eigenvalues(d, e, first, stop):
    """Eigenvalues first..stop-1 (0-based, ascending) of the tridiagonal
    T = (d, e) by Sturm-count multisection (LAPACK dstebz).

    Every eigenvalue starts in T's Gershgorin interval. A pass evaluates
    MULTISECTION shifts per open eigenvalue, spread evenly over the distinct
    open intervals, in one run of the recurrence, and every eigenvalue then
    narrows to the tightest pair of shifts that still brackets it. An
    interval is closed once its width is below 4 eps ||T||; the eigenvalue
    is its midpoint.
    """
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
    index = np.arange(first, stop)[:, None]
    lo = np.full(stop - first, gl - fudge)
    hi = np.full(stop - first, gu + fudge)
    while True:
        live = hi - lo > width
        if not live.any():
            return 0.5 * (lo + hi)
        # eigenvalues sharing an interval share its shifts
        first_of = live.copy()
        first_of[1:] &= (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        a, b = lo[first_of], hi[first_of]
        m = MULTISECTION * int(live.sum()) // len(a)
        x = (a[:, None] + (b - a)[:, None] * (np.arange(1, m + 1) / (m + 1))).ravel()
        below = sturm_counts(d, e2, x, pivmin) <= index  # x <= eigenvalue j
        lo = np.maximum(lo, np.where(below, x, -np.inf).max(axis=1))
        hi = np.minimum(hi, np.where(below, np.inf, x).min(axis=1))


INVERSE_ITERATIONS = 5  # at most, per eigenvector (LAPACK dstein's MAXITS)
EXTRA_ITERATIONS = 2  # run after the growth test first passes (dstein's EXTRA)


def _start_vectors(n, m):
    """Deterministic start vectors: a Weyl sequence in (-1, 1), n x m."""
    i = np.arange(1, n * m + 1).reshape(m, n).T
    return 2.0 * (i * 0.6180339887498949 % 1.0) - 1.0


def _factor_shifted(d, e, lam, pivot_floor):
    """T - lam I = P L U for one shift, by Gaussian elimination with partial
    pivoting (LAPACK dlagtf), on Python floats: d and e are lists. Returns
    (a, b, c, mult, swap): the diagonal and two superdiagonals of U, the
    multipliers of L and the row interchanges. A zero pivot divides as 1;
    pivots below pivot_floor in magnitude are then raised to it, keeping
    their sign, and a NaN stays NaN."""
    n = len(d)
    a = [x - lam for x in d]
    b = list(e)
    c = [0.0] * max(n - 2, 0)
    mult = [0.0] * max(n - 1, 0)
    swap = [False] * max(n - 1, 0)
    for k in range(n - 1):
        # pivot between row k (a_k, b_k, 0) and row k + 1 (e_k, a_k+1, e_k+1)
        ek, ak = e[k], a[k]
        if abs(ek) > abs(ak):
            mk = ak / ek
            a[k], b[k], a[k + 1] = ek, a[k + 1], b[k] - mk * a[k + 1]
            if k < n - 2:
                c[k], b[k + 1] = e[k + 1], -mk * e[k + 1]
            swap[k] = True
        else:
            mk = ek / (ak if ak != 0.0 else 1.0)
            a[k + 1] -= mk * b[k]
        mult[k] = mk
    for k, x in enumerate(a):
        if abs(x) < pivot_floor:
            a[k] = -pivot_floor if x < 0.0 else pivot_floor
    return a, b, c, mult, swap


def _solve_shifted(factors, y):
    """Solve (T - lam I) x = y with the factors of _factor_shifted, in place
    on the list y (LAPACK dlagts)."""
    a, b, c, mult, swap = factors
    n = len(a)
    yk = y[0]  # row k after the eliminations so far
    for k in range(n - 1):
        yk1 = y[k + 1]
        if swap[k]:
            y[k], yk = yk1, yk - mult[k] * yk1
        else:
            y[k], yk = yk, yk1 - mult[k] * yk
    y[n - 1] = x1 = yk / a[n - 1]
    if n >= 2:
        y[n - 2] = x0 = (y[n - 2] - b[n - 2] * x1) / a[n - 2]
        for k in range(n - 3, -1, -1):
            x0, x1 = (y[k] - b[k] * x0 - c[k] * x1) / a[k], x0
            y[k] = x0
    return y


def tridiagonal_eigenvectors(d, e, lam):
    """Unit eigenvectors of the tridiagonal T = (d, e) for the ascending
    eigenvalues lam, by inverse iteration on T - lam_j I (LAPACK dstein).

    Each iteration scales the right-hand side to n ||T||_1 max(eps, |u_nn|)
    and solves; once the solution's largest entry reaches sqrt(0.1 / n) the
    vector has converged, and EXTRA_ITERATIONS more follow. Eigenvalues
    closer than 1e-3 ||T||_1 form a cluster, and each iterate is
    orthogonalised against the lower ones of its cluster. Pivots are kept
    at least eps ||T||_1 in magnitude. Returns the n x len(lam) vectors, or
    None if some vector never converged.

    The factorisation and the solves are O(n) recurrences, run one vector
    at a time on Python floats: with at most K + 1 vectors, one numpy call
    per row and step across all vectors cost more in call overhead than the
    arithmetic. Their cost grows with the number of vectors (at n = 120 the
    break-even is near 40), so many vectors run slower this way. Scaling,
    the re-orthogonalisation, the growth test and the normalisation stay
    numpy calls over all vectors.
    """
    n, m = len(d), len(lam)
    eps = np.finfo(float).eps
    onenrm = float((np.abs(d) + np.r_[0.0, np.abs(e)] + np.r_[np.abs(e), 0.0]).max())
    dl, el, floor = d.tolist(), e.tolist(), float(eps * onenrm)
    factors = [_factor_shifted(dl, el, x, floor) for x in lam.tolist()]
    rhs_scale = n * onenrm * np.maximum(eps, np.abs([a[n - 1] for a, *_ in factors]))
    breaks = np.flatnonzero(np.diff(lam) > 1e-3 * onenrm) + 1
    clusters = [(s, t) for s, t in zip(np.r_[0, breaks], np.r_[breaks, m]) if t - s > 1]
    X = _start_vectors(n, m)
    passed = np.zeros(m, dtype=np.intp)
    for _ in range(INVERSE_ITERATIONS):
        X *= rhs_scale / np.abs(X).max(axis=0)
        # column-major, as the start vectors are: a row-major X would change
        # the order in which (X * X).sum(axis=0) and the cluster products
        # add up, and with it the last bits of the vectors
        X = np.array([_solve_shifted(f, y) for f, y in zip(factors, X.T.tolist())]).T
        for s, t in clusters:
            for i in range(s + 1, t):
                B = X[:, s:i]
                for _ in range(2):
                    X[:, i] -= B @ ((B.T @ X[:, i]) / (B * B).sum(axis=0))
        passed += np.abs(X).max(axis=0) >= math.sqrt(0.1 / n)
        if (passed > EXTRA_ITERATIONS).all():
            break
    if not passed.all():
        return None
    return X / np.sqrt((X * X).sum(axis=0))

"""Hot numerical kernels: the stages of every symmetric eigensolve and the
one-sided Jacobi SVD. Nothing is compiled.

Every symmetric eigensolve, full or partial, takes four stages (Parlett,
The Symmetric Eigenvalue Problem, ch. 11 and 13; LAPACK dstebz and dstein
for the tridiagonal ones):

1. `lanczos`: the Lanczos reduction to tridiagonal form T_m = Q_m^T A Q_m,
   with full reorthogonalisation, resumable at any Krylov dimension m;
2. `tridiagonal_eigenvalues`: Sturm-count multisection (`sturm_counts`)
   for the eigenvalues of T_m until each is isolated, then safeguarded
   Newton on the same recurrence (`_newton`) to finish an isolated one;
   the caller takes an isolated eigenvalue from the Rayleigh quotient of
   its vector;
3. `tridiagonal_eigenvectors`: inverse iteration on T_m for the vectors Z;
4. `certify`: whether the Ritz pairs (Y = Q_m Z) are the smallest
   eigenpairs of A, by their residual and one Cholesky inertia test.

`jacobi_svd`, cyclic one-sided Jacobi on at most 5 columns, is the engine
of every SVD: it starts its own V = I and returns each column of A V with
the same column of V as one list of Python floats, together with the
squared norm it tracked for it, so its caller reads the singular values
without another pass. `jacobi_eigen`, round-robin Jacobi, is not called by
the library. Each function states the measurements and reasons behind its
form where it applies: the unit start vector of `lanczos`, the shift of
`certify`, and the recurrences on Python floats in `_newton` and
`tridiagonal_eigenvectors`.
"""

import functools
import math
from operator import mul

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


# jacobi_svd's negligible column: squared norm at most 1e-30 of another's,
# so norm at most 1e-15 of it (4.5 eps). A column is at most ||A||_2, so
# even five such together stay below the rank rule of
# eigen._jacobi_svd_sorted, 1e-14 of the largest singular value
NEGLIGIBLE = 1e-30


def jacobi_svd(A, tol, max_sweeps):
    """One-sided cyclic Jacobi SVD on the columns of A (m x n, m >= n):
    (T, sq, sweeps), with A untouched.

    The kernel starts V = I (n x n) and rotates the columns of A and of V
    together until those of A are pairwise orthogonal, so that input =
    (A V) V^T. T[p], a list of m + n floats, is column p of A V followed
    by column p of V, and sq[p] is the squared norm of its first m entries,
    sum(x * x for x in T[p][:m]) to the bit: the kernel recomputes it
    whenever a rotation changes the column. Pairs (p, q) run in row-cyclic
    order. A pair is skipped when gamma^2 <= tol^2 alpha beta, where alpha,
    beta and gamma are its squared norms and inner product, so |cos| <= tol
    whatever the columns' size and two small columns are rotated against
    each other as two large ones are. It is skipped too when one column's
    squared norm is at most NEGLIGIBLE times the other's: that column holds
    no more than the rounding of the rotations that made it, its cosine
    with the other is noise, and rotating them again only moves that noise
    (a rank-deficient square A would never converge). sweeps is the number
    of sweeps used (the sweep that rotates nothing ends it), or -1.
    A zero A or n <= 1 (n = 0 included) returns sweeps = 0 at once, with
    T holding A and the identity.

    Everything runs on Python floats: one list update of T[p] rotates a
    column of A and of V at once, and the dot products run over its first m
    entries. The library calls it on the triangular factor of a QR or on a
    square matrix, n <= 5 (eigen._jacobi_svd_sorted), where a numpy call
    per rotation costs more than the arithmetic.
    """
    m, n = A.shape
    T = [a + v for a, v in zip(A.T.tolist(), np.eye(n).tolist())]
    sq = [sum(map(mul, row[:m], row[:m])) for row in T]
    if n <= 1 or not any(sq):
        return T, sq, 0
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]  # the cyclic order
    for sweep in range(max_sweeps):
        rotated = False
        for p, q in pairs:
            Tp, Tq = T[p], T[q]
            alpha, beta = sq[p], sq[q]
            gamma = sum(map(mul, Tp[:m], Tq[:m]))
            if gamma * gamma <= tol * tol * alpha * beta or min(alpha, beta) <= NEGLIGIBLE * max(alpha, beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = (1.0 if zeta >= 0.0 else -1.0) / (abs(zeta) + math.sqrt(zeta * zeta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            Tp, Tq = [c * x - s * y for x, y in zip(Tp, Tq)], [s * x + c * y for x, y in zip(Tp, Tq)]
            T[p], T[q] = Tp, Tq
            sq[p] = sum(map(mul, Tp[:m], Tp[:m]))
            sq[q] = sum(map(mul, Tq[:m], Tq[:m]))
        if not rotated:
            return T, sq, sweep
    return T, sq, -1


def lanczos(A, Q, d, e, start, stop):
    """Steps start..stop-1 of the Lanczos reduction Q^T A Q = T of the
    symmetric n x n A, in place on Q (n x n), d (n) and e (n - 1), which
    enter as zeros (Parlett, The Symmetric Eigenvalue Problem, ch. 13). The
    first `stop` rows of Q are then orthonormal, and T = (d, e) is the
    tridiagonal form of A on them; at stop = n it is the whole reduction.

    Row j of Q is q_j. Step j orthogonalises w = A q_j against q_0 .. q_j
    by classical Gram-Schmidt run twice (full reorthogonalisation), adds
    both coefficients on q_j into d_j and writes q_j+1 = w / ||w|| into row
    j + 1, with e_j = ||w||: a later call resumes at start = this call's
    stop. The coefficients on q_0 .. q_j-1 are e_j-1 and rounding, and T
    drops them. Where ||w|| <= eps ||A||_F, the basis spans an invariant
    subspace to rounding: e_j = 0, so T splits there, and the reduction
    restarts. Every start, the first and each restart, is the unit vector
    with the largest part outside the basis (the first, on a tie: e_0 for
    q_0), orthogonalised twice against it. That part is at least
    1 / sqrt(n), since the squares of the n parts add up to n - j - 1 >= 1.
    A unit vector, not a dense one, starts the reduction: from e_0, T_n is
    in exact arithmetic the T of a Householder reduction from column 0, up
    to the signs of e (the implicit Q theorem, Golub & Van Loan 8.3.3), so
    a graded matrix's small entries stay apart from its large ones. On
    diag(logspace(0, -20, 12)) plus a 1e-22 perturbation, the five
    smallest eigenvectors agree with Jacobi's to 8e-14 from e_0, and only
    to 4e-8 from a dense start vector (_start_vectors).
    """
    n = A.shape[0]
    negligible = np.finfo(float).eps * np.linalg.norm(A)
    if start == 0 < stop:
        Q[0, 0] = 1.0
    for j in range(start, stop):
        B = Q[: j + 1]
        w = A @ Q[j]
        alpha = 0.0
        for _ in range(2):
            h = B @ w
            w -= h @ B
            alpha += float(h[j])
        d[j] = alpha
        if j + 1 == n:
            break
        beta = math.sqrt(float(w @ w))
        if beta <= negligible:
            w = np.zeros(n)
            w[np.argmax(1.0 - (B * B).sum(axis=0))] = 1.0
            for _ in range(2):
                w -= (B @ w) @ B
            beta = math.sqrt(float(w @ w))
        else:
            e[j] = beta
        np.divide(w, beta, out=Q[j + 1])


def certify(A, Y, theta):
    """Whether the Ritz pairs (theta, Y) of the symmetric n x n A, with the
    p columns of Y orthonormal to rounding, are its p smallest eigenpairs.

    The residual R = A Y - Y diag(theta) must be at most 8 eps ||A||_F in
    the Frobenius norm, and one Cholesky factorisation of
    A + 2 ||A||_F Y Y^T - sigma I must succeed, for sigma = max theta +
    ||R||_F + 8 (n + 1)^2 eps ||A||_F. Together they prove that no
    eigenvalue was missed:

    - Weyl's inequality: the update 2 ||A||_F Y Y^T is positive
      semidefinite of rank p, so the smallest eigenvalue of the factored
      matrix plus sigma is at most the (p + 1)-th smallest of A. The
      factorisation proves that it is above sigma, so at most p
      eigenvalues of A lie below sigma.
    - Kahan's residual bound (Parlett ch. 11): p eigenvalues of A lie
      within ||R||_2 <= ||R||_F of the theta, so below sigma.

    So A's p smallest eigenvalues are those p, each within ||R||_F of its
    Ritz value, and the next lies above sigma: the second zero of a
    disconnected graph, or the other half of a near-multiple pair, cannot
    be lost. The last term of sigma covers the rounding of ||R||_F, of
    forming the matrix and of the factorisation, whose backward error is
    at most n (n + 1) eps ||B||_2 (Higham, Accuracy and Stability of
    Numerical Algorithms, Thm. 10.3) with ||B||_2 <= 4 ||A||_F here. A
    failed factorisation proves nothing either way.
    """
    n = A.shape[0]
    eps = np.finfo(float).eps
    norm = float(np.linalg.norm(A))
    residual = float(np.linalg.norm(A @ Y - Y * theta))
    if residual > 8.0 * eps * norm:
        return False
    B = A + (2.0 * norm) * (Y @ Y.T)
    B.flat[:: n + 1] -= float(theta.max()) + residual + 8.0 * (n + 1) ** 2 * eps * norm
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return False
    return True


def sturm_counts(d, e2, x):
    """Number of eigenvalues of the tridiagonal T = (d, e) below each shift
    in x: the negative pivots of the LDL^T factorisation of T - x I, all
    shifts in one pass of the recurrence (LAPACK dlaneg).

    The one rule is IEEE arithmetic with a zero pivot counted by its sign:
    a zero pivot over a nonzero e_i makes the next pivot infinite and the
    count still right. Where e_i = 0, T splits into independent blocks and
    the next pivot is d_i+1 - x itself; skipping that division is the only
    place a 0/0 could arise, so no pivot is ever NaN and the counts are
    #(lambda < x) exactly, for a shift on an eigenvalue too.
    """
    # d + 0.0 turns a -0 on the diagonal into +0: then every zero pivot is
    # +0, and an eigenvalue of a 1 x 1 block that equals x is not below it
    q = (d + 0.0)[:, None] - x
    rows = list(q)
    quotient = np.empty(len(x))
    with np.errstate(divide="ignore"):
        for e2i, prev, row in zip(e2.tolist(), rows, rows[1:]):
            if e2i:
                np.subtract(row, np.divide(e2i, prev, out=quotient), out=row)
    return np.signbit(q).sum(axis=0)


def _one_norm(d, e):
    """||T||_1 of the symmetric tridiagonal T = (d, e): its largest
    absolute row sum."""
    s, ae = np.abs(d), np.abs(e)  # summed in place, in the order |d_i| + |e_i-1| + |e_i|
    s[1:] += ae
    s[:-1] += ae
    return float(s.max())


MULTISECTION = 16  # Sturm-count shifts per open eigenvalue and pass
# eigenvalues closer than CLUSTER_GAP ||T||_1 form one cluster of inverse
# iteration (dstein's ORTOL); one proven farther than that from every other
# is isolated
CLUSTER_GAP = 1e-3


def tridiagonal_eigenvalues(d, e, first, stop, guard=False):
    """Eigenvalues first..stop-1 (0-based, ascending) of the tridiagonal
    T = (d, e), and which of them are isolated: Sturm-count multisection
    (LAPACK dstebz) brackets each until it is isolated, and safeguarded
    Newton (_newton) then finishes it.

    Every eigenvalue starts in T's Gershgorin interval. A pass evaluates
    MULTISECTION shifts per open eigenvalue, spread evenly over the distinct
    open intervals, in one run of the recurrence, and every eigenvalue then
    narrows to the tightest pair of shifts that still brackets it. The
    brackets of neighbouring eigenvalues either coincide or hold no other
    eigenvalue between them, so the gap from a bracket to its neighbour's
    is a clearance the counts prove. The neighbours first - 1 and stop take
    no shifts of their own. While the clearance of the range's end from one
    of them is not proven, each pass adds one shift 2 CLUSTER_GAP ||T||_1
    beyond the end's bracket: once that bracket is within CLUSTER_GAP
    ||T||_1 of its eigenvalue, a gap of 3 CLUSTER_GAP ||T||_1 or more is
    proven at once. An eigenvalue below the first or above the last is
    infinitely far. Eigenvalue j is isolated, and takes no more shifts,
    once its clearance on both sides exceeds CLUSTER_GAP ||T||_1: its
    bracket then holds no other eigenvalue, and Newton on the same
    recurrence finishes it to rounding (Parlett, The Symmetric Eigenvalue
    Problem, ch. 3; MRRR finishes isolated eigenvalues the same way). Any
    other interval, in a cluster or a multiple eigenvalue, is closed at its
    midpoint once its width is below 4 eps ||T||.

    With guard, eigenvalue stop - 1 is wanted only to tell whether it ties
    with stop - 2: it stops, unfinished and not marked isolated, at its
    bracket's midpoint once its clearance from stop - 2 exceeds
    CLUSTER_GAP ||T||_1, a gap far wider than any tie. Returns the
    eigenvalues and the boolean isolated marks.
    """
    n = len(d)
    eps = np.finfo(float).eps
    e2 = e * e
    r = np.zeros(n)
    r[:-1] += np.abs(e)
    r[1:] += np.abs(e)
    gl, gu = float((d - r).min()), float((d + r).max())
    tnorm = max(abs(gl), abs(gu))
    fudge = 2.1 * (n * eps * tnorm)
    width = 4.0 * eps * tnorm
    gap = CLUSTER_GAP * _one_norm(d, e)
    j = np.arange(first - 1, stop + 1)
    index = j[:, None]
    lo = np.where(j < n, gl - fudge, np.inf)
    hi = np.where(j >= 0, gu + fudge, -np.inf)
    top = stop - first  # eigenvalue first + i - 1 sits at i in lo and hi
    while True:
        # the marks and intervals of the pass, on Python floats, as
        # tridiagonal_eigenvectors' recurrences and for the same reason
        lows, highs = lo.tolist(), hi.tolist()
        clear = [lower - upper for lower, upper in zip(lows[1:], highs)]
        isolated = [below > gap and above > gap for below, above in zip(clear, clear[1:])]
        live = [high - low > width and not mark for low, high, mark in zip(lows[1:], highs[1:], isolated)]
        if guard and top:
            isolated[-1] = False
            live[-1] = highs[top] - lows[top] > width and clear[top - 1] <= gap
        a, b = [], []
        for i in range(1, top + 1):
            # eigenvalues sharing an interval share its shifts
            if live[i - 1] and (i == 1 or lows[i] != lows[i - 1] or highs[i] != highs[i - 1]):
                a.append(lows[i])
                b.append(highs[i])
        if not a:
            break
        a, b = np.array(a)[:, None], np.array(b)[:, None]
        x = (a + (b - a) * _shift_fractions(MULTISECTION * sum(live) // len(a))).ravel()
        # a clearance at most the gap from a neighbour outside the range
        # (an absent one is infinitely far) takes one shift 2 gaps past it
        outside = []
        if clear[0] <= gap and live[0]:
            outside.append(lows[1] - 2.0 * gap)
        if clear[top] <= gap and live[-1] and not guard:
            outside.append(highs[top] + 2.0 * gap)
        if outside:
            x = np.concatenate((x, outside))
        below = sturm_counts(d, e2, x) <= index  # x <= eigenvalue j
        np.maximum(lo, np.where(below, x, -np.inf).max(axis=1), out=lo)
        np.minimum(hi, np.where(below, np.inf, x).min(axis=1), out=hi)
    lam = 0.5 * (lo[1:-1] + hi[1:-1])
    if any(isolated):
        dl, e2l = (d + 0.0).tolist(), [0.0] + e2.tolist()
        for i in (i for i, mark in enumerate(isolated) if mark):
            lam[i], _ = _newton(dl, e2l, first + i, lows[i + 1], highs[i + 1], min(clear[i], clear[i + 1]), width)
    return lam, np.array(isolated, dtype=bool)


def _newton(d, e2, j, lo, hi, clearance, width):
    """Eigenvalue j of the tridiagonal T = (d, e), the only one in its
    bracket [lo, hi) and farther than clearance from every other, by
    safeguarded Newton on det(T - x I) in Python floats; d and e2 are
    lists, e2 = [0] + e * e. Returns the eigenvalue and the number of
    steps, each one run of the recurrence.

    A step runs sturm_counts' recurrence at one x: the pivots q_i of the
    LDL^T factorisation of T - x I, in the same operations, and with them
    d/dx log |det(T - x I)| = sum q_i' / q_i, where q_i' = -1 +
    e_i-1^2 q_i-1' / q_i-1^2. Where e_i-1 = 0 the same operations give
    q_i = d_i - x and q_i' = -1, as for the first row. The number of
    negative pivots shows which side of the eigenvalue x lies on, and the
    bracket shrinks to x. The Newton step x - 1 / sum is taken where it
    lands inside the bracket and is at most half as long as the step
    before last; otherwise x moves to the bracket's midpoint (Numerical
    Recipes' rtsafe). A zero pivot is counted as sturm_counts counts it:
    over a nonzero e_i it makes the next pivot -inf and leaves no
    derivative, so that step bisects; where it ends a block of T (at
    e_i = 0, or at the last row) det(T - x I) is zero, and x is the
    eigenvalue.

    The sum is 1 / (x - lambda_j) plus at most (m - 1) / clearance from the
    m - 1 other eigenvalues, so a Newton step of length s leaves x within
    about m s^2 / clearance of lambda_j: the step is the last once that is
    below width, the closing width of multisection, or once the bracket
    itself is that narrow.
    """
    tol = math.sqrt(width * clearance / len(d))
    x = 0.5 * (lo + hi)
    old = older = hi - lo
    steps = 0
    while hi - lo > width:
        steps += 1
        try:
            count, total, q, t = 0, 0.0, 1.0, 0.0
            for di, e2i in zip(d, e2):
                r = e2i / q
                q = di - x - r
                t = (r * t - 1.0) / q
                total += t
                if q < 0.0:
                    count += 1
        except ZeroDivisionError:
            count, total, q = 0, math.nan, 1.0
            for di, e2i in zip(d, e2):
                if not e2i:
                    if not q:
                        return x, steps
                    q = di - x
                else:
                    q = di - x - e2i / q if q else -math.inf
                count += q < 0.0
            if not q:
                return x, steps
        if count <= j:
            lo = x
        else:
            hi = x
        y = x - 1.0 / total if total else math.nan
        if abs(y - x) <= tol:
            return min(max(y, lo), hi), steps
        if not (lo < y < hi and abs(y - x) <= 0.5 * abs(older)):
            y = 0.5 * (lo + hi)
        older, old, x = old, y - x, y
    return x, steps


@functools.lru_cache(maxsize=32)
def _shift_fractions(m):
    """The fractions 1/(m + 1) .. m/(m + 1) at which a pass puts its m
    shifts into an interval (read-only)."""
    fractions = np.arange(1, m + 1) / (m + 1)
    fractions.setflags(write=False)
    return fractions


INVERSE_ITERATIONS = 5  # at most, per eigenvector (LAPACK dstein's MAXITS)
# run after the growth test first passes (dstein's EXTRA is 2), one more for
# a vector of a cluster
EXTRA_ITERATIONS = 1


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
    closer than CLUSTER_GAP ||T||_1 form a cluster, and each iterate is
    orthogonalised against the lower ones of its cluster; a cluster's
    vectors take one iteration more, since their shifts do not tell them
    apart and each iteration's re-orthogonalisation does. An eigenvalue
    that tridiagonal_eigenvalues isolated is proven farther than that from
    every other, so it is never in one, and Newton gave its shift to
    rounding: the one solve after the growth test converges the vector,
    and smallest_k then takes the Rayleigh quotient of the vector as the
    eigenvalue. Pivots are kept at least eps ||T||_1 in magnitude. Returns
    the n x len(lam) vectors, or None if some vector never converged.

    The factorisation and the solves are O(n) recurrences, run one vector
    at a time on Python floats: with at most K + 1 vectors, one numpy call
    per row and step across all vectors cost more in call overhead than the
    arithmetic. Their cost grows with the number of vectors, so many
    vectors run slower this way: at n = 120 the two forms break even near
    40 vectors, and for all n vectors (a full decomposition) the per-vector
    loops take about three times as long. Scaling,
    the re-orthogonalisation, the growth test and the normalisation stay
    numpy calls over all vectors.
    """
    n, m = len(d), len(lam)
    eps = np.finfo(float).eps
    onenrm = _one_norm(d, e)
    dl, el, floor = d.tolist(), e.tolist(), float(eps * onenrm)
    factors = [_factor_shifted(dl, el, x, floor) for x in lam.tolist()]
    rhs_scale = n * onenrm * np.maximum(eps, np.abs([a[n - 1] for a, *_ in factors]))
    breaks = np.flatnonzero(np.diff(lam) > CLUSTER_GAP * onenrm) + 1
    clusters = [(s, t) for s, t in zip(np.r_[0, breaks], np.r_[breaks, m]) if t - s > 1]
    X = _start_vectors(n, m)
    extra = np.full(m, EXTRA_ITERATIONS)
    for s, t in clusters:
        extra[s:t] += 1
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
        if (passed > extra).all():
            break
    if not passed.all():
        return None
    return X / np.sqrt((X * X).sum(axis=0))

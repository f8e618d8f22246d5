"""The eigensolver (the tridiagonal smallest_k, and sym_eigen on top of it),
the Gram eigensolve of the rounding, SVD and the variational property
suite."""

import warnings

import numpy as np
import pytest

import speclap as sp
from speclap import _kernels
from speclap.errors import NoConvergence, NotSymmetric, ZeroVector

from conftest import (
    L1BAR,
    L1BAR_EIGENVALUES,
    _reference_factor_shifted,
    complete,
    jacobi_gram_eigen,
    jacobi_sym_eigen,
    one_rotation_at_a_time,
    random_connected,
    random_orthonormal,
    reference_sturm_counts,
    reference_tridiagonal_eigenvectors,
    reference_tridiagonalize,
    ring,
    row_cyclic_jacobi,
    scalar_jacobi_svd,
)


def random_symmetric(rng, n):
    A = rng.standard_normal((n, n))
    return 0.5 * (A + A.T)


class TestSymEigen:
    def test_identity(self):
        eig = sp.sym_eigen(np.eye(3))
        assert np.allclose(eig.values, [1, 1, 1])
        assert np.allclose(eig.vectors @ eig.vectors.T, np.eye(3), atol=1e-12)

    def test_ring_double_eigenvalue(self):
        L = sp.laplacian(ring(12), "unnormalized").M
        vals = sp.sym_eigen(L).values
        assert vals[1] == pytest.approx(0.2679, abs=5e-4)
        assert vals[2] == pytest.approx(vals[1], abs=1e-10)
        assert vals[3] > vals[2] + 1e-6
        assert vals[-1] == pytest.approx(4.0, abs=1e-10)

    def test_signed_reference_spectrum(self):
        vals = sp.sym_eigen(L1BAR).values
        assert np.allclose(vals, L1BAR_EIGENVALUES, atol=5e-4)

    def test_residual_and_orthogonality(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 12))
            S = random_symmetric(rng, n)
            eig = sp.sym_eigen(S)
            assert np.allclose(eig.vectors.T @ eig.vectors, np.eye(n), atol=1e-10)
            assert np.allclose(S @ eig.vectors, eig.vectors * eig.values, atol=1e-9 * max(np.linalg.norm(S), 1.0))
            assert np.all(np.diff(eig.values) >= -1e-12)

    def test_matches_numpy(self, rng):
        S = random_symmetric(rng, 15)
        assert np.allclose(sp.sym_eigen(S).values, np.linalg.eigvalsh(S), atol=1e-9)

    def test_empty(self):
        eig = sp.sym_eigen(np.zeros((0, 0)))
        assert eig.values.shape == (0,) and eig.vectors.shape == (0, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sp.sym_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            sp.sym_eigen(np.zeros((2, 3)))

    def test_sign_convention(self, rng):
        S = random_symmetric(rng, 6)
        V = sp.sym_eigen(S).vectors
        for k in range(6):
            assert V[np.argmax(np.abs(V[:, k])), k] > 0


class TestNonFiniteInput:
    """A NaN or infinite entry is refused with a ValueError before any work,
    and without a numpy RuntimeWarning on the way."""

    @pytest.fixture(autouse=True)
    def no_kernels(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a kernel ran on a non-finite matrix")

        for name in ("jacobi_svd", "tridiagonalize"):
            monkeypatch.setattr(sp.eigen, name, no_work)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_rejected(self, bad, symmetric):
        S = sp.laplacian(ring(6), "sym").M.copy()
        S[1, 2] = bad
        if symmetric:
            S[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solves = (sp.sym_eigen, lambda M: sp.smallest_k(M, 2), sp.svd, lambda M: sp.svd(M[:, :4]),
                      lambda M: sp.init_rotation_R1(M[:, :3]))
            for solve in solves:
                with pytest.raises(ValueError, match="non-finite"):
                    solve(S)


class TestSVD:
    def test_diagonal(self):
        res = sp.svd(np.diag([3.0, 2.0]))
        assert np.allclose(res.S, [3.0, 2.0])
        assert np.allclose(np.abs(res.U), np.eye(2), atol=1e-12)

    def test_complete_graph_normalized_incidence(self):
        g = complete(12)
        d = sp.degree_vector(g)
        B = sp.incidence_matrix(sp.orient(g)).B
        Bsym = B / np.sqrt(d)[:, None]
        s = sp.svd(Bsym).S
        target = np.sqrt(12.0 / 11.0)  # 1.0445
        assert target == pytest.approx(1.0445, abs=5e-5)
        assert np.sum(np.abs(s - target) < 5e-4) == 11

    def test_rank_one(self, rng):
        u = rng.standard_normal(4)
        v = rng.standard_normal(3)
        res = sp.svd(np.outer(u, v))
        assert res.S[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-10)
        assert np.allclose(res.S[1:], 0.0, atol=1e-10)

    def test_reconstruction_all_shapes(self, rng):
        for m, n in [(5, 3), (3, 5), (4, 4), (1, 6), (6, 1)]:
            M = rng.standard_normal((m, n))
            res = sp.svd(M)
            S = np.zeros((m, n))
            S[: min(m, n), : min(m, n)] = np.diag(res.S)
            assert np.allclose(res.U @ S @ res.V.T, M, atol=1e-9 * max(np.linalg.norm(M), 1.0))
            assert np.allclose(res.U.T @ res.U, np.eye(m), atol=1e-10)
            assert np.allclose(res.V.T @ res.V, np.eye(n), atol=1e-10)
            assert np.all(np.diff(res.S) <= 1e-12)
            assert np.all(res.S >= 0)

    @pytest.mark.parametrize("m,n", [(0, 0), (3, 0), (0, 3)])
    def test_empty(self, m, n):
        res = sp.svd(np.zeros((m, n)))
        assert res.U.shape == (m, m) and res.S.shape == (0,) and res.V.shape == (n, n)

    def test_matches_numpy_singular_values(self, rng):
        M = rng.standard_normal((8, 5))
        assert np.allclose(sp.svd(M).S, np.linalg.svd(M, compute_uv=False), atol=1e-9)


def _svd_oracle_matrices():
    """(name, M) pairs: the shapes the pipeline uses, incidence matrices and
    rank-deficient cases."""
    rng = np.random.default_rng(1601)
    shapes = [(1, 6), (6, 1), (2, 2), (3, 3), (4, 4), (5, 5), (12, 3), (48, 3), (120, 4), (3, 5)]
    cases = [(f"random-{m}x{n}", rng.standard_normal((m, n))) for m, n in shapes]
    for name, g in (("ring12", ring(12)), ("complete12", complete(12))):
        cases.append((f"incidence-{name}", sp.incidence_matrix(sp.orient(g)).B))
    # seed 15 leaves the solver's null-space columns with a negative
    # largest entry, so the sign rule has a flip to make
    low = np.random.default_rng(15)
    R2 = low.standard_normal((5, 2)) @ low.standard_normal((2, 4))
    # column 0 within 1e-6 of e_0: e_0 lies almost in the span of U's first
    # columns, and completing U with it would lose orthogonality
    near = rng.standard_normal((12, 3))
    near[:, 0] = np.concatenate(([1.0], 1e-6 * rng.standard_normal(11)))
    cases += [
        ("near-unit-column-12x3", near),
        ("rank1-4x3", np.outer(rng.standard_normal(4), rng.standard_normal(3))),
        ("rank2-5x4", R2),
        ("rank2-4x5", R2.T),
        ("zero-3x2", np.zeros((3, 2))),
    ]
    return cases


SVD_ORACLE_CASES = _svd_oracle_matrices()


class TestSVDOracle:
    """svd against numpy.linalg.svd: full U (m x m) and V (n x n), and the
    sign rule of sym_eigen on the columns that are free to flip."""

    @pytest.mark.parametrize("name,M", SVD_ORACLE_CASES, ids=[c[0] for c in SVD_ORACLE_CASES])
    def test_against_numpy_svd(self, name, M):
        m, n = M.shape
        # one-sided Jacobi stops once every column pair has cosine at most
        # DEFAULT_TOL, so each figure is off by at most a few such terms;
        # the columns that complete U are orthogonal to rounding
        eps = np.finfo(float).eps
        bound = max(m, n) * (sp.eigen.DEFAULT_TOL + 64 * eps)
        ortho = sp.eigen.DEFAULT_TOL + 64 * max(m, n) * eps
        scale = max(np.linalg.norm(M), np.finfo(float).tiny)
        res = sp.svd(M)
        ref = np.linalg.svd(M, compute_uv=False)
        assert res.U.shape == (m, m) and res.V.shape == (n, n)
        assert np.max(np.abs(res.S - ref)) <= bound * scale
        S = np.zeros((m, n))
        S[: min(m, n), : min(m, n)] = np.diag(res.S)
        assert np.max(np.abs(res.U @ S @ res.V.T - M)) <= bound * scale
        assert np.max(np.abs(res.U.T @ res.U - np.eye(m))) <= ortho
        assert np.max(np.abs(res.V.T @ res.V - np.eye(n))) <= ortho
        # the sign rule orients every column of the taller factor and the
        # null-space columns of the other; the rest follow their pairs
        rank = int(np.count_nonzero(res.S))
        assert rank == np.linalg.matrix_rank(M)
        tall, other = (res.U, res.V) if m >= n else (res.V, res.U)
        assert np.all(sp.eigen._column_signs(tall) == 1.0)
        assert np.all(sp.eigen._column_signs(other[:, rank:]) == 1.0)


class TestRayleighSmallestK:
    def test_eigenvector_gives_eigenvalue(self, rng):
        S = random_symmetric(rng, 5)
        eig = sp.sym_eigen(S)
        assert sp.rayleigh(S, eig.vectors[:, 2]) == pytest.approx(eig.values[2], abs=1e-9)

    def test_ones_on_laplacian(self, rng):
        from conftest import random_connected
        g = random_connected(rng, 6)
        L = sp.laplacian(g, "unnormalized").M
        assert sp.rayleigh(L, np.ones(6)) == pytest.approx(0.0, abs=1e-12)

    def test_diag_average(self):
        assert sp.rayleigh(np.diag([1.0, 3.0]), np.array([1.0, 1.0])) == pytest.approx(2.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            sp.rayleigh(np.eye(2), np.zeros(2))

    def test_smallest_k_full(self, rng):
        S = random_symmetric(rng, 5)
        vals, vecs = sp.smallest_k(S, 5)
        eig = jacobi_sym_eigen(S)
        assert np.allclose(vals, eig.values)
        assert np.allclose(vecs, eig.vectors)

    def test_smallest_k_complete_graph(self):
        Lsym = sp.laplacian(complete(12), "sym").M
        vals, _ = sp.smallest_k(Lsym, 2)
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert vals[1] == pytest.approx(12.0 / 11.0, abs=1e-8)

    def test_smallest_k_kernel_vector(self, rng):
        from conftest import random_connected
        g = random_connected(rng, 6)
        vals, vecs = sp.smallest_k(sp.laplacian(g, "unnormalized").M, 1)
        assert vals[0] == pytest.approx(0.0, abs=1e-9)
        v = vecs[:, 0]
        assert np.allclose(v, v.mean(), atol=1e-8)

    def test_smallest_k_out_of_range(self):
        with pytest.raises(ValueError):
            sp.smallest_k(np.eye(3), 4)


class TestVariationalProperties:
    def test_rayleigh_ritz_min_max(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 8))
            S = random_symmetric(rng, n)
            eig = sp.sym_eigen(S)
            X = rng.standard_normal((10000, n))
            X /= np.linalg.norm(X, axis=1, keepdims=True)
            quot = np.einsum("ij,jk,ik->i", X, S, X)
            assert quot.min() >= eig.values[0] - 1e-9
            assert quot.max() <= eig.values[-1] + 1e-9
            assert sp.rayleigh(S, eig.vectors[:, 0]) == pytest.approx(eig.values[0], abs=1e-9)
            assert sp.rayleigh(S, eig.vectors[:, -1]) == pytest.approx(eig.values[-1], abs=1e-9)

    def test_poincare_interlacing(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            k = int(rng.integers(1, n))
            A = random_symmetric(rng, n)
            R = random_orthonormal(rng, n, k)
            lam = sp.sym_eigen(A).values
            mu = sp.sym_eigen(R.T @ A @ R).values
            for i in range(k):
                assert lam[i] - 1e-9 <= mu[i] <= lam[n - k + i] + 1e-9

    def test_trace_bounds(self, rng):
        for _ in range(10):
            n, k = 7, 3
            A = random_symmetric(rng, n)
            R = random_orthonormal(rng, n, k)
            lam = sp.sym_eigen(A).values
            tr = float(np.trace(R.T @ A @ R))
            assert lam[:k].sum() - 1e-9 <= tr <= lam[-k:].sum() + 1e-9

    def test_courant_fischer_spot_check(self, rng):
        n, k = 6, 3
        S = random_symmetric(rng, n)
        eig = sp.sym_eigen(S)
        basis = eig.vectors[:, :k]
        C = rng.standard_normal((10000, k))
        X = C @ basis.T
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        X = np.vstack([X, eig.vectors[:, k - 1]])  # the maximizer itself
        quot = np.einsum("ij,jk,ik->i", X, S, X)
        assert quot.max() == pytest.approx(eig.values[k - 1], abs=1e-9)

    def test_svd_eigen_consistency(self, rng):
        M = rng.standard_normal((6, 4))
        s = sp.svd(M).S
        vals = sp.sym_eigen(M.T @ M).values
        assert np.allclose(np.sort(s ** 2), vals, atol=1e-8)


def _with_spectrum(rng, values):
    Q = random_orthonormal(rng, len(values), len(values))
    S = (Q * values) @ Q.T
    return 0.5 * (S + S.T)


def _oracle_matrices():
    """(name, S) pairs: degenerate, clustered, graded and random spectra."""
    rng = np.random.default_rng(1985)
    cases = [
        ("ring12", sp.laplacian(ring(12), "unnormalized").M),
        ("complete12-sym", sp.laplacian(complete(12), "sym").M),
        # one eigenvalue 119 times over: a tie group of more than 11 vectors
        ("complete120-sym", sp.laplacian(complete(120), "sym").M),
        # Z^T Z of an rcut relaxation: a scaled identity
        ("scaled-identity-3", (1e4 / 3) * np.eye(3)),
        ("scaled-identity-4", 2500.0 * np.eye(4)),
        ("block-repeated-12", _with_spectrum(rng, np.repeat(rng.standard_normal(4), 3))),
        ("block-diagonal-12", np.kron(np.eye(3), random_symmetric(rng, 4))),
        ("clustered-48", _with_spectrum(
            rng, np.repeat([-1.0, 0.5, 2.0, 3.0], 12) + 1e-9 * rng.standard_normal(48))),
        ("graded-48", _with_spectrum(rng, np.logspace(0, -14, 48) * rng.choice([-1, 1], 48))),
        ("graded-diagonal-12", np.diag(np.logspace(0, -20, 12)) + 1e-22 * random_symmetric(rng, 12)),
    ]
    for n in (1, 2, 3, 12, 48, 120, 250):
        cases.append((f"random-{n}", random_symmetric(rng, n)))
    return cases


ORACLE_CASES = _oracle_matrices()
_SOLVES = {}  # (solver, name) -> solver(S): one solve per solver and oracle matrix


def _solved(solver, name, S):
    if (solver, name) not in _SOLVES:
        _SOLVES[solver, name] = solver(S)
    return _SOLVES[solver, name]


class TestNumpyOracle:
    """sym_eigen against numpy.linalg.eigh on hard spectra, n = 1 .. 250."""

    @pytest.mark.parametrize("name,S", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_against_eigh(self, name, S):
        n = S.shape[0]
        # the solve is backward stable: errors of a few ulps of ||S|| per
        # index. The bound also admits DEFAULT_TOL * ||S||_F per index, the
        # accuracy the tie groups assume of any solver here (Weyl).
        scale = max(np.linalg.norm(S), np.finfo(float).tiny)
        bound = n * (sp.eigen.DEFAULT_TOL + 64 * np.finfo(float).eps) * scale
        eig = _solved(sp.sym_eigen, name, S)
        ref = np.linalg.eigh(S).eigenvalues
        assert np.max(np.abs(eig.values - ref)) <= bound
        residual = np.linalg.norm(S @ eig.vectors - eig.vectors * eig.values, axis=0)
        assert np.max(residual) <= bound
        ortho = np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n)))
        assert ortho <= 64 * n * np.finfo(float).eps


SMALLEST_K_CASES = [
    (name, S, k) for name, S in ORACLE_CASES for k in sorted({1, min(2, len(S)), min(5, len(S))})
]


def planted_laplacian(rng, n, blocks=4):
    """Normalised Laplacian of a seeded connected graph with planted blocks
    (the matrix of benchmarks/bench_eigen.py)."""
    labels = np.arange(n) * blocks // n
    same = labels[:, None] == labels[None, :]
    W = np.where(rng.random((n, n)) < np.where(same, 0.5, 0.05), rng.uniform(0.5, 1.5, (n, n)), 0.0)
    W = np.triu(W, 1)
    W = W + W.T
    W[np.arange(n - 1), np.arange(1, n)] = W[np.arange(1, n), np.arange(n - 1)] = 1.0
    return sp.laplacian(sp.Graph(W), "sym").M


def _check_against_eigh(S, vals, vecs):
    """TestNumpyOracle's bounds: eigenvalues and residuals within
    n (DEFAULT_TOL + 64 eps) ||S||_F, orthogonality within 64 n eps."""
    n, k = vecs.shape
    eps = np.finfo(float).eps
    scale = max(np.linalg.norm(S), np.finfo(float).tiny)
    bound = n * (sp.eigen.DEFAULT_TOL + 64 * eps) * scale
    ref = np.linalg.eigh(S)
    assert vals.shape == (k,)
    assert np.max(np.abs(vals - ref.eigenvalues[:k])) <= bound
    assert np.max(np.linalg.norm(S @ vecs - vecs * vals, axis=0)) <= bound
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 64 * n * eps
    return ref


class TestSmallestKOracle:
    """smallest_k (Householder, Sturm multisection, inverse iteration)
    against numpy.linalg.eigh, against the first k columns of sym_eigen
    (smallest_k with k = n) and against those of the Jacobi reference, a
    solver that shares nothing with the tridiagonal path but the tie groups,
    canonical basis and sign rule."""

    @pytest.mark.parametrize("name,S,k", SMALLEST_K_CASES, ids=[f"{c[0]}-k{c[2]}" for c in SMALLEST_K_CASES])
    def test_against_eigh_and_sym_eigen(self, name, S, k):
        vals, vecs = sp.smallest_k(S, k)
        ref = _check_against_eigh(S, vals, vecs)
        if name == "clustered-48":
            # its lowest 12 eigenvalues lie 1e-10 ||S|| apart: not a tie,
            # yet too close for any solver to pin a vector better than
            # eps ||S|| / 1e-10 ~ 1e-5. Their span is pinned (the next
            # eigenvalue is 1.5 away), so the vectors must lie in it.
            C = ref.eigenvectors[:, :12]
            assert np.max(np.abs(vecs - C @ (C.T @ vecs))) <= 1e-10
        else:
            for full in (_solved(sp.sym_eigen, name, S), _solved(jacobi_sym_eigen, name, S)):
                assert np.max(np.abs(vecs - full.vectors[:, :k])) <= 1e-10

    @pytest.mark.parametrize("name,k", [("complete12-sym", 2), ("ring12", 2), ("ring12", 3)])
    def test_tie_group_cut_by_k(self, name, k):
        # k = 2 cuts a multiple eigenvalue (ring12: a pair, complete12: 11
        # copies); ring12 at k = 3 ends exactly where the pair does
        S = dict(ORACLE_CASES)[name]
        full = sp.sym_eigen(S)
        tie = sp.eigen.DEFAULT_TOL * np.linalg.norm(S)
        assert full.values[k - 1] - full.values[1] <= tie
        assert (full.values[k] - full.values[1] <= tie) == (k == 2)
        vals, vecs = sp.smallest_k(S, k)
        assert np.max(np.abs(vals - full.values[:k])) <= tie
        assert np.max(np.abs(vecs - full.vectors[:, :k])) <= 1e-12

    @pytest.mark.parametrize("n", [500, 1000])
    def test_planted_large(self, n):
        S = planted_laplacian(np.random.default_rng(n), n)
        vals, vecs = sp.smallest_k(S, 5)
        ref = _check_against_eigh(S, vals, vecs)
        # the lowest five are simple: eigh's vectors under the sign rule
        V = ref.eigenvectors[:, :5]
        assert np.max(np.abs(vecs - V * sp.eigen._column_signs(V))) <= 1e-10


def _tridiagonal_case(kind, n, m):
    """(d, e, lam): a seeded tridiagonal T and m ascending shifts on its
    spectrum. split: e_i = 0 mid-way; zero-pivot: e_0 = 0 and a shift
    exactly on d_0, so the first pivot is 0; cluster: every eigenvalue
    within 1e-4 of 1 while ||T|| is about 1."""
    rng = np.random.default_rng(1000 * n + m)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if kind == "split":
        e[n // 2] = 0.0
    elif kind == "zero-pivot":
        e[0] = 0.0
    elif kind == "cluster":
        d, e = 1.0 + 1e-5 * rng.random(n), 1e-6 * e
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    if kind == "zero-pivot":
        # T splits after row 0, so d_0 is an eigenvalue exactly
        return d, e, np.sort(np.r_[d[0], np.linalg.eigvalsh(T[1:, 1:])[: m - 1]])
    return d, e, np.linalg.eigvalsh(T)[:m]


TRIDIAGONAL_CASES = (
    [("random", n, n) for n in (1, 2, 3)]
    + [("random", 12, m) for m in range(1, 9)]
    + [("random", 120, m) for m in (1, 5, 8)]
    + [("split", 12, 4), ("split", 120, 6), ("zero-pivot", 12, 3), ("zero-pivot", 48, 1)]
    + [("cluster", 12, 6), ("cluster", 120, 8)]
)


class TestTridiagonalKernels:
    @pytest.mark.parametrize("kind,n,m", TRIDIAGONAL_CASES, ids=[f"{k}-n{n}-m{m}" for k, n, m in TRIDIAGONAL_CASES])
    def test_eigenvectors_match_vectorised_reference(self, kind, n, m):
        # the per-vector recurrences run the reference's operations in its
        # order, so the vectors agree to the bit
        d, e, lam = _tridiagonal_case(kind, n, m)
        if kind == "zero-pivot":
            assert e[0] == 0.0 and lam[np.searchsorted(lam, d[0])] == d[0]
        if kind == "cluster":
            assert np.ptp(lam) < 1e-3 * np.abs(d).max()
        ref = reference_tridiagonal_eigenvectors(d, e, lam)
        assert ref is not None
        assert np.array_equal(_kernels.tridiagonal_eigenvectors(d, e, lam), ref)

    @pytest.mark.parametrize("d0, e0", [(0.0, 0.0), (-0.0, 0.0), (np.nan, 0.5), (-1e-20, 0.0), (1e-20, 1e-30)])
    def test_pivot_rules_match_reference(self, d0, e0):
        # a zero or -0 pivot divides as 1, a pivot below the floor becomes
        # the floor with its sign, and a NaN pivot stays NaN
        d, e = np.array([d0, 1.0, 2.0, 0.5]), np.array([e0, 0.5, 0.25])
        got = _kernels._factor_shifted(d.tolist(), e.tolist(), 0.0, 1e-3)
        ref = _reference_factor_shifted(d, e, np.zeros(1), 1e-3)
        for g, r in zip(got, ref):
            g, r = np.array(g, dtype=float), r[:, 0].astype(float)
            assert np.array_equal(g, r, equal_nan=True) and np.array_equal(np.signbit(g), np.signbit(r))

    @pytest.mark.parametrize("n", [1, 2, 12, 120])
    def test_sturm_counts_match_reference(self, n):
        rng = np.random.default_rng(n)
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        e2 = e * e
        pivmin = np.finfo(float).tiny * max(1.0, float(e2.max(initial=0.0)))
        x = np.r_[np.sort(rng.uniform(-4.0, 4.0, 3 * n + 5)), d[0]]
        assert np.array_equal(_kernels.sturm_counts(d, e2, x, pivmin), reference_sturm_counts(d, e2, x, pivmin))

    def test_sturm_counts_guarded_pass_matches_reference(self):
        # a zero pivot over a zero e_i: 0/0, so both redo the pass guarded
        d, e2, x = np.array([1.0, 1.0, 3.0]), np.zeros(2), np.array([0.5, 1.0, 2.0, 4.0])
        tiny = np.finfo(float).tiny
        with np.errstate(divide="ignore", invalid="ignore"):
            assert np.array_equal(_kernels.sturm_counts(d, e2, x, tiny), reference_sturm_counts(d, e2, x, tiny))

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 120])
    def test_tridiagonalize_matches_reference(self, n):
        rng = np.random.default_rng(n)
        # a random matrix, and a block-diagonal one: the last column of
        # each block is already reduced (tau = 0)
        for S in (random_symmetric(rng, n), np.kron(np.eye(3), random_symmetric(rng, -(-n // 3)))):
            A, B = S.copy(), S.copy()
            got, ref = _kernels.tridiagonalize(A), reference_tridiagonalize(B)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))
            assert np.array_equal(A, B)

    def test_sturm_counts_against_eigvalsh(self):
        rng = np.random.default_rng(7)
        d, e = rng.standard_normal(9), rng.standard_normal(8)
        lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        x = np.linspace(lam[0] - 1.0, lam[-1] + 1.0, 101)
        counts = _kernels.sturm_counts(d, e * e, x, np.finfo(float).tiny)
        assert counts.tolist() == [int(np.count_nonzero(lam < xi)) for xi in x]

    @pytest.mark.parametrize("d, e, x, low, high", [
        # a zero pivot over a nonzero e_i: the next pivot is -inf
        ([1.0, 1.0, 1.0], [1.0, 1.0], [1.0], [1], [2]),
        # a zero pivot over a zero e_i: 0/0, so the guarded pass runs
        ([1.0, 1.0, 3.0], [0.0, 0.0], [0.5, 1.0, 2.0, 4.0], [0, 0, 2, 3], [0, 2, 2, 3]),
    ])
    def test_sturm_counts_zero_pivots(self, d, e, x, low, high):
        # a shift on an eigenvalue may count it or not; any other is exact
        d, e, x = np.array(d), np.array(e), np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _kernels.sturm_counts(d, e * e, x, np.finfo(float).tiny)
        assert np.all(counts >= low) and np.all(counts <= high)

    def test_tridiagonalize_reconstructs(self, rng):
        S = random_symmetric(rng, 9)
        d, e, V, tau = _kernels.tridiagonalize(S.copy())
        T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        Q = _kernels.back_transform(V, tau, np.eye(9))
        assert np.max(np.abs(Q.T @ Q - np.eye(9))) <= 64 * 9 * np.finfo(float).eps
        assert np.max(np.abs(Q @ T @ Q.T - S)) <= 64 * 9 * np.finfo(float).eps * np.linalg.norm(S)

    def test_tiny_and_huge_scales(self):
        # the solve runs on the matrix scaled by a power of two
        for unit in (1e-300, 1e-150, 1e150):
            S = unit * _with_spectrum(np.random.default_rng(3), np.array([1.0, 2.0, 2.0, 5.0]))
            vals, vecs = sp.smallest_k(S, 3)
            assert np.allclose(vals / unit, [1.0, 2.0, 2.0], atol=1e-13)
            assert np.max(np.abs(S @ vecs - vecs * vals)) <= 1e-13 * unit * 5.0

    def test_zero_matrix(self):
        vals, vecs = sp.smallest_k(np.zeros((4, 4)), 2)
        assert np.array_equal(vals, np.zeros(2)) and np.array_equal(vecs, np.eye(4)[:, :2])


DEGENERATE_CASES = [c for c in ORACLE_CASES if c[0] in ("ring12", "complete12-sym", "block-repeated-12")]


class TestMultipleEigenvalues:
    """A multiple eigenvalue's eigenvectors come back in a canonical basis,
    so they depend neither on the solver nor on the order its rotations ran
    in."""

    @pytest.mark.parametrize("name,S", DEGENERATE_CASES, ids=[c[0] for c in DEGENERATE_CASES])
    def test_vectors_do_not_depend_on_rotation_order(self, name, S):
        eig = sp.sym_eigen(S)
        for rotate in (_kernels.jacobi_eigen, row_cyclic_jacobi):
            other = jacobi_sym_eigen(S, rotate)
            assert np.max(np.abs(eig.values - other.values)) <= 1e-12 * np.linalg.norm(S)
            assert np.max(np.abs(eig.vectors - other.vectors)) <= 1e-10

    def test_scaled_identity_keeps_the_unit_vectors(self):
        # G = Z^T Z of an rcut relaxation is (10^4 / K) I to rounding: the
        # rounding on its diagonal must not pick a permutation for R1
        g = random_connected(np.random.default_rng(4), 12)
        for K in range(2, 6):
            Z = sp.solve_relaxed(g, K, "rcut").Z
            assert np.array_equal(sp.init_rotation_R1(Z).R, np.eye(K))

    def test_canonical_basis_ignores_the_basis_given(self, rng):
        V = random_orthonormal(rng, 12, 4)
        Q = random_orthonormal(rng, 4, 4)
        C = sp.eigen._canonical_basis(V)
        assert np.allclose(sp.eigen._canonical_basis(V @ Q), C, atol=1e-12)
        assert np.allclose(C.T @ C, np.eye(4), atol=1e-14)
        assert np.allclose(C @ C.T, V @ V.T, atol=1e-14)  # same span

    def test_sign_ties_go_to_the_lowest_index(self):
        # entries 0 and 1 have the same magnitude up to rounding
        col = np.array([[-0.5], [0.5 + 1e-16], [0.5], [0.5]])
        assert (col * sp.eigen._column_signs(col))[0, 0] == 0.5


def _relaxed_z(mode, K):
    return sp.solve_relaxed(random_connected(np.random.default_rng(K), 12), K, mode).Z


GRAM_CASES = [(mode, K) for mode in ("ncut", "rcut") for K in range(2, 6)]


class TestGramEigen:
    """_gram_eigen(Z), the eigenpairs of Z^T Z from the SVD of Z, against
    numpy.linalg.eigh of the formed Z^T Z and against the Jacobi reference
    on it: ascending order, the sign rule, and the same vectors (an rcut Z
    makes Z^T Z one tie group, so its vectors are the canonical basis)."""

    @pytest.mark.parametrize("mode,K", GRAM_CASES, ids=[f"{m}-K{k}" for m, k in GRAM_CASES])
    def test_against_eigh_and_jacobi(self, mode, K):
        Z = _relaxed_z(mode, K)
        G = Z.T @ Z
        scale = np.linalg.norm(G)
        got = sp.eigen._gram_eigen(Z)
        assert np.all(np.diff(got.values) >= 0.0)
        assert np.all(sp.eigen._column_signs(got.vectors) == 1.0)
        assert np.max(np.abs(got.vectors.T @ got.vectors - np.eye(K))) <= 64 * K * np.finfo(float).eps
        ref = np.linalg.eigh(G)
        groups = sp.eigen._tie_groups(ref.eigenvalues, sp.eigen.DEFAULT_TOL * scale)
        assert len(groups) == (1 if mode == "rcut" else K)
        jac = jacobi_gram_eigen(Z)
        for values, vectors in ((ref.eigenvalues, sp.eigen._canonicalise(ref.eigenvectors.copy(), groups)),
                                (jac.values, jac.vectors)):
            assert np.max(np.abs(got.values - values)) <= K * (sp.eigen.DEFAULT_TOL + 64 * np.finfo(float).eps) * scale
            assert np.max(np.abs(got.vectors - vectors)) <= 1e-10


class TestRoundRobinSchedule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 13, 48, 120, 121, 250])
    def test_disjoint_rounds_cover_every_pair_once(self, n):
        rounds = _kernels.round_robin_schedule(n)
        assert len(rounds) == n + n % 2 - 1
        seen = []
        for P, Q in rounds:
            assert np.all(P < Q) and np.all(Q < n)
            members = np.concatenate([P, Q])
            assert len(set(members.tolist())) == len(members)  # disjoint
            assert len(P) == n // 2
            seen += list(zip(P.tolist(), Q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]


class TestKernelBackends:
    @pytest.mark.parametrize("n", [2, 3, 7, 8])
    def test_vectorised_rounds_match_one_rotation_at_a_time(self, n):
        S = random_symmetric(np.random.default_rng(n), n)
        A1, V1 = S.copy(), np.eye(n)
        A2, V2 = S.copy(), np.eye(n)
        pairs = [pq for P, Q in _kernels.round_robin_schedule(n) for pq in zip(P.tolist(), Q.tolist())]
        assert _kernels.jacobi_eigen(A1, V1, 1e-12, 100) == one_rotation_at_a_time(A2, V2, 1e-12, 100, pairs)
        # same rotations; only the order of the row and column updates of
        # entries shared by two pairs differs, by rounding
        bound = 64 * n * np.finfo(float).eps
        assert np.max(np.abs(A1 - A2)) <= bound * np.linalg.norm(S)
        assert np.max(np.abs(V1 - V2)) <= bound

    def test_eigen_kernel_diagonalizes_in_place(self, rng):
        S = random_symmetric(rng, 8)
        A1 = S.copy()
        V1 = np.eye(8)
        sweeps = _kernels.jacobi_eigen(A1, V1, 1e-12, 100)
        assert 0 < sweeps < 100
        eig = sp.sym_eigen(S)
        assert np.allclose(np.sort(np.diag(A1)), eig.values, atol=1e-10)
        assert np.allclose(V1 @ np.diag(np.diag(A1)) @ V1.T, S, atol=1e-10)

    def test_eigen_kernel_sweep_count(self):
        # one rotation diagonalizes a 2 x 2 matrix; the check after the last
        # sweep counts it as converged
        assert _kernels.jacobi_eigen(np.array([[2.0, 1.0], [1.0, 3.0]]), np.eye(2), 1e-12, 1) == 1
        S = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 1.0], [0.5, 1.0, 3.0]])
        assert _kernels.jacobi_eigen(S.copy(), np.eye(3), 1e-12, 1) == -1
        assert 1 < _kernels.jacobi_eigen(S.copy(), np.eye(3), 1e-12, 100) < 100

    def test_svd_kernel_sweep_count(self):
        # orthogonal columns need no rotation; one rotation orthogonalizes
        # two columns, and the sweep after it, which rotates nothing, is
        # counted (there is no check after the last sweep)
        assert _kernels.jacobi_svd(np.diag([3.0, 2.0]), np.eye(2), 1e-12, 1) == 0
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert _kernels.jacobi_svd(M.copy(), np.eye(2), 1e-12, 1) == -1
        assert _kernels.jacobi_svd(M.copy(), np.eye(2), 1e-12, 2) == 1
        S = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 1.0], [0.5, 1.0, 3.0]])
        assert _kernels.jacobi_svd(S.copy(), np.eye(3), 1e-12, 1) == -1
        assert 1 < _kernels.jacobi_svd(S.copy(), np.eye(3), 1e-12, 100) < 100

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (5, 5), (6, 4), (12, 3), (48, 3)])
    def test_svd_kernel_matches_scalar_loops(self, m, n):
        M = np.random.default_rng(m * n).standard_normal((m, n))
        A1, V1 = M.copy(), np.eye(n)
        A2, V2 = M.copy(), np.eye(n)
        assert _kernels.jacobi_svd(A1, V1, 1e-12, 100) == scalar_jacobi_svd(A2, V2, 1e-12, 100)
        # same rotations; only the summation order of the dot products differs
        bound = 64 * m * np.finfo(float).eps
        assert np.max(np.abs(A1 - A2)) <= bound * np.linalg.norm(M)
        assert np.max(np.abs(V1 - V2)) <= bound

    def test_svd_impl_column_orthogonality(self, rng):
        M = rng.standard_normal((6, 4))
        A = M.copy()
        V = np.eye(4)
        _kernels.jacobi_svd(A, V, 1e-12, 100)
        G = A.T @ A
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-9 * np.linalg.norm(M) ** 2
        assert np.allclose(M @ V, A, atol=1e-9)

"""The eigensolver (the tridiagonal smallest_k, and sym_eigen on top of it),
the Gram eigensolve of the rounding, SVD and the variational property
suite."""

import dataclasses
import importlib.util
import warnings
from pathlib import Path
from types import SimpleNamespace

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
    g1_signed,
    g2_signed,
    jacobi_gram_eigen,
    jacobi_sym_eigen,
    one_rotation_at_a_time,
    path,
    random_connected,
    random_orthonormal,
    reference_sturm_counts,
    reference_tridiagonal_eigenvalues,
    reference_tridiagonal_eigenvectors,
    ring,
    row_cyclic_jacobi,
    scalar_jacobi_svd,
    w1_graph,
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
        # the test is relative at every scale: no absolute floor lets a
        # small asymmetric matrix through
        with pytest.raises(NotSymmetric):
            sp.sym_eigen(np.array([[0.0, 1e-20], [0.0, 0.0]]))

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

        for name in ("jacobi_svd", "lanczos"):
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
                      lambda M: sp.init_rotation_R1(M[:, :3]), lambda M: sp.rayleigh_sum(ring(6), M[:, :3]),
                      lambda M: sp.projective_distance(M[1], M[0]), lambda M: sp.projective_distance(M[0], M[1]))
            for solve in solves:
                with pytest.raises(ValueError, match="non-finite"):
                    solve(S)


class TestComplexInput:
    """A complex matrix is refused with a ValueError before any work, and
    without the ComplexWarning of a conversion that drops its imaginary
    part; a complex dtype is refused even where that part is zero."""

    @pytest.fixture(autouse=True)
    def no_kernels(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a kernel ran on a complex matrix")

        for name in ("jacobi_svd", "lanczos"):
            monkeypatch.setattr(sp.eigen, name, no_work)

    @pytest.mark.parametrize("imag", [1e-3, 0.0])
    def test_rejected(self, imag):
        S = sp.laplacian(ring(6), "sym").M.astype(complex)
        S[1, 2] += 1j * imag
        S[2, 1] -= 1j * imag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solves = (sp.sym_eigen, lambda M: sp.smallest_k(M, 2), sp.svd, lambda M: sp.svd(M[:, :4]),
                      lambda M: sp.rayleigh(M, np.ones(6)), lambda M: sp.rayleigh(S.real, M[0]),
                      lambda M: sp.init_rotation_R1(M[:, :3]), lambda M: sp.rayleigh_sum(ring(6), M[:, :3]),
                      lambda M: sp.projective_distance(M[1], M[0]), lambda M: sp.quadratic_form(ring(6), M[0]))
            for solve in solves:
                with pytest.raises(ValueError, match="complex"):
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


def _graded(m, n, span, seed, ascending):
    """A Gaussian m x n matrix times column scales graded geometrically
    from 1 down to 1 / span."""
    scales = np.logspace(0, -np.log10(span), n)
    M = np.random.default_rng(seed).standard_normal((m, n)) * scales
    return M[:, ::-1].copy() if ascending else M


def _exact_singular_values(M):
    """Singular values of the float matrix M, descending, by mpmath at 50
    digits: the oracle for the small ones, which numpy's SVD and eigh give
    only to eps times the largest."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        s = mpmath.svd_r(mpmath.matrix(M.tolist()), compute_uv=False)
        return np.sort(np.array([float(x) for x in s]))[::-1]


GRADED_CASES = [(m, n, span, seed, asc) for m, n in ((12, 3), (48, 3), (120, 4))
                for span in (1e6, 1e12) for seed in range(3) for asc in (False, True)]


class TestGradedAccuracy:
    """The QR-first one-sided Jacobi SVD (_jacobi_svd_sorted) and _gram_eigen
    on tall matrices with graded columns. Normwise, both sit within a few
    m eps of numpy's SVD and eigh. The small singular values are also
    accurate relative to themselves: Householder QR perturbs each column by
    a few eps of its own norm and the rotations act on columns, so the
    condition number (1e6-1e12 here) never enters, where an error of eps
    times the largest would be off by up to 1e12 * eps relative (and a
    solve of the formed M^T M by eps ||M^T M||, off by 1e24 * eps). The
    kernel skips a pair on its cosine alone, so two small columns are
    rotated against each other as two large ones are, and every singular
    value is within 4 m eps of itself."""

    @pytest.mark.parametrize("m,n,span,seed,asc", GRADED_CASES,
                             ids=[f"{m}x{n}-{span:.0e}-{s}{'-asc' if a else ''}" for m, n, span, s, a in GRADED_CASES])
    def test_against_numpy_and_exact(self, m, n, span, seed, asc):
        M = _graded(m, n, span, seed, asc)
        eps = np.finfo(float).eps
        exact = _exact_singular_values(M)
        _, S, V, rank = sp.eigen._jacobi_svd_sorted(M)
        assert rank == n
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 64 * n * eps
        # normwise, against numpy
        ref = np.linalg.svd(M, compute_uv=False)
        assert np.max(np.abs(S - ref)) <= 4 * m * eps * ref[0]
        gram = sp.eigen._gram_eigen(M)
        ref_values = np.linalg.eigvalsh(M.T @ M)
        assert np.max(np.abs(gram.values - ref_values)) <= 4 * m * eps * ref_values[-1]
        # relative to themselves, against the exact values
        rel = 4 * m * eps
        assert np.all(np.abs(S - exact) <= rel * exact)
        assert np.all(np.abs(gram.values[::-1] - exact**2) <= 2 * rel * exact**2)
        assert rel * exact[-1] < 1e-3 * eps * exact[0]  # far below any normwise bound


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

    def test_tiny_vector_is_not_zero(self):
        # x^T x underflows to 0 at 1e-170; x enters at unit scale
        assert sp.rayleigh(np.eye(2), np.array([1e-170, 0.0])) == 1.0

    def test_huge_entries_do_not_overflow(self):
        # S x and x^T x overflow at 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = sp.rayleigh(np.diag([1e300, 3e300]), np.array([1e300, 1e300]))
        assert q == pytest.approx(2e300, rel=1e-15)

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

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), "2"], ids=["2.0", "numpy-2.0", "str"])
    def test_smallest_k_needs_an_integer_k(self, k, monkeypatch):
        # refused before any work, not inside the solve
        def no_work(*args):
            raise AssertionError("work ran on a non-integer k")

        monkeypatch.setattr(sp.eigen, "_symmetric_input", no_work)
        with pytest.raises(TypeError):
            sp.smallest_k(sp.laplacian(ring(6), "sym").M, k)

    def test_smallest_k_takes_a_numpy_integer(self):
        S = sp.laplacian(ring(6), "sym").M
        for got, want in zip(sp.smallest_k(S, np.int64(2)), sp.smallest_k(S, 2)):
            assert np.array_equal(got, want)

    def test_inverse_iteration_without_iterations_raises(self, monkeypatch):
        # no vector passes the growth test in zero iterations
        monkeypatch.setattr(_kernels, "INVERSE_ITERATIONS", 0)
        with pytest.raises(NoConvergence, match="inverse iteration"):
            sp.smallest_k(sp.laplacian(ring(6), "sym").M, 2)

    def test_jacobi_svd_without_sweeps_raises(self, monkeypatch):
        monkeypatch.setattr(sp.eigen, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="Jacobi SVD"):
            sp.svd(random_symmetric(np.random.default_rng(3), 3))

    def test_svd_needs_a_matrix(self):
        with pytest.raises(ValueError, match="2-d"):
            sp.svd(np.ones(3))


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


def tridiagonal_form(A):
    """(d, e): the whole Lanczos tridiagonal form of the symmetric A, as
    sym_eigen and _kernel_dimension reduce it."""
    n = A.shape[0]
    d, e = np.zeros(n), np.zeros(max(n - 1, 0))
    _kernels.lanczos(A, np.zeros((n, n)), d, e, 0, n)
    return d, e


def _with_spectrum(rng, values):
    Q = random_orthonormal(rng, len(values), len(values))
    S = (Q * values) @ Q.T
    return 0.5 * (S + S.T)


def planted_weights(rng, n, blocks=4):
    """Weights of a seeded connected graph with four contiguous planted
    blocks (p = 0.5 inside, 0.05 between, and a path through all nodes)."""
    labels = np.arange(n) * blocks // n
    same = labels[:, None] == labels[None, :]
    W = np.where(rng.random((n, n)) < np.where(same, 0.5, 0.05), rng.uniform(0.5, 1.5, (n, n)), 0.0)
    W = np.triu(W, 1)
    W = W + W.T
    W[np.arange(n - 1), np.arange(1, n)] = W[np.arange(1, n), np.arange(n - 1)] = 1.0
    return W


def planted_laplacian(rng, n, blocks=4, kind="sym"):
    """Laplacian of planted_weights' graph, on which the pinned cases below
    are built: normalised by default. The signed kinds take the graph with
    every edge between blocks negative, as perfbench's unbalanced graphs."""
    W = planted_weights(rng, n, blocks)
    if kind.startswith("signed"):
        labels = np.arange(n) * blocks // n
        W = np.where(labels[:, None] == labels[None, :], W, -W)
    return sp.laplacian(sp.Graph(W), kind).M


def _near_gap_spectrum(rng, factor):
    """Spectrum -1, 0.3, 0.3 + delta, 1 .. 2 (n = 48) with delta = factor *
    CLUSTER_GAP ||T||_1, T the tridiagonal form the solver reduces it to:
    0.3 and its nearest neighbour lie just outside (factor > 1) or just
    inside (factor < 1) the clearance that isolates an eigenvalue."""
    Q = random_orthonormal(rng, 48, 48)

    def build(delta):
        S = (Q * np.r_[-1.0, 0.3, 0.3 + delta, np.linspace(1.0, 2.0, 45)]) @ Q.T
        return 0.5 * (S + S.T)

    A, power, _ = sp.eigen._symmetric_input(build(0.0))
    d, e = tridiagonal_form(A)
    return build(factor * _kernels.CLUSTER_GAP * np.ldexp(_kernels._one_norm(d, e), power))


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
    # both sides of the isolation rule, and the matrix a 4-way cluster solves
    near = np.random.default_rng(2004)
    cases += [
        ("gap-outside-48", _near_gap_spectrum(near, 1.05)),
        ("gap-inside-48", _near_gap_spectrum(near, 0.95)),
        ("planted-sym-48", planted_laplacian(near, 48)),
    ]
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
# (Laplacian kind, n, k) of the pass counts: a 4-way cluster's solve at
# n = 120, and the signed solves of perfbench's n = 12 and 48 workloads
PASS_CASES = [("sym", 120, 5)] + [(kind, n, 3) for kind in ("signed_sym", "signed_unnormalized") for n in (12, 48)]


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
    """smallest_k (Lanczos, Sturm multisection, inverse iteration)
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

    @pytest.mark.parametrize("kind,n,k", PASS_CASES, ids=[f"{c[0]}-n{c[1]}" for c in PASS_CASES])
    def test_multisection_stops_at_isolated_eigenvalues(self, monkeypatch, kind, n, k):
        # the wanted eigenvalues of a planted solve are isolated within the
        # first pass or two: multisection stops there and Newton finishes
        # them (at full width it makes 12 passes); each pass is one
        # sturm_counts call
        S = planted_laplacian(np.random.default_rng(n), n, kind=kind)
        calls = []
        counts = _kernels.sturm_counts

        def counted(*args):
            calls.append(args)
            return counts(*args)

        monkeypatch.setattr(_kernels, "sturm_counts", counted)
        vals, vecs = sp.smallest_k(S, k)
        assert len(calls) <= 3
        _check_against_eigh(S, vals, vecs)

    def test_guard_resolved_only_against_the_group(self, monkeypatch):
        # no certificate reads the guard lambda_k+1: with lambda_k+1 far
        # above lambda_k but 1e-9 from lambda_k+2, it is never isolated, yet
        # it stops once its clearance from lambda_k is proven (at full width
        # it takes 12 passes), and it gets no vector and no Newton finish,
        # both at n = 12, where the first checkpoint is m = n, and at
        # n = 120, where the certificate of the two wanted pairs passes at
        # the first checkpoint, below n
        calls, finished, solved, stops = [], [], [], []
        counts, newton = _kernels.sturm_counts, _kernels._newton
        vectors, lanczos = sp.eigen.tridiagonal_eigenvectors, sp.eigen.lanczos
        monkeypatch.setattr(_kernels, "sturm_counts", lambda *args: calls.append(args) or counts(*args))
        monkeypatch.setattr(_kernels, "_newton", lambda *args: finished.append(args[2]) or newton(*args))
        monkeypatch.setattr(sp.eigen, "tridiagonal_eigenvectors", lambda d, e, lam: solved.append(lam) or vectors(d, e, lam))
        monkeypatch.setattr(sp.eigen, "lanczos", lambda A, Q, d, e, start, stop: stops.append(stop) or lanczos(A, Q, d, e, start, stop))
        for n in (12, 120):
            for trace in (calls, finished, solved, stops):
                trace.clear()
            rng = np.random.default_rng(64)
            S = _with_spectrum(rng, np.r_[0.0, 0.25, 1.0, 1.0 + 1e-9, np.linspace(2.0, 3.0, n - 4)])
            vals, vecs = sp.smallest_k(S, 2)
            assert len(calls) <= 3 and [len(lam) for lam in solved] == [2] and max(finished) < 2
            assert len(stops) == 1 and (stops[0] == n) == (n == 12)
            _check_against_eigh(S, vals, vecs)

    @pytest.mark.parametrize("n", [500, 1000])
    def test_planted_large(self, n):
        S = planted_laplacian(np.random.default_rng(n), n)
        vals, vecs = sp.smallest_k(S, 5)
        ref = _check_against_eigh(S, vals, vecs)
        # the lowest five are simple: eigh's vectors under the sign rule
        V = ref.eigenvectors[:, :5]
        assert np.max(np.abs(vecs - V * sp.eigen._column_signs(V))) <= 1e-10


class TestCheckpoints:
    """smallest_k's stop rule: the Lanczos reduction runs to checkpoints and
    stops below n only where the certificate (_kernels.certify) proves the
    Ritz pairs the smallest eigenpairs. Every case agrees with
    numpy.linalg.eigh within TestNumpyOracle's bound."""

    @pytest.fixture
    def log(self, monkeypatch):
        """Each checkpoint's (m, e), and each certificate's (A, Y, theta,
        verdict), as smallest_k makes them."""
        log = SimpleNamespace(checkpoints=[], certificates=[])
        lanczos, certify = sp.eigen.lanczos, sp.eigen.certify

        def reduce(A, Q, d, e, start, stop):
            lanczos(A, Q, d, e, start, stop)
            log.checkpoints.append((stop, e[: stop - 1].copy()))

        def certified(A, Y, theta):
            verdict = certify(A, Y, theta)
            log.certificates.append((A, Y.copy(), theta.copy(), verdict))
            return verdict

        monkeypatch.setattr(sp.eigen, "lanczos", reduce)
        monkeypatch.setattr(sp.eigen, "certify", certified)
        return log

    def test_planted_stops_below_n(self, log, monkeypatch):
        # the gain of the Lanczos path: a 4-way solve at n = 120 stops early.
        # It certifies its 4 pairs, not the 5th, the first eigenvalue of the
        # bulk and the last to converge: it stops at its first checkpoint,
        # and T_m's 5th eigenvalue gets no Newton finish
        finished = []
        newton = _kernels._newton
        monkeypatch.setattr(_kernels, "_newton", lambda *args: finished.append(args[2]) or newton(*args))
        S = planted_laplacian(np.random.default_rng(120), 120)
        _check_against_eigh(S, *sp.smallest_k(S, 4))
        assert log.checkpoints[-1][0] < 120 and log.certificates[-1][3]
        assert len(log.checkpoints) == 1
        assert [(Y.shape[1], verdict) for _, Y, _, verdict in log.certificates] == [(4, True)]
        assert sorted(finished) == [0, 1, 2, 3]

    def test_second_zero_is_not_lost(self, log):
        # two planted components, of 80 and 40 nodes: the plain Laplacian
        # has two zero eigenvalues. The reduction from e_0 stays inside the
        # first component until it breaks down, so its early checkpoints
        # show one zero Ritz value. One of them has a residual that passes,
        # and the Cholesky inertia test refuses it. The result holds both
        # zeros, at k = 2 and at k = 1, where the tie group holding lambda_1
        # is both zeros: each certificate is given the zero Ritz values its
        # checkpoint shows and no other pair, so one zero alone is refused.
        rng = np.random.default_rng(60)
        W = np.zeros((120, 120))
        W[:80, :80], W[80:, 80:] = planted_weights(rng, 80), planted_weights(rng, 40)
        S = sp.laplacian(sp.Graph(W), "unnormalized").M
        eps = np.finfo(float).eps
        bound = 120 * (sp.eigen.DEFAULT_TOL + 64 * eps) * np.linalg.norm(S)
        for k in (2, 1):
            log.certificates.clear()
            vals, vecs = sp.smallest_k(S, k)
            _check_against_eigh(S, vals, vecs)
            assert np.all(np.abs(vals) <= bound)
            zeros = [np.count_nonzero(np.abs(theta) <= 1e-9 * np.linalg.norm(A)) for A, _, theta, _ in log.certificates]
            refused = [np.linalg.norm(A @ Y - Y * theta) <= 8 * eps * np.linalg.norm(A)
                       for (A, Y, theta, verdict), z in zip(log.certificates, zeros) if z == 1 and not verdict]
            assert any(refused)
            assert not any(verdict for *_, verdict in log.certificates)
            if k == 1:
                assert [Y.shape[1] for _, Y, _, _ in log.certificates] == zeros

    @pytest.mark.parametrize("g", [complete(12), ring(8)], ids=["complete12", "ring8"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_breakdown_restart(self, log, g, k):
        # multiple eigenvalues: the reduction breaks down (e_j = 0) and
        # restarts before it has reached every copy
        S = sp.laplacian(g, "unnormalized").M
        _check_against_eigh(S, *sp.smallest_k(S, k))
        assert not log.checkpoints[-1][1].all()

    def test_wanted_vectors_orthogonal_to_the_start(self, log):
        # e_0, the start vector, is an eigenvector of the largest
        # eigenvalue, and the four wanted ones vanish at node 0: the
        # reduction breaks down at once and restarts from e_1
        S = np.zeros((121, 121))
        S[0, 0], S[1:, 1:] = 2.0, planted_laplacian(np.random.default_rng(121), 120)
        vals, vecs = sp.smallest_k(S, 4)
        ref = _check_against_eigh(S, vals, vecs)
        assert np.max(np.abs(ref.eigenvectors[0, :4])) <= 1e-14 and np.max(np.abs(vecs[0])) <= 1e-14
        assert log.checkpoints[-1][0] < 121 and log.checkpoints[-1][1][0] == 0.0


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


def _assert_reduces(S):
    """The whole Lanczos reduction (Q, d, e) of S: Q orthonormal and
    Q^T T Q = S to 64 n eps, and a run in two segments, as smallest_k's
    checkpoints make it, equal to one run bit for bit."""
    n = S.shape[0]
    eps = np.finfo(float).eps
    runs = []
    for segments in (((0, n),), ((0, n // 3), (n // 3, n))):
        Q, d, e = np.zeros((n, n)), np.zeros(n), np.zeros(max(n - 1, 0))
        for start, stop in segments:
            _kernels.lanczos(S, Q, d, e, start, stop)
        runs.append((Q, d, e))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*runs))
    T = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.max(np.abs(Q @ Q.T - np.eye(n))) <= 64 * n * eps
    assert np.max(np.abs(Q.T @ T @ Q - S)) <= 64 * n * eps * np.linalg.norm(S)
    return Q, d, e


def _multisection_case(kind, n):
    """(d, e): a seeded tridiagonal T. split: a zero e_i every fourth row;
    ties: integer d and e, zero every third e_i, so eigenvalues repeat
    exactly; constant: one value on the whole diagonal."""
    rng = np.random.default_rng(n)
    d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
    if kind == "split":
        e[::4] = 0.0
    elif kind == "ties":
        d, e = rng.integers(-2, 3, n).astype(float), rng.integers(-1, 2, n - 1).astype(float)
        e[::3] = 0.0
    elif kind == "constant":
        d = np.full(n, 0.75)
    return d, e


MULTISECTION_CASES = [(kind, n) for kind in ("random", "split", "ties", "constant") for n in (1, 2, 3, 12, 48)]


TRIDIAGONAL_CASES = (
    [("random", n, n) for n in (1, 2, 3)]
    + [("random", 12, m) for m in range(1, 9)]
    + [("random", 120, m) for m in (1, 5, 8)]
    + [("split", 12, 4), ("split", 120, 6), ("zero-pivot", 12, 3), ("zero-pivot", 48, 1)]
    + [("cluster", 12, 6), ("cluster", 120, 8)]
)

# (name, S) of the scale test: two with multiple eigenvalues (ring8 twice
# over, complete12 eleven times), a signed Laplacian, the spectrum
# 1, 2, 2, 5 in a random basis and a planted Laplacian
SCALE_CASES = [
    ("ring8", sp.laplacian(ring(8), "unnormalized").M),
    ("complete12", sp.laplacian(complete(12), "unnormalized").M),
    ("w1-sym", sp.laplacian(w1_graph(), "sym").M),
    ("g2-signed", sp.laplacian(g2_signed(), "signed_unnormalized").M),
    ("spectrum-1225", _with_spectrum(np.random.default_rng(3), np.array([1.0, 2.0, 2.0, 5.0]))),
    ("planted-sym-48", planted_laplacian(np.random.default_rng(48), 48)),
]
SCALE_POWERS = (-1000, -600, -300, 300, 600, 1000)


def _decompositions(S, gram):
    """(values, vectors, degree) of every decomposition of S, and of its
    slices for the SVDs: the values of 2^p S are those of S times 2^(degree p)."""
    out = [(*sp.smallest_k(S, 4), 1), (*dataclasses.astuple(sp.sym_eigen(S)), 1),
           (sp.eigen._kernel_dimension(S), None, 0)]
    for M in (S[:, :3], S[:3]):
        res = sp.svd(M)
        out.append((res.S, np.hstack([res.U.ravel(), res.V.ravel()]), 1))
    if gram:
        out.append((*dataclasses.astuple(sp.eigen._gram_eigen(S[:, :3])), 2))
    return out


def _assert_multisection_matches(d, e, first, stop, guard):
    """tridiagonal_eigenvalues(d, e, first, stop, guard) against the
    reference's passes (reference_tridiagonal_eigenvalues): the same
    isolated marks, the reference's midpoint bit for bit where unmarked,
    and where marked a value inside the reference's bracket within
    16 eps ||T||_1 of eigvalsh's (most of that bound is eigvalsh's own
    error at n = 250; at n = 48 Newton's values lie within 1 eps ||T||_1
    of a 30-digit reference)."""
    lam, isolated = _kernels.tridiagonal_eigenvalues(d, e, first, stop, guard)
    lo, hi, ref_isolated = reference_tridiagonal_eigenvalues(d, e, first, stop, guard)
    assert lam.dtype == float and isolated.dtype == ref_isolated.dtype == bool
    assert np.array_equal(isolated, ref_isolated)
    assert np.array_equal(lam[~isolated], (0.5 * (lo + hi))[~isolated])
    assert np.all((lo <= lam) & (lam <= hi))
    ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[first:stop]
    assert np.all(np.abs(lam - ref)[isolated] <= 16 * np.finfo(float).eps * _kernels._one_norm(d, e))


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
        assert np.array_equal(_kernels.sturm_counts(d, e2, x), reference_sturm_counts(d, e2, x, pivmin))

    @pytest.mark.parametrize("d, e, x, expected", [
        # zero pivots over zero e_i: shifts on the double eigenvalue 1
        ([1.0, 1.0, 3.0], [0.0, 0.0], [0.5, 1.0, 2.0, 4.0], [0, 0, 2, 3]),
        # blocks with eigenvalues {1, 3}, {-1}, {0.25, 0.75} and {4}: shifts
        # on the 1 x 1 blocks' eigenvalues, and between the others on d
        ([2.0, 2.0, -1.0, 0.5, 0.5, 4.0], [1.0, 0.0, 0.0, 0.25, 0.0],
         [-2.0, -1.0, 0.0, 0.5, 2.0, 4.0, 5.0], [0, 0, 1, 2, 4, 5, 6]),
        # a -0 on the diagonal: its eigenvalue 0 is below neither zero shift
        ([1.0, -0.0], [0.0], [-0.0, 0.0], [0, 0]),
    ])
    def test_sturm_counts_block_diagonal(self, d, e, x, expected):
        # T splits at each zero e_i: the pass skips that division, so no
        # 0/0 arises and a shift on an eigenvalue does not count it
        d, e, x = np.array(d), np.array(e), np.array(x)
        lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _kernels.sturm_counts(d, e * e, x)
        assert counts.tolist() == expected == [int(np.count_nonzero(lam < xi)) for xi in x]

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 120, 200, 300])
    def test_tridiagonalize_matches_reference(self, n):
        # the Lanczos reduction reproduces its input (_assert_reduces), and
        # at 2^300 and 2^-300 gives the same basis and d, e times 2^p to the
        # bit. Reduced from e_0, the block-diagonal matrix breaks down at
        # the end of each block: e_j = 0 there and the reduction restarts
        rng = np.random.default_rng(n)
        for S in (random_symmetric(rng, n), np.kron(np.eye(3), random_symmetric(rng, -(-n // 3)))):
            Q, d, e = _assert_reduces(S)
            if S.shape[0] > n:
                assert np.count_nonzero(e == 0.0) >= 2
            for exponent in (300, -300):
                scaled = _assert_reduces(np.ldexp(S, exponent))
                assert all(a.tobytes() == np.ldexp(b, p).tobytes()
                           for a, b, p in zip(scaled, (Q, d, e), (0, exponent, exponent)))

    @pytest.mark.parametrize("kind,n", MULTISECTION_CASES, ids=[f"{k}-n{n}" for k, n in MULTISECTION_CASES])
    def test_multisection_matches_reference(self, kind, n):
        # the per-pass bookkeeping on Python floats makes the reference's
        # passes, for every range whose ends are 0, n // 2, n - 1 or n (an
        # empty one included), and with a guard on every range of two or more
        d, e = _multisection_case(kind, n)
        ends = sorted({0, n // 2, n - 1, n})
        for first in ends:
            for stop in (s for s in ends if s >= first):
                for guard in (False, True) if stop - first >= 2 else (False,):
                    _assert_multisection_matches(d, e, first, stop, guard)

    @pytest.mark.parametrize("name,S", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_multisection_matches_reference_on_oracle_cases(self, name, S):
        # the tridiagonal forms smallest_k and sym_eigen solve: the lowest
        # six, with and without the guard, the rest and the whole spectrum
        d, e = tridiagonal_form(sp.eigen._symmetric_input(S)[0])
        n = len(d)
        for first, stop, guard in ((0, min(6, n), False), (0, min(6, n), n >= 2), (min(6, n), n, False), (0, n, False)):
            _assert_multisection_matches(d, e, first, stop, guard)

    @pytest.mark.parametrize("name,isolated", [("gap-outside-48", True), ("gap-inside-48", False)])
    def test_isolation_rule_sides(self, name, isolated):
        # eigenvalues 1 and 2 lie just outside or just inside CLUSTER_GAP
        # ||T||_1 of each other, 0 and 3 far from every other. Newton
        # finishes the isolated ones, and multisection closes the others at
        # full width: both to rounding
        S = dict(ORACLE_CASES)[name]
        A, power, _ = sp.eigen._symmetric_input(S)
        d, e = tridiagonal_form(A)
        lam, marks = _kernels.tridiagonal_eigenvalues(d, e, 0, 4)
        assert marks.tolist() == [True, isolated, isolated, True]
        ref = np.ldexp(np.linalg.eigvalsh(S), -power)
        assert np.all(np.abs(lam - ref[:4]) <= 16 * np.finfo(float).eps * _kernels._one_norm(d, e))

    def test_end_of_range_proves_its_clearance(self, monkeypatch):
        # the neighbours of a range take no shifts of their own, so the
        # clearance of the range's end from one is proven by one shift a
        # pass past the end's bracket: the highest eigenvalue of this
        # planted Laplacian, 2.4 CLUSTER_GAP ||T||_1 from the next, took 13
        # passes to full width without it
        A = sp.eigen._symmetric_input(planted_laplacian(np.random.default_rng(120), 120))[0]
        d, e = tridiagonal_form(A)
        calls = []
        counts = _kernels.sturm_counts
        monkeypatch.setattr(_kernels, "sturm_counts", lambda *args: calls.append(args) or counts(*args))
        for first, stop in ((0, 1), (119, 120)):
            calls.clear()
            lam, marks = _kernels.tridiagonal_eigenvalues(d, e, first, stop)
            assert marks.all() and len(calls) <= 3
            assert abs(lam[0] - np.linalg.eigvalsh(A)[first]) <= 16 * np.finfo(float).eps * _kernels._one_norm(d, e)

    @pytest.mark.parametrize("d, e, lo, hi, j, exact", [
        # T splits after row 0 (e_0 = 0) and the bracket's midpoint is
        # d_0 = 0.5: a zero pivot ends a block, so x is the eigenvalue
        ([0.5, 2.0, 3.0, 2.5], [0.0, 1.0, 0.5], 0.25, 0.75, 0, 0.5),
        # T splits at e_1 = e_2 = 0: a 1 x 1 block in the middle
        ([2.0, 1.0, 0.75, 3.0, 2.0], [1.0, 0.0, 0.0, 1.0], 0.5, 1.0, 1, 0.75),
        # a zero pivot over a nonzero e_i at x = 1: the next pivot is -inf,
        # det(T - I) = -1, and that step bisects
        ([1.0, 1.0, 2.0], [1.0, 1.0], 0.5, 1.5, 1, None),
    ])
    def test_newton_zero_pivots_and_splits(self, d, e, lo, hi, j, exact):
        # the bracket holds eigenvalue j alone; Newton counts a zero pivot by
        # its sign and skips the division where e_i = 0, as sturm_counts does
        d, e = np.array(d), np.array(e)
        lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        others = np.delete(lam, j)
        assert lo <= lam[j] < hi and not np.any((lo <= others) & (others < hi))
        clearance = np.min(np.maximum(lo - others, others - hi))
        width = 4 * np.finfo(float).eps * _kernels._one_norm(d, e)
        x, _ = _kernels._newton(d.tolist(), [0.0] + (e * e).tolist(), j, lo, hi, clearance, width)
        assert abs(x - lam[j]) <= width
        if exact is not None:
            assert x == exact  # the 1 x 1 block's eigenvalue, to the bit

    def test_split_eigenvalue_on_the_diagonal(self):
        # T splits twice, and one isolated eigenvalue is a diagonal entry,
        # 0.5, as on W1's Laplacian at k = 5: multisection and Newton give
        # it to the bit, and the others to rounding
        d = np.array([1.0, 1.5, 0.75, 0.5, 2.0, 1.25, 2.5])
        e = np.array([0.5, 0.25, 0.0, 0.0, 0.5, 0.25])
        lam, marks = _kernels.tridiagonal_eigenvalues(d, e, 0, 7)
        ref = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        assert marks.all() and 0.5 in lam
        assert np.max(np.abs(lam - ref)) <= 4 * np.finfo(float).eps * _kernels._one_norm(d, e)

    def test_sturm_counts_against_eigvalsh(self):
        rng = np.random.default_rng(7)
        d, e = rng.standard_normal(9), rng.standard_normal(8)
        lam = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        x = np.linspace(lam[0] - 1.0, lam[-1] + 1.0, 101)
        counts = _kernels.sturm_counts(d, e * e, x)
        assert counts.tolist() == [int(np.count_nonzero(lam < xi)) for xi in x]

    @pytest.mark.parametrize("d, e, x, expected", [
        # a zero pivot over a nonzero e_i: the next pivot is -inf; the
        # eigenvalues are 1 - sqrt(2), 1 and 1 + sqrt(2)
        ([1.0, 1.0, 1.0], [1.0, 1.0], [1.0], [1]),
        # zero pivots over zero e_i: the division is skipped
        ([1.0, 1.0, 3.0], [0.0, 0.0], [0.5, 1.0, 2.0, 4.0], [0, 0, 2, 3]),
    ])
    def test_sturm_counts_zero_pivots(self, d, e, x, expected):
        # a shift on an eigenvalue does not count it: #(lambda < x) exactly
        d, e, x = np.array(d), np.array(e), np.array(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = _kernels.sturm_counts(d, e * e, x)
        assert counts.tolist() == expected

    def test_tridiagonalize_reconstructs(self, rng):
        # random matrices reduce without a breakdown; the Laplacians of
        # complete(12) (eigenvalues 0 and 12, 11 times) and ring(8) (four
        # pairs) break down and restart, and still reproduce the matrix
        for n in (9, 40, 100):
            _, _, e = _assert_reduces(random_symmetric(rng, n))
            assert e.all()
        for g in (complete(12), ring(8)):
            _, _, e = _assert_reduces(sp.laplacian(g, "unnormalized").M)
            assert not e.all()

    @pytest.mark.parametrize("power", SCALE_POWERS)
    @pytest.mark.parametrize("name,S", SCALE_CASES, ids=[c[0] for c in SCALE_CASES])
    def test_tiny_and_huge_scales(self, name, S, power):
        # every decomposition divides its input once by a power of two, so
        # at 2^p S it returns what it returns at S to the bit: the same
        # vectors (a multiple eigenvalue's canonical basis included) and the
        # values times 2^p, with no RuntimeWarning on the way. At 2^520 and
        # beyond ||S||_F overflows, at 2^-600 and below its square
        # underflows. _gram_eigen's values are squares, so it runs where
        # they stay normal, |p| <= 300.
        scaled = np.ldexp(S, power)
        assert np.array_equal(np.ldexp(scaled, -power), S)  # the scaled input is exact
        gram = abs(power) <= 300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = _decompositions(scaled, gram)
        for (values, vectors, degree), (ref_values, ref_vectors, _) in zip(got, _decompositions(S, gram)):
            assert np.array_equal(values, np.ldexp(ref_values, degree * power))
            assert np.array_equal(vectors, ref_vectors)

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
        # G = Z^T Z of a ratio-cut relaxation (rcut, and signed_rcut on
        # signed graphs) is (10^4 / K) I to rounding: the rounding on its
        # diagonal must not pick a permutation for R1. This is the I that
        # cluster takes for the ratio cuts without calling init_rotation_R1.
        rng = np.random.default_rng(5)
        cases = [(random_connected(np.random.default_rng(4), 12), "rcut")]
        cases += [(g, "signed_rcut") for g in (g1_signed(), g2_signed(), *(
            random_connected(rng, 12, signed=True) for _ in range(3)))]
        for g, mode in cases:
            for K in range(2, 6):
                Z = sp.solve_relaxed(g, K, mode).Z
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


def _load_perfbench_gen():
    """perfbench/gen.py, imported read-only by its file path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _permutation_cases():
    """(name, S): the golden Laplacians, and the sym Laplacians of
    perfbench's planted graphs (four blocks as equal as n allows)."""
    cases = [(f"{name}-{kind}", sp.laplacian(g, kind).M)
             for name, g in (("ring12", ring(12)), ("complete12", complete(12)))
             for kind in ("unnormalized", "sym")]
    cases += [("path5", sp.laplacian(path(5)).M), ("W1", sp.laplacian(w1_graph()).M)]
    cases += [(name, sp.laplacian(g, "signed_unnormalized").M)
              for name, g in (("G1-signed", g1_signed()), ("G2-signed", g2_signed()))]
    gen = _load_perfbench_gen()
    for n in (12, 48, 120):
        sizes = [n // 4 + (b < n % 4) for b in range(4)]
        W = gen.planted(np.random.default_rng(n), sizes, "unsigned").W
        cases.append((f"planted-sym-{n}", sp.laplacian(sp.Graph(W), "sym").M))
    return cases


PERMUTATION_CASES = _permutation_cases()


class TestPermutationInvariance:
    """smallest_k(P S P^T, k) is smallest_k(S, k) with its rows permuted:
    the same eigenvalues, each simple eigenvector permuted up to its sign,
    and each tie group that k does not cut the permuted subspace."""

    @pytest.mark.parametrize("name,S", PERMUTATION_CASES, ids=[c[0] for c in PERMUTATION_CASES])
    def test_permuted_input(self, name, S):
        n = S.shape[0]
        scale = np.linalg.norm(S)
        groups = sp.eigen._tie_groups(np.linalg.eigvalsh(S), sp.eigen.DEFAULT_TOL * scale)
        perm = np.random.default_rng(n).permutation(n)
        ends = [end for _, end in groups if end <= 7]
        assert ends  # every case has a group that ends within k <= 7
        for k in ends:
            vals, vecs = sp.smallest_k(S, k)
            pvals, pvecs = sp.smallest_k(S[np.ix_(perm, perm)], k)
            assert np.max(np.abs(pvals - vals)) <= 8 * np.finfo(float).eps * scale
            moved = vecs[perm]
            for start, end in groups[: ends.index(k) + 1]:
                V, pV = moved[:, start:end], pvecs[:, start:end]
                if end - start == 1:
                    sign = 1.0 if float(V[:, 0] @ pV[:, 0]) >= 0 else -1.0
                    assert np.max(np.abs(pV - sign * V)) <= 1e-10
                else:
                    assert np.max(np.abs(pV @ pV.T - V @ V.T)) <= 1e-10


class TestFirstMax:
    """_first_max, the library's one tie rule: the first index within
    TIE_RTOL * scale of the largest entry wins."""

    @pytest.mark.parametrize("values, expect", [
        ([0.3, 2.0, 2.0, 1.0], 1),  # an exact tie
        ([0.3, 2.0, 2.0 + 1e-9, 1.0], 1),  # within TIE_RTOL * scale (scale 2): tied
        ([0.3, 2.0, 2.0 + 1e-8, 1.0], 2),  # a gap beyond it: the larger wins
        ([5.0, 5.0, 5.0], 0),
    ])
    def test_lowest_index_among_ties(self, values, expect):
        assert sp.eigen._first_max(np.array(values), 2.0) == expect

    def test_scale_sets_the_tie_width(self):
        values = np.array([1.0, 1.0 + 1e-9])
        assert sp.eigen._first_max(values, 1.0) == 0
        assert sp.eigen._first_max(values, 0.01) == 1

    def test_axes(self):
        M = np.array([[1.0, 3.0, 3.0 + 1e-12], [2.0, 3.0 + 1e-6, 0.0], [2.0 + 1e-12, 0.0, 3.0]])
        scale = np.abs(M).max(axis=-1, keepdims=True)
        assert sp.eigen._first_max(M, scale).tolist() == [1, 1, 2]
        assert sp.eigen._first_max(M, scale, axis=1).tolist() == [1, 1, 2]
        assert sp.eigen._first_max(M, np.abs(M).max(axis=0), axis=0).tolist() == [1, 1, 0]
        # a stack of matrices: the last axis of each
        assert sp.eigen._first_max(np.stack((M, M[::-1])), 3.0).tolist() == [[1, 1, 2], [2, 1, 1]]

    def test_first_minimum_by_negation(self):
        values = np.array([4.0, 1.0 + 1e-10, 1.0, 0.5 + 1.0])
        assert sp.eigen._first_max(-values, values.max()) == 1
        assert sp.eigen._first_max(-values, 1e-3) == 2  # 1e-10 apart is no tie at scale 1e-3
        # entries already taken are +inf, as in init_rotation_R2's free rows:
        # they never win, and a tie among the rest still goes to the lowest
        free = np.array([np.inf, 2.0, 0.5, np.inf, 0.5 + 1e-12])
        assert sp.eigen._first_max(-free, 2.0) == 2
        free[2] = np.inf
        assert sp.eigen._first_max(-free, 2.0) == 4


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

    @staticmethod
    def svd_kernel(M, max_sweeps=100):
        """_kernels.jacobi_svd on M, its T split into the arrays A = M V and V."""
        m, n = M.shape
        T, sq, sweeps = _kernels.jacobi_svd(M, 1e-12, max_sweeps)
        X = np.reshape(T, (n, m + n)).T
        return X[:m], X[m:], sweeps

    def test_svd_kernel_sweep_count(self):
        # orthogonal columns need no rotation; one rotation orthogonalizes
        # two columns, and the sweep after it, which rotates nothing, is
        # counted (there is no check after the last sweep)
        assert self.svd_kernel(np.diag([3.0, 2.0]), 1)[2] == 0
        M = np.array([[2.0, 1.0], [1.0, 3.0]])
        assert self.svd_kernel(M, 1)[2] == -1
        assert self.svd_kernel(M, 2)[2] == 1
        S = np.array([[1.0, 2.0, 0.5], [2.0, -1.0, 1.0], [0.5, 1.0, 3.0]])
        assert self.svd_kernel(S, 1)[2] == -1
        assert 1 < self.svd_kernel(S, 100)[2] < 100

    def test_svd_kernel_rank_deficient_square(self):
        # Z * Z of path(5)'s K = 5 ncut relaxation at unit scale, as the
        # row_norm_ls fit takes it: columns 1 and 3 agree to rounding, and
        # two rows hold entries near 1e-32. Rotating the columns left at
        # rounding level against the others only moved that noise, and 100
        # sweeps did not converge; a negligible column is now skipped
        a, b, c = 0.34877232142857129, 0.69754464285714279, 0.34877232142857156
        M = np.array([
            [a, b, b, 0.69754464285714313, 0.34877232142857140],
            [a, c, 5.6376272853821061e-32, a, a],
            [a, 7.3758334396413117e-34, b, 7.3758334396412244e-34, a],
            [a, c, 5.6376272853821039e-32, a, a],
            [a, 0.69754464285714257, b, b, 0.34877232142857140],
        ])
        A, V, sweeps = self.svd_kernel(M)
        assert 0 < sweeps < 100
        s = np.sort(np.linalg.norm(A, axis=0))[::-1]
        assert np.max(np.abs(s - np.linalg.svd(M, compute_uv=False))) <= 64 * np.finfo(float).eps
        assert np.allclose(M @ V, A, atol=1e-14) and np.allclose(V.T @ V, np.eye(5), atol=1e-14)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (5, 5), (6, 4), (12, 3), (48, 3)])
    def test_svd_kernel_matches_scalar_loops(self, m, n):
        M = np.random.default_rng(m * n).standard_normal((m, n))
        A1, V1, sweeps = self.svd_kernel(M)
        A2, V2 = M.copy(), np.eye(n)
        assert sweeps == scalar_jacobi_svd(A2, V2, 1e-12, 100)
        # same rotations; only the summation order of the dot products differs
        bound = 64 * m * np.finfo(float).eps
        assert np.max(np.abs(A1 - A2)) <= bound * np.linalg.norm(M)
        assert np.max(np.abs(V1 - V2)) <= bound

    def test_svd_impl_column_orthogonality(self, rng):
        M = rng.standard_normal((6, 4))
        A, V, _ = self.svd_kernel(M)
        G = A.T @ A
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-9 * np.linalg.norm(M) ** 2
        assert np.allclose(M @ V, A, atol=1e-9)

    @pytest.mark.parametrize("m,n,zero", [(2, 2, False), (3, 3, False), (4, 4, False), (5, 5, False),
                                          (12, 3, False), (48, 3, False), (120, 4, False), (3, 3, True),
                                          (1, 1, False), (4, 1, False), (0, 0, True)])
    def test_svd_kernel_returns_tracked_squared_norms(self, m, n, zero):
        # sq[p] is, to the bit, the left-to-right sum of squares of T[p]'s
        # first k entries (column p of R V), on the square matrices the
        # library rotates (a tall one's triangular factor), a zero one and
        # one column; the rest of T[p] is column p of V, I where none rotates
        M = np.zeros((m, n)) if zero else np.random.default_rng(m * n).standard_normal((m, n))
        R = np.linalg.qr(M)[1] if m > n > 1 else M
        k = R.shape[0]
        T, sq, sweeps = _kernels.jacobi_svd(R, 1e-12, 100)
        assert sweeps >= 0 and len(T) == len(sq) == n
        assert all(len(row) == k + n for row in T)
        assert sq == [sum(x * x for x in row[:k]) for row in T]
        if sweeps == 0:
            assert np.array_equal(np.reshape(T, (n, k + n))[:, k:], np.eye(n))

"""Jacobi eigendecomposition / SVD and the variational property suite."""

import numpy as np
import pytest

import speclap as sp
from speclap import _kernels
from speclap.errors import NoConvergence, NotSymmetric, ZeroVector

from conftest import (
    L1BAR,
    L1BAR_EIGENVALUES,
    complete,
    one_rotation_at_a_time,
    random_orthonormal,
    ring,
    row_cyclic_jacobi,
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

    def test_matches_numpy_singular_values(self, rng):
        M = rng.standard_normal((8, 5))
        assert np.allclose(sp.svd(M).S, np.linalg.svd(M, compute_uv=False), atol=1e-9)


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
        eig = sp.sym_eigen(S)
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


class TestNumpyOracle:
    """sym_eigen against numpy.linalg.eigh on hard spectra, n = 1 .. 250."""

    @pytest.mark.parametrize("name,S", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
    def test_against_eigh(self, name, S):
        n = S.shape[0]
        # Jacobi is backward stable: errors of a few ulps of ||S|| per
        # index, and the solver stops once every off-diagonal entry is at
        # most DEFAULT_TOL * ||S||_F, which moves eigenvalues by at most n
        # times that (Weyl).
        scale = max(np.linalg.norm(S), np.finfo(float).tiny)
        bound = n * (sp.eigen.DEFAULT_TOL + 64 * np.finfo(float).eps) * scale
        eig = sp.sym_eigen(S)
        ref = np.linalg.eigh(S).eigenvalues
        assert np.max(np.abs(eig.values - ref)) <= bound
        residual = np.linalg.norm(S @ eig.vectors - eig.vectors * eig.values, axis=0)
        assert np.max(residual) <= bound
        ortho = np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(n)))
        assert ortho <= 64 * n * np.finfo(float).eps


DEGENERATE_CASES = [c for c in ORACLE_CASES if c[0] in ("ring12", "complete12-sym", "block-repeated-12")]


class TestMultipleEigenvalues:
    """A multiple eigenvalue's eigenvectors come back in a canonical basis,
    so they do not depend on the order the rotations ran in."""

    @pytest.mark.parametrize("name,S", DEGENERATE_CASES, ids=[c[0] for c in DEGENERATE_CASES])
    def test_vectors_do_not_depend_on_rotation_order(self, name, S, monkeypatch):
        eig = sp.sym_eigen(S)
        monkeypatch.setattr(sp.eigen, "jacobi_eigen", row_cyclic_jacobi)
        other = sp.sym_eigen(S)
        assert np.max(np.abs(eig.values - other.values)) <= 1e-12 * np.linalg.norm(S)
        assert np.max(np.abs(eig.vectors - other.vectors)) <= 1e-10

    def test_scaled_identity_keeps_the_unit_vectors(self):
        # G = Z^T Z of an rcut relaxation: the rounding on its diagonal must
        # not pick a permutation
        S = 2500.0 * np.eye(4) + np.diag([3e-13, -2e-13, 1e-13, 0.0])
        assert np.array_equal(sp.sym_eigen(S).vectors, np.eye(4))

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
        assert sp.eigen._fix_signs(col)[0, 0] == 0.5


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

    def test_svd_impl_column_orthogonality(self, rng):
        M = rng.standard_normal((6, 4))
        A = M.copy()
        V = np.eye(4)
        _kernels.jacobi_svd(A, V, 1e-12, 100)
        G = A.T @ A
        off = G - np.diag(np.diag(G))
        assert np.max(np.abs(off)) < 1e-9 * np.linalg.norm(M) ** 2
        assert np.allclose(M @ V, A, atol=1e-9)

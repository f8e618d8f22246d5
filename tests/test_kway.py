"""K-way clustering: objectives, relaxation, initialization, alternation."""

import sys
import warnings

import numpy as np
import pytest

import speclap as sp
from speclap import _kernels, kway
from speclap.errors import (
    EmptyBlock,
    NegativeWeightInUnsignedMode,
    NoConvergence,
    RankDeficient,
    ZeroVector,
    ZeroVolume,
)

from conftest import (
    G1_BIPARTITION,
    W4,
    complete,
    g1_signed,
    g2_signed,
    jacobi_gram_eigen,
    jacobi_smallest_k,
    path,
    random_connected,
    reference_objective,
    ring,
    row_cyclic_jacobi,
    w1_graph,
)

GOLD_4WAY = {
    frozenset({7, 8}),
    frozenset({5, 9}),
    frozenset({1, 2, 4}),
    frozenset({3, 6}),
}

# relaxed 4-column solution for the 9-node benchmark graph (reference values,
# column order/signs are one valid convention among several)
Z_REF = np.array([
    [-21.3146, -0.0000, 19.4684, -15.4303],
    [-4.1289, 0.0000, 16.7503, -15.4303],
    [-21.3146, 32.7327, -19.4684, -15.4303],
    [-4.1289, -0.0000, 16.7503, -15.4303],
    [19.7150, 0.0000, 9.3547, -15.4303],
    [-4.1289, 23.1455, -16.7503, -15.4303],
    [-21.3146, -32.7327, -19.4684, -15.4303],
    [-4.1289, -23.1455, -16.7503, -15.4303],
    [19.7150, -0.0000, -9.3547, -15.4303],
])

# 5-column rounding input whose leftmost-largest pattern leaves column 4 empty
ZQ_REF_5 = np.array([
    [-5.7716, -27.5934, 0.0000, -9.3618, -0.0000],
    [5.5839, -20.2099, -29.7044, -1.2471, -0.0000],
    [-2.3489, 1.1767, -0.0000, -29.5880, -29.7044],
    [5.5839, -20.2099, 29.7044, -1.2471, 0.0000],
    [21.6574, -7.2879, 0.0000, 8.1289, 0.0000],
    [8.5287, 4.5433, -0.0000, -18.6493, -21.0042],
    [-2.3489, 1.1767, -0.0000, -29.5880, 29.7044],
    [8.5287, 4.5433, -0.0000, -18.6493, 21.0042],
    [23.3020, 6.5363, -0.0000, -1.5900, -0.0000],
])


def set_partitions(n, k):
    """All partitions of range(n) into exactly k nonempty blocks."""

    def rec(i, blocks):
        if i == n:
            if len(blocks) == k:
                yield [list(b) for b in blocks]
            return
        if len(blocks) + (n - i) < k:
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        if len(blocks) < k:
            blocks.append([i])
            yield from rec(i + 1, blocks)
            blocks.pop()

    yield from rec(0, [])


def random_indicator(rng, g, K, mode="ncut"):
    """Random partition as an indicator with (X^j)^T D X^j constant."""
    N = g.m
    while True:
        asg = rng.integers(0, K, size=N)
        if len(set(asg.tolist())) == K:
            break
    signed = mode.startswith("signed")
    d = sp.degree_vector(g, signed=signed) if mode.endswith("ncut") else np.ones(N)
    X = np.zeros((N, K))
    for j in range(K):
        rows = np.nonzero(asg == j)[0]
        X[rows, j] = 1.0 / np.sqrt(d[rows].sum())
    return X, asg


class TestObjective:
    def test_disconnected_cliques_zero(self):
        W = np.zeros((6, 6))
        for block in ([0, 1, 2], [3, 4, 5]):
            for a in block:
                for b in block:
                    if a != b:
                        W[a, b] = 1.0
        g = sp.Graph(W)
        part = [[1, 2, 3], [4, 5, 6]]
        for mode in kway.MODES:
            assert sp.objective(g, part, mode) == 0.0

    def test_signed_mode_penalizes_internal_negative_edge(self):
        W = np.array([[0, -1, 1], [-1, 0, 1], [1, 1, 0]], dtype=float)
        g = sp.Graph(W)
        # block {1,2} contains the negative edge; signed degrees (2,2,2)
        # cut({1,2}) = 2, ordered negative links = 2, vol = 4; cut({3}) = 2, vol = 2
        expect = (2 + 2 * 2) / 4 + 2 / 2
        assert sp.objective(g, [[1, 2], [3]], "signed_ncut") == pytest.approx(expect)
        # matches the signed Rayleigh quotient of the scaled indicator
        X = np.zeros((3, 2))
        X[:2, 0] = 0.5
        X[2, 1] = 1 / np.sqrt(2)
        assert sp.rayleigh_sum(g, X, "signed_ncut") == pytest.approx(expect)

    def test_rcut_is_ncut_with_identity_degrees(self, rng):
        g = random_connected(rng, 6)
        part = [[1, 2], [3, 4], [5, 6]]
        manual = sum(sp.cut(g, sp.NodeSubset(b, m=6)) / len(b) for b in part)
        assert sp.objective(g, part, "rcut") == pytest.approx(manual)

    def test_empty_block_rejected(self, rng):
        g = random_connected(rng, 4)
        with pytest.raises(EmptyBlock):
            sp.objective(g, [[1, 2, 3, 4], []], "ncut")


class TestRayleighSum:
    def test_signed_per_column_identity(self, rng):
        for _ in range(10):
            g = random_connected(rng, 7, signed=True)
            X, asg = random_indicator(rng, g, 3, "signed_ncut")
            Lbar = sp.laplacian(g, "signed_unnormalized").M
            for j in range(3):
                col = X[:, j]
                a = col[np.nonzero(col)][0]
                A = sp.NodeSubset((np.nonzero(asg == j)[0] + 1).tolist(), m=7)
                expect = a * a * (sp.cut(g, A) + 2 * sp.links(g, A, A, "negative_only"))
                assert float(col @ Lbar @ col) == pytest.approx(expect, rel=1e-9, abs=1e-9)

    def test_column_scale_invariance(self, rng):
        g = random_connected(rng, 6)
        X, _ = random_indicator(rng, g, 3)
        X2 = X.copy()
        X2[:, 1] *= 2.0
        assert sp.rayleigh_sum(g, X) == pytest.approx(sp.rayleigh_sum(g, X2), rel=1e-10)

    def test_volume_normalization_gives_unit_d_norm(self, rng):
        g = random_connected(rng, 6)
        X, _ = random_indicator(rng, g, 3)
        D = np.diag(sp.degree_vector(g))
        assert np.allclose(X.T @ D @ X, np.eye(3), atol=1e-10)

    def test_equals_objective(self, rng):
        for mode in kway.MODES:
            g = random_connected(rng, 7, signed=mode.startswith("signed"))
            X, asg = random_indicator(rng, g, 3, mode)
            part = [(np.nonzero(asg == j)[0] + 1).tolist() for j in range(3)]
            assert sp.rayleigh_sum(g, X, mode) == pytest.approx(
                sp.objective(g, part, mode), abs=1e-9)


def seeded_graph(rng, n, kind):
    """Random connected graph: 'unsigned', 'balanced' (an unsigned graph
    conjugated by random +/-1 node signs) or 'unbalanced' (mixed signs)."""
    g = random_connected(rng, n, signed=kind == "unbalanced")
    if kind == "balanced":
        x = rng.choice([-1.0, 1.0], size=n)
        g = sp.Graph(g.W * np.outer(x, x))
    return g


def random_partition(rng, n, K, singleton):
    """Random partition of 1..n into K nonempty blocks as lists of nodes;
    with singleton, the first block has exactly one node."""
    asg = np.concatenate([np.arange(K), rng.integers(1 if singleton else 0, K, size=n - K)])
    rng.shuffle(asg)
    return [(np.flatnonzero(asg == j) + 1).tolist() for j in range(K)]


class TestObjectiveOracle:
    """objective, rayleigh_sum and ncut2_value against the per-block
    cut/links/volume reference."""

    @pytest.mark.parametrize("kind", ["unsigned", "balanced", "unbalanced"])
    def test_matches_reference(self, kind):
        rng = np.random.default_rng(101)
        for K in range(2, 7):
            for singleton in (False, True):
                for _ in range(3):
                    n = int(rng.integers(K + 1, 13))
                    g = seeded_graph(rng, n, kind)
                    part = random_partition(rng, n, K, singleton)
                    modes = kway.MODES[2:] if g.has_negative_edges else kway.MODES
                    for mode in modes:
                        want = reference_objective(g, part, mode)
                        assert sp.objective(g, part, mode) == pytest.approx(want, rel=1e-12, abs=0)

    def test_ncut2_value_matches_two_block_reference(self):
        rng = np.random.default_rng(102)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            g = random_connected(rng, n)
            A, Abar = random_partition(rng, n, 2, bool(rng.integers(2)))
            want = reference_objective(g, [A, Abar], "ncut")
            assert sp.ncut2_value(g, A) == pytest.approx(want, rel=1e-12, abs=0)

    def test_empty_block(self):
        with pytest.raises(EmptyBlock):
            sp.objective(w1_graph(), [list(range(1, 10)), []], "signed_rcut")

    @pytest.mark.parametrize("mode", ["ncut", "signed_ncut"])
    def test_isolated_node_block_has_zero_volume(self, mode):
        W = np.zeros((5, 5))
        W[:4, :4] = path(4).W
        g = sp.Graph(W)
        with pytest.raises(ZeroVolume, match=r"block \[5\]"):
            sp.objective(g, [[1, 2], [3, 4], [5]], mode)
        # a ratio cut divides by the node count, so the block is fine there
        assert sp.objective(g, [[1, 2], [3, 4], [5]], mode.replace("ncut", "rcut")) == 1.0

    @pytest.mark.parametrize("mode", ["ncut", "rcut"])
    def test_signed_graph_in_unsigned_mode(self, mode):
        g = g1_signed()
        part = [sorted(b) for b in G1_BIPARTITION]
        with pytest.raises(NegativeWeightInUnsignedMode, match=f"signed_{mode}"):
            sp.objective(g, part, mode)
        with pytest.raises(NegativeWeightInUnsignedMode, match=f"signed_{mode}"):
            sp.rayleigh_sum(g, np.ones((9, 2)), mode)


class TestRayleighSumZeroColumn:
    @pytest.mark.parametrize("mode", ["ncut", "rcut"])
    def test_zero_column(self, mode):
        with pytest.raises(ZeroVector, match="column 2"):
            sp.rayleigh_sum(ring(4), [[1, 0], [1, 0], [0, 0], [0, 0]], mode)

    def test_column_on_an_isolated_node_has_zero_volume(self):
        W = np.zeros((5, 5))
        W[:4, :4] = ring(4).W
        X = np.zeros((5, 2))
        X[:4, 0] = 1.0
        X[4, 1] = 1.0
        with pytest.raises(ZeroVector, match="column 2"):
            sp.rayleigh_sum(sp.Graph(W), X, "ncut")
        # a ratio cut divides by x^T x, which is 1 here
        assert sp.rayleigh_sum(sp.Graph(W), X, "rcut") == 0.0


class TestSolveRelaxed:
    def test_nine_node_column_space_matches_reference(self):
        Z = sp.solve_relaxed(w1_graph(), 4, "ncut").Z
        Q1, _ = np.linalg.qr(Z)
        Q2, _ = np.linalg.qr(Z_REF)
        s = sp.svd(Q1.T @ Q2).S
        angles = np.arccos(np.clip(s, -1, 1))
        assert np.max(angles) < 1e-3

    def test_full_k_invertible(self, rng):
        g = random_connected(rng, 5)
        Z = sp.solve_relaxed(g, 5, "ncut").Z
        assert abs(np.linalg.det(Z)) > 1e-8

    def test_trace_is_eigenvalue_sum(self, rng):
        g = random_connected(rng, 7)
        sol = sp.solve_relaxed(g, 3, "ncut")
        nu = sp.sym_eigen(sp.laplacian(g, "sym").M).values
        assert sp.rayleigh_sum(g, sol.Z, "ncut") == pytest.approx(nu[:3].sum(), abs=1e-8)

    def test_frobenius_rescale(self, rng):
        g = random_connected(rng, 6)
        for mode in kway.MODES:
            Z = sp.solve_relaxed(g if not mode.startswith("signed") else
                                 random_connected(rng, 6, signed=True), 3, mode).Z
            assert np.linalg.norm(Z) == pytest.approx(100.0, abs=1e-9)

    def test_constraint_before_rescale(self, rng):
        g = random_connected(rng, 6)
        Z = sp.solve_relaxed(g, 3, "ncut").Z
        D = np.diag(sp.degree_vector(g))
        G = Z.T @ D @ Z
        assert np.allclose(G, G[0, 0] * np.eye(3), atol=1e-7 * G[0, 0])
        Zr = sp.solve_relaxed(g, 3, "rcut").Z
        G = Zr.T @ Zr
        assert np.allclose(G, G[0, 0] * np.eye(3), atol=1e-7 * G[0, 0])

    @pytest.mark.parametrize("mode", ["ncut", "rcut"])
    def test_unsigned_modes_reject_negative_weights(self, mode):
        with pytest.raises(NegativeWeightInUnsignedMode, match=f"signed_{mode}"):
            sp.solve_relaxed(g1_signed(), 2, mode)
        with pytest.raises(NegativeWeightInUnsignedMode):
            sp.cluster(g1_signed(), 2, mode=mode)


class TestInitRotations:
    def test_r1_orthogonalizes_columns(self, rng):
        Z = rng.standard_normal((10, 4))
        R1 = sp.init_rotation_R1(Z).R
        G = (Z @ R1).T @ (Z @ R1)
        assert np.allclose(G - np.diag(np.diag(G)), 0.0, atol=1e-8 * np.trace(G))

    def test_r1_on_orthogonal_columns_is_signed_permutation(self, rng):
        Z = np.zeros((6, 2))
        Z[:3, 0] = 1.0
        Z[3:, 1] = 2.0
        R1 = sp.init_rotation_R1(Z).R
        assert np.allclose(np.abs(R1), np.eye(2)[[0, 1]][:, [0, 1]] + 0.0, atol=1e-10) or \
            np.allclose(np.abs(R1), np.fliplr(np.eye(2)), atol=1e-10)

    def test_r1_keeps_d_orthogonality(self, rng):
        g = random_connected(rng, 8)
        Z = sp.solve_relaxed(g, 3, "ncut").Z
        R1 = sp.init_rotation_R1(Z).R
        D = np.diag(sp.degree_vector(g))
        G = (Z @ R1).T @ D @ (Z @ R1)
        assert np.allclose(G - np.diag(np.diag(G)), 0.0, atol=1e-8 * np.trace(G))

    def test_r1_rank_deficient(self):
        Z = np.ones((5, 2))
        with pytest.raises(RankDeficient):
            sp.init_rotation_R1(Z)

    def test_r2_identity_rows(self):
        Z = np.vstack([np.eye(3), np.eye(3)])
        R2 = sp.init_rotation_R2(Z).R
        assert np.allclose(np.abs(R2).sum(axis=0), 1.0)
        assert np.allclose(R2.T @ R2, np.eye(3), atol=1e-10)

    def test_r2_never_reuses_a_row(self, rng):
        Z = np.vstack([np.ones((4, 3)), np.eye(3)])
        R2 = sp.init_rotation_R2(Z).R
        # duplicate all-ones rows can be picked at most once
        cols = [tuple(np.round(R2[:, j], 8)) for j in range(3)]
        assert len(set(cols)) == 3

    def test_r2_near_orthogonal_on_axis_aligned_rows(self, rng):
        Z = np.zeros((9, 3))
        for i in range(9):
            Z[i, i % 3] = 1.0
            Z[i] += 0.05 * rng.standard_normal(3)
        R2 = sp.init_rotation_R2(Z).R
        G = R2.T @ R2
        assert np.max(np.abs(G - np.diag(np.diag(G)))) < 0.1


class TestRescaleVariants:
    def test_row_sums_already_one(self):
        Z = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        Z2, deformed = sp.rescale_variant(Z, "row_sum_ls")
        assert np.allclose(Z2.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(Z2, Z)
        assert not deformed

    def test_regular_graph_singular_case(self):
        from conftest import ring
        g = ring(8)
        Z = sp.solve_relaxed(g, 3, "ncut").Z
        # constant degrees: the first relaxed column is constant, the others
        # are degree-orthogonal to it, so their row sums vanish
        Z2, _ = sp.rescale_variant(Z, "row_sum_ls")
        assert np.allclose(Z2, Z)

    def test_row_normalize_unit_rows(self, rng):
        Z = rng.standard_normal((7, 3))
        Z2, deformed = sp.rescale_variant(Z, "row_normalize")
        assert np.allclose(np.linalg.norm(Z2, axis=1), 1.0, atol=1e-12)
        assert deformed

    def test_row_norm_ls_failure_degrades_to_identity(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1e-9]])
        Z2, _ = sp.rescale_variant(Z, "row_norm_ls")
        assert Z2.shape == Z.shape  # no exception; identity fallback allowed

    def test_row_norm_ls_unit_rows_when_achievable(self):
        Z = 2.0 * np.eye(3)
        Z2, _ = sp.rescale_variant(Z, "row_norm_ls")
        assert np.allclose(np.linalg.norm(Z2, axis=1), 1.0, atol=1e-8)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("method", kway.RESCALE_METHODS)
    def test_non_finite_rejected(self, method, bad):
        Z = np.eye(3)
        Z[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                sp.rescale_variant(Z, method)

    @pytest.mark.parametrize("shape", [(12, 3), (48, 3), (120, 4)])
    def test_pinv_matches_numpy(self, rng, shape):
        M = rng.standard_normal(shape) ** 2
        ref = np.linalg.pinv(M, rcond=1e-10)
        assert np.allclose(kway._pinv(M), ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("offset", [0.0, 1e-12])
    def test_pinv_rank_deficient(self, rng, offset):
        # a repeated column, exactly or within the 1e-10 cutoff
        M = rng.standard_normal((30, 4)) ** 2
        M[:, 3] = M[:, 1] + offset * rng.standard_normal(30)
        ref = np.linalg.pinv(M, rcond=1e-10)
        assert np.allclose(kway._pinv(M), ref, rtol=0, atol=1e-12 * np.abs(ref).max())


class TestFlipColumns:
    def test_nonnegative_unchanged(self):
        Z = np.abs(np.arange(6.0)).reshape(3, 2)
        Z2, Rp = sp.flip_columns(Z)
        assert np.array_equal(Z2, Z)
        assert np.array_equal(Rp, np.eye(2))

    def test_negated_input_fully_flipped(self, rng):
        Z = np.abs(rng.standard_normal((4, 3))) + 0.1
        Z2, Rp = sp.flip_columns(-Z)
        assert np.allclose(Z2, Z)
        assert np.array_equal(Rp, -np.eye(3))

    def test_zero_mean_column_not_flipped(self):
        Z = np.array([[1.0], [-1.0]])
        Z2, Rp = sp.flip_columns(Z)
        assert np.array_equal(Z2, Z)
        assert Rp[0, 0] == 1.0


class TestPodx:
    def test_axis_aligned_fixed_point(self):
        Y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        X = sp.podx(Y)
        assert np.array_equal(X.assignment, [0, 1, 0])
        assert np.linalg.norm(X.X) == pytest.approx(np.linalg.norm(Y), abs=1e-12)

    def test_empty_column_repair_reference(self):
        X = sp.podx(ZQ_REF_5)
        assert tuple(X.assignment) == (2, 3, 1, 2, 0, 0, 4, 4, 0)

    def test_repair_preconditions(self):
        # before repair, the raw leftmost-largest pattern has column 4 empty
        raw = np.argmax(ZQ_REF_5, axis=1)
        assert 3 not in set(raw.tolist())
        assert np.sum(raw == 0) == 4  # column 1 is the most populated

    def test_indicator_invariants(self, rng):
        for _ in range(10):
            Z = rng.standard_normal((8, 3))
            X = sp.podx(Z, kway.TransformQ(R=np.eye(3), Lambda=np.eye(3)))
            M = X.X
            assert np.all((M != 0).sum(axis=1) == 1)
            assert np.all((M != 0).sum(axis=0) >= 1)
            # the all-ones vector lies in the column range
            P = M @ np.linalg.pinv(M.T @ M) @ M.T
            assert np.allclose(P @ np.ones(8), np.ones(8), atol=1e-8)


class TestPodr:
    def test_fixed_point(self, rng):
        Z = rng.standard_normal((6, 3))
        X = sp.podx(Z)
        Q = sp.podr(X, X.X)
        assert np.allclose(Q.R, np.eye(3), atol=1e-8)
        assert np.allclose(Q.Lambda, np.eye(3), atol=1e-10)
        assert np.linalg.norm(X.X - X.X @ Q.Q) < 1e-9

    def test_singular_diagonal_falls_back_to_identity(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        Z = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, -1.0]])
        Q = sp.podr(X, Z)
        assert np.array_equal(Q.Lambda, np.eye(2))

    def test_procrustes_and_diagonal_optimality(self, rng):
        for _ in range(20):
            Z = rng.standard_normal((7, 3))
            X = rng.standard_normal((7, 3))
            Q = sp.podr(X, Z)
            base = np.linalg.norm(X - Z @ Q.R)
            assert np.linalg.norm(X - Z @ Q.Q) <= base + 1e-12
            for _ in range(50):
                Rr = np.linalg.qr(rng.standard_normal((3, 3)))[0]
                assert base <= np.linalg.norm(X - Z @ Rr) + 1e-9


class TestProjectiveDistance:
    def test_same_line(self):
        assert sp.projective_distance([1.0, 2.0], [2.0, 4.0]) == pytest.approx(0.0, abs=1e-6)

    def test_antipodal(self):
        assert sp.projective_distance([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal(self):
        assert sp.projective_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(np.pi / 2)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVector):
            sp.projective_distance([0.0, 0.0], [1.0, 0.0])


class TestFirstColumnRotation:
    def test_two_block_closed_form(self):
        from conftest import W4
        g = sp.Graph(W4)
        X = np.zeros((4, 2))
        X[0, 0] = 1 / np.sqrt(12)
        X[1:, 1] = 1 / np.sqrt(24)
        R = sp.first_column_rotation(g, X).R
        d, a = 36.0, 12.0
        expect = np.array([
            [np.sqrt(a), np.sqrt(d - a)],
            [np.sqrt(d - a), -np.sqrt(a)],
        ]) / np.sqrt(d)
        assert np.allclose(R, expect, atol=1e-10)

    def test_equal_volume_blocks(self, rng):
        from conftest import ring
        g = ring(8)
        X = np.zeros((8, 4))
        for j in range(4):
            X[2 * j : 2 * j + 2, j] = 0.5  # vol 4 per block, (X^j)^T D X^j = 1
        R = sp.first_column_rotation(g, X).R
        assert np.allclose(R[:, 0], 0.5)

    def test_first_column_of_xr_constant_and_trace_preserved(self, rng):
        g = random_connected(rng, 8)
        X, _ = random_indicator(rng, g, 3)
        R = sp.first_column_rotation(g, X).R
        XR = X @ R
        assert np.allclose(XR[:, 0], XR[0, 0], atol=1e-8)
        L = sp.laplacian(g, "unnormalized").M
        assert np.trace(XR.T @ L @ XR) == pytest.approx(np.trace(X.T @ L @ X), rel=1e-10)

    def test_rejects_unnormalized_columns(self, rng):
        g = random_connected(rng, 5)
        X = np.zeros((5, 2))
        X[:3, 0] = 1.0
        X[3:, 1] = 5.0
        with pytest.raises(ValueError):
            sp.first_column_rotation(g, X)


    def test_orthogonal_and_oriented_for_every_k(self):
        rng = np.random.default_rng(103)
        for K in range(2, 7):
            g = random_connected(rng, 12)
            X, _ = random_indicator(rng, g, K)
            R = sp.first_column_rotation(g, X).R
            assert np.allclose(R.T @ R, np.eye(K), atol=1e-12)
            assert np.all(sp.eigen._column_signs(R) == 1.0)

    def test_dominant_block_still_completes(self):
        # block 2 holds 28/30 of the volume, so R^1 lies close to e_2 and the
        # completion skips e_2 for e_1
        g = complete(30)
        X = np.zeros((30, 3))
        for j, rows in enumerate(([0], range(1, 29), [29])):
            X[list(rows), j] = 1.0 / np.sqrt(29.0 * len(rows))
        R = sp.first_column_rotation(g, X).R
        assert np.allclose(R[:, 0], np.sqrt([1 / 30, 28 / 30, 1 / 30]))
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-12)
        XR = X @ R
        assert np.allclose(XR[:, 0], XR[0, 0])


class TestRotationInvarianceSuite:
    def test_transformed_indicator_keeps_constraints(self, rng):
        # conjugation by an orthogonal matrix preserves the quadratic
        # constraints and the trace objective
        for _ in range(10):
            g = random_connected(rng, 8)
            X, _ = random_indicator(rng, g, 3)
            D = np.diag(sp.degree_vector(g))
            R = np.linalg.qr(rng.standard_normal((3, 3)))[0]
            XR = X @ R
            assert np.allclose(XR.T @ D @ XR, np.eye(3), atol=1e-9)
            L = sp.laplacian(g, "unnormalized").M
            assert np.trace(XR.T @ L @ XR) == pytest.approx(
                np.trace(X.T @ L @ X), rel=1e-9)
            # the all-ones vector stays in the column range
            P = XR @ np.linalg.pinv(XR.T @ XR) @ XR.T
            assert np.allclose(P @ np.ones(8), np.ones(8), atol=1e-8)

    def test_trace_maximizer_is_procrustes_rotation(self, rng):
        # tr(QA) over orthogonal Q is maximized at V U^T with A = U S V^T
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            res = sp.svd(A)
            Q = res.V @ res.U.T
            best = float(np.trace(Q @ A))
            assert best == pytest.approx(res.S.sum(), rel=1e-9)
            for _ in range(100):
                Qr = np.linalg.qr(rng.standard_normal((4, 4)))[0]
                assert float(np.trace(Qr @ A)) <= best + 1e-9

    def test_diagonal_fit_beats_grid_search(self, rng):
        # closed-form per-column least squares vs a 41-point grid per axis
        for _ in range(5):
            Z = rng.standard_normal((5, 3))
            X = rng.standard_normal((5, 3))
            lam = np.array([(Z[:, j] @ X[:, j]) / (Z[:, j] @ Z[:, j]) for j in range(3)])
            best = np.linalg.norm(X - Z * lam[None, :])
            grid = np.linspace(-2.0, 2.0, 41)
            for g0 in grid:
                r0 = X[:, 0] - g0 * Z[:, 0]
                for g1 in grid:
                    r1 = X[:, 1] - g1 * Z[:, 1]
                    for g2 in grid:
                        r2 = X[:, 2] - g2 * Z[:, 2]
                        val = np.sqrt(r0 @ r0 + r1 @ r1 + r2 @ r2)
                        assert best <= val + 1e-9


class TestCluster:
    def test_max_iters_is_not_a_keyword(self):
        with pytest.raises(TypeError):
            sp.cluster(w1_graph(), 2, max_iters=5)

    @pytest.mark.parametrize("name", ["w1", "g1", "g2"])
    def test_alternation_stops_on_phi(self, name, monkeypatch):
        """podr runs once per alternation round and nowhere else, so its calls
        give the rounds' phi = ||X - ZQ||: every round but the last lowers phi
        by at least 1e-12, and the last, short of the cap, by less."""
        g = GOLDEN_GRAPHS[name]()
        podr = kway.podr
        phis = []

        def recording(X, Z):
            Q = podr(X, Z)
            phis.append(float(np.linalg.norm(X.X - Z @ Q.Q)))
            return Q

        monkeypatch.setattr(kway, "podr", recording)
        modes = ("ncut", "rcut") if name == "w1" else ("signed_ncut", "signed_rcut")
        ran = 0
        for K in range(2, 6):
            for mode in modes:
                for rescale in kway.RESCALE_METHODS:
                    phis.clear()
                    try:
                        res = sp.cluster(g, K, mode=mode, rescale=rescale)
                    except NoConvergence:
                        continue
                    assert len(phis) == res.iterations
                    assert 2 <= res.iterations < kway.MAX_ROUNDS
                    assert phis[-1] == res.residual
                    drops = -np.diff(phis)
                    assert np.all(drops[:-1] >= 1e-12) and drops[-1] < 1e-12
                    ran += 1
        assert ran > 0

    def test_max_rounds_caps_the_alternation(self, monkeypatch):
        full = sp.cluster(w1_graph(), 4, mode="ncut")
        assert full.iterations > 1
        monkeypatch.setattr(kway, "MAX_ROUNDS", 1)
        res = sp.cluster(w1_graph(), 4, mode="ncut")
        assert res.iterations == 1
        assert res.residual == float(np.linalg.norm(res.X.X - res.Z.Z @ res.Q.Q))

    @pytest.mark.parametrize("kwargs, name", [
        ({"rescale": "bogus"}, "rescale"),
    ])
    def test_bad_arguments_rejected_before_solving(self, monkeypatch, kwargs, name):
        def no_solve(*args, **kw):
            raise AssertionError("cluster solved before checking its arguments")

        monkeypatch.setattr(sp.eigen, "sym_eigen", no_solve)
        monkeypatch.setattr(sp.eigen, "smallest_k", no_solve)
        with pytest.raises(ValueError, match=name):
            sp.cluster(w1_graph(), 2, **kwargs)

    @pytest.mark.parametrize("mode", kway.MODES)
    def test_reported_values_come_from_the_solve_and_last_round(self, mode):
        signed = mode.startswith("signed")
        rng = np.random.default_rng(104)
        graphs = [g1_signed(), g2_signed()] if signed else [w1_graph()]
        graphs += [random_connected(rng, 10, signed=signed) for _ in range(3)]
        for g in graphs:
            res = sp.cluster(g, 3, mode=mode)
            assert res.relaxation_value == pytest.approx(
                sp.rayleigh_sum(g, res.Z.Z, mode), rel=1e-12, abs=0)
            kind = ("signed_" if signed else "") + ("sym" if mode.endswith("ncut") else "unnormalized")
            want = np.linalg.eigvalsh(sp.laplacian(g, kind).M)[:3]
            assert np.allclose(res.Z.eigenvalues, want, rtol=0, atol=1e-12 * np.abs(want).max())
            assert res.residual == float(np.linalg.norm(res.X.X - res.Z.Z @ res.Q.Q))

    @pytest.mark.parametrize("mode", kway.MODES)
    def test_one_laplacian_per_call(self, monkeypatch, mode):
        """One Laplacian, for the relaxation: the objective evaluates its
        quadratic forms from W. Counted through every binding of
        laplacian.laplacian."""
        lap = sys.modules["speclap.laplacian"].laplacian
        kinds = []

        def counting(g, kind="unnormalized"):
            kinds.append(kind)
            return lap(g, kind)

        for name, mod in list(sys.modules.items()):
            if name == "speclap" or name.startswith("speclap."):
                for attr, value in list(vars(mod).items()):
                    if value is lap:
                        monkeypatch.setattr(mod, attr, counting)
        g = g2_signed() if mode.startswith("signed") else w1_graph()
        sp.cluster(g, 3, mode=mode)
        assert len(kinds) == 1

    def test_nine_node_four_way_partition(self):
        res = sp.cluster(w1_graph(), 4, mode="ncut")
        assert {frozenset(b.members) for b in res.partition} == GOLD_4WAY
        assert res.objective == pytest.approx(
            sp.objective(w1_graph(), res.partition, "ncut"), abs=1e-12)
        assert res.relaxation_value <= res.objective + 1e-9

    def test_signed_two_way_recovers_bipartition(self):
        g = g1_signed()
        res = sp.cluster(g, 2, mode="signed_ncut")
        got = {frozenset(b.members) for b in res.partition}
        assert got == {frozenset(G1_BIPARTITION[0]), frozenset(G1_BIPARTITION[1])}
        # each block is internally positive, so only crossing weight remains
        for b in res.partition:
            assert sp.links(g, b, b, "negative_only") == 0.0
        assert res.objective == pytest.approx(sp.objective(g, res.partition, "signed_ncut"))

    def test_disconnected_cliques_rcut(self):
        W = np.zeros((6, 6))
        for block in ([0, 1, 2], [3, 4, 5]):
            for a in block:
                for b in block:
                    if a != b:
                        W[a, b] = 1.0
        res = sp.cluster(sp.Graph(W), 2, mode="rcut")
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert {frozenset(b.members) for b in res.partition} == {
            frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_rcut_objective_identity(self, rng):
        g = random_connected(rng, 8)
        res = sp.cluster(g, 3, mode="rcut")
        X = res.X.X
        L = sp.laplacian(g, "unnormalized").M
        total = sum(float(X[:, j] @ L @ X[:, j]) / float(X[:, j] @ X[:, j])
                    for j in range(3))
        assert res.objective == pytest.approx(total, abs=1e-9)

    def test_signed_objective_decomposition(self, rng):
        for _ in range(5):
            g = random_connected(rng, 7, signed=True)
            res = sp.cluster(g, 3, mode="signed_ncut")
            assert res.objective == pytest.approx(
                sp.rayleigh_sum(g, res.X, "signed_ncut"), abs=1e-9)

    def test_residual_growth_raises_no_convergence(self):
        # on this input phi = ||X - ZQ|| grows from round 1 to round 2; the
        # check raises rather than asserts, so it also holds under python -O
        with pytest.raises(NoConvergence, match=r"round 2 raised phi .* from [0-9.]+ to [0-9.]+"):
            sp.cluster(g2_signed(), 3, mode="signed_rcut", rescale="row_sum_ls")

    def test_all_rescale_variants_produce_valid_partitions(self, rng):
        g = random_connected(rng, 8)
        for method in kway.RESCALE_METHODS:
            res = sp.cluster(g, 3, mode="ncut", rescale=method)
            members = sorted(m for b in res.partition for m in b.members)
            assert members == list(range(1, 9))
            assert res.iterations >= 1

    def test_brute_force_bounds_small(self, rng):
        for _ in range(5):
            n = int(rng.integers(5, 8))
            K = int(rng.integers(2, 4))
            g = random_connected(rng, n)
            nu = sp.sym_eigen(sp.laplacian(g, "sym").M).values
            best = min(
                sp.objective(g, [[i + 1 for i in b] for b in part], "ncut")
                for part in set_partitions(n, K))
            res = sp.cluster(g, K, mode="ncut")
            assert nu[:K].sum() <= best + 1e-9
            assert res.objective >= best - 1e-9


GOLDEN_GRAPHS = {
    "w1": w1_graph, "g1": g1_signed, "g2": g2_signed, "w4": lambda: sp.Graph(W4),
    "ring12": lambda: ring(12), "complete12": lambda: complete(12), "path5": lambda: path(5),
}


def _all_clusterings(g):
    """Outcome of every K = 2..5, mode and rescale on g: the assignment and
    round count, or the error class; and the objectives."""
    signed = bool((g.W < 0).any())
    outcomes, objectives = [], []
    for K in range(2, min(5, g.m) + 1):
        for mode in ("signed_ncut", "signed_rcut") if signed else ("ncut", "rcut"):
            for rescale in kway.RESCALE_METHODS:
                try:
                    res = sp.cluster(g, K, mode=mode, rescale=rescale)
                except (AssertionError, sp.errors.SpeclapError) as exc:
                    outcomes.append(type(exc).__name__)
                    continue
                outcomes.append((tuple(res.X.assignment), res.iterations))
                objectives.append(res.objective)
    return outcomes, objectives


class TestRotationOrderIndependence:
    """Symmetric graphs tie exactly in the spectrum, in the R2 row picks, in
    the candidate pick and in the rounding. Solving by Jacobi rotations
    instead, in the round-robin or the row-cyclic order, moves the
    eigensolver's output by rounding only, which must not change a
    partition, a block label, a round count or an error."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_cluster_same_under_row_cyclic_order(self, name, monkeypatch):
        # R1's K x K solve by Jacobi on the formed Z^T Z, not the SVD of Z
        g = GOLDEN_GRAPHS[name]()
        outcomes, objectives = _all_clusterings(g)
        for rotate in (_kernels.jacobi_eigen, row_cyclic_jacobi):
            monkeypatch.setattr(sp.eigen, "_gram_eigen", lambda Z, rotate=rotate: jacobi_gram_eigen(Z, rotate))
            other_outcomes, other_objectives = _all_clusterings(g)
            assert other_outcomes == outcomes
            assert np.allclose(other_objectives, objectives, rtol=1e-9)

    @pytest.mark.parametrize("name", ["ring12", "complete12"])
    def test_two_way_same_under_row_cyclic_order(self, name, monkeypatch):
        # the relaxation's n x n solve by row-cyclic Jacobi
        g = GOLDEN_GRAPHS[name]()
        part = sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g))).partition
        monkeypatch.setattr(sp.eigen, "smallest_k", lambda S, k: jacobi_smallest_k(S, k, row_cyclic_jacobi))
        assert sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g))).partition == part


class TestSolverIndependence:
    """The relaxation's n x n solve by Householder, Sturm multisection and
    inverse iteration, or by a full Jacobi decomposition sliced to K: the
    two differ by rounding only, which must not change a partition, a block
    label, a round count or an error."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_cluster_same_under_jacobi_smallest_k(self, name, monkeypatch):
        g = GOLDEN_GRAPHS[name]()
        outcomes, objectives = _all_clusterings(g)
        monkeypatch.setattr(sp.eigen, "smallest_k", jacobi_smallest_k)
        other_outcomes, other_objectives = _all_clusterings(g)
        assert other_outcomes == outcomes
        assert np.allclose(other_objectives, objectives, rtol=1e-9)

    @pytest.mark.parametrize("name", ["ring12", "complete12"])
    def test_two_way_same_under_jacobi_smallest_k(self, name, monkeypatch):
        g = GOLDEN_GRAPHS[name]()
        part = sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g))).partition
        monkeypatch.setattr(sp.eigen, "smallest_k", jacobi_smallest_k)
        assert sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g))).partition == part


class TestTieBreaks:
    def test_r2_tied_rows_pick_the_lowest_index(self):
        # rows 1 and 2 are both orthogonal to row 0 up to rounding
        Z = np.array([[1.0, 0.0], [1e-16, 1.0], [0.0, -1.0]])
        assert sp.init_rotation_R2(Z).R[1, 1] == 1.0

    def test_podx_tied_entries_pick_the_leftmost(self):
        Y = np.array([[0.5, 0.5 + 1e-16, 0.0], [0.0, 1.0, 1.0 + 1e-15], [0.0, 0.0, 1.0]])
        assert tuple(sp.podx(Y).assignment) == (0, 1, 2)

    def test_rounding_noise_mean_not_flipped(self):
        Z = np.array([[1.0], [-1.0 - 1e-15]])
        assert sp.flip_columns(Z)[1][0, 0] == 1.0

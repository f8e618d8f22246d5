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
    reference_init_rotation_R2,
    reference_cluster,
    reference_objective,
    reference_score_candidates,
    ring,
    row_cyclic_jacobi,
    w1_graph,
)
from test_eigen import SCALE_POWERS

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

    @pytest.mark.parametrize("partition, mode, message", [
        ([[1, 2], [2, 3, 4]], "ncut", "disjoint"),
        ([[1, 2], [3]], "ncut", "cover all nodes"),
        ([[1, 2], [3, 4]], "xcut", "unknown mode 'xcut'"),
        # two faults: every block is read before any is checked, so the
        # out-of-range node wins over the empty block before it
        ([[], sp.NodeSubset([1, 9])], "ncut", "node index 9 out of range"),
        # an overlap is found block by block, before the missing node 4
        ([[1, 2], [2, 3]], "ncut", "disjoint"),
    ])
    def test_bad_partition_or_mode_rejected(self, partition, mode, message):
        with pytest.raises(ValueError, match=message):
            sp.objective(ring(4), partition, mode)

    @pytest.mark.parametrize("value", [
        lambda g, A: sp.objective(g, [A, sp.NodeSubset([2, 3, 4])]),
        lambda g, A: sp.ncut2_value(g, A),
    ], ids=["objective", "ncut2_value"])
    def test_out_of_range_subset_named(self, value):
        # a NodeSubset built without m is checked against the graph as
        # volume checks it, not reported as a cover failure
        with pytest.raises(ValueError, match="node index 9 out of range"):
            value(path(4), sp.NodeSubset([1, 9]))


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

    @pytest.mark.parametrize("K", [1, 5])
    def test_k_out_of_range(self, K):
        with pytest.raises(ValueError, match=f"K={K} out of range"):
            sp.solve_relaxed(ring(4), K, "ncut")

    @pytest.mark.parametrize("K", [2.0, 2.5, np.float64(3.0), "2"], ids=["2.0", "2.5", "numpy-3.0", "str"])
    def test_k_is_an_integer(self, K, monkeypatch):
        # refused before the Laplacian is built, not inside the solve
        def no_work(*args):
            raise AssertionError("work ran on a non-integer K")

        monkeypatch.setattr(kway, "laplacian", no_work)
        with pytest.raises(TypeError):
            sp.solve_relaxed(ring(6), K, "ncut")
        with pytest.raises(TypeError):
            sp.cluster(ring(6), K, "rcut")

    def test_k_takes_a_numpy_integer(self):
        a, b = sp.cluster(ring(6), np.int64(3)), sp.cluster(ring(6), 3)
        assert a.partition == b.partition and a.objective == b.objective

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

    def test_r1_takes_the_continuous_solution(self, rng):
        sol = sp.solve_relaxed(random_connected(rng, 8), 3, "ncut")
        assert np.array_equal(sp.init_rotation_R1(sol).R, sp.init_rotation_R1(sol.Z).R)

    def test_r1_rank_deficient(self):
        for Z in (np.ones((5, 2)), np.zeros((5, 2))):
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
        # Row i is e_(i mod 3) + d_i with |d_i| <= delta per entry. Rows on
        # one axis then have |z . z'| >= (1 - delta)^2 - 2 delta^2 = 0.918,
        # rows on two axes |z . z'| <= 2 delta + 3 delta^2 = 0.085, and every
        # row norm is >= 1 - delta. So the greedy takes its second row off
        # axis 0 (0.085 < 0.918) and its third off both picked axes (2 x
        # 0.085 < 0.918): one row per axis, and each pair's cosine is at
        # most (2 delta + 3 delta^2) / (1 - delta)^2 = 0.092.
        delta = 0.04
        bound = (2 * delta + 3 * delta**2) / (1 - delta) ** 2
        for _ in range(20):
            Z = np.eye(3)[np.arange(9) % 3] + rng.uniform(-delta, delta, (9, 3))
            R2 = sp.init_rotation_R2(Z).R
            assert sorted(np.argmax(np.abs(R2), axis=0)) == [0, 1, 2]
            G = R2.T @ R2
            assert np.max(np.abs(G - np.diag(np.diag(G)))) <= bound


class TestRescaleVariants:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown rescale method 'row_max'"):
            sp.rescale_variant(np.eye(3), "row_max")

    def test_row_sums_already_one(self):
        Z = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        Z2 = sp.rescale_variant(Z, "row_sum_ls")
        assert np.allclose(Z2.sum(axis=1), 1.0, atol=1e-10)
        assert np.allclose(Z2, Z)

    def test_regular_graph_singular_case(self):
        from conftest import ring
        g = ring(8)
        Z = sp.solve_relaxed(g, 3, "ncut").Z
        # constant degrees: the first relaxed column is constant, the others
        # are degree-orthogonal to it, so their row sums vanish
        Z2 = sp.rescale_variant(Z, "row_sum_ls")
        assert np.allclose(Z2, Z)

    @pytest.mark.parametrize("seed", range(8))
    def test_row_sum_ls_rank_deficient(self, seed):
        # column 3 repeats column 1, so the normal equations are singular:
        # the fit refuses Z as init_rotation_R1 does, with no LinAlgError
        # and no fit of a numerically singular system
        Z = np.random.default_rng(seed).standard_normal((12, 3))
        Z[:, 2] = Z[:, 0]
        with pytest.raises(RankDeficient):
            sp.rescale_variant(Z, "row_sum_ls")
        with pytest.raises(RankDeficient):
            sp.init_rotation_R1(Z)

    def test_row_normalize_unit_rows(self, rng):
        Z = rng.standard_normal((7, 3))
        Z2 = sp.rescale_variant(Z, "row_normalize")
        assert np.allclose(np.linalg.norm(Z2, axis=1), 1.0, atol=1e-12)

    def test_row_norm_ls_failure_degrades_to_identity(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1e-9]])
        Z2 = sp.rescale_variant(Z, "row_norm_ls")
        assert Z2.shape == Z.shape  # no exception; identity fallback allowed

    def test_row_norm_ls_unit_rows_when_achievable(self):
        Z = 2.0 * np.eye(3)
        Z2 = sp.rescale_variant(Z, "row_norm_ls")
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
        # Z^T X = 0 is rank 0 by the relative test too (0 <= 0), so no
        # 0 / 0 reaches Lambda
        X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        Z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        Q = sp.podr(X, Z)
        assert np.array_equal(Q.Lambda, np.eye(2)) and np.isfinite(Q.R).all()

    def test_equivariant_in_the_scale_of_x(self):
        # Z^T X = s diag(1e-6, 1e-12): the rank test is relative and Lambda
        # has no floor, so one branch serves every s and Lambda scales with X
        Q = np.linalg.qr(np.random.default_rng(6).standard_normal((6, 2)))[0]
        Z, X = Q * 1e-3, Q * np.array([1e-3, 1e-9])
        lams = [sp.podr(X * s, Z).Lambda / s for s in (1.0, 1e6, 1e-4)]
        for lam in lams[1:]:
            assert np.allclose(lams[0], lam, rtol=1e-9, atol=0.0)
        assert np.allclose(np.diag(lams[0]), [1.0, 1e-6], rtol=1e-9, atol=0.0)

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


class TestKWayScales:
    """init_rotation_R1, rayleigh_sum and projective_distance take their
    array input at unit scale (eigen._unit_scale), as every decomposition
    does: at 2^p times the input they return what they return at the input,
    to the bit, with no RuntimeWarning, over the powers of
    test_eigen.py::TestTridiagonalKernels::test_tiny_and_huge_scales. R1's
    rank test reads squared singular values, which overflow at 2^520 and
    underflow at 2^-600; the ratios' x^T x do the same."""

    @pytest.mark.parametrize("power", SCALE_POWERS)
    def test_tiny_and_huge_scales(self, power):
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((12, 3))
        g = random_connected(rng, 12)
        X = sp.podx(sp.solve_relaxed(g, 3, "ncut")).X
        x, y = rng.standard_normal(5), rng.standard_normal(5)

        def ratios(p):
            return (sp.init_rotation_R1(np.ldexp(Z, p)).R, sp.rayleigh_sum(g, np.ldexp(X, p)),
                    sp.projective_distance(np.ldexp(x, p), y), sp.projective_distance(x, np.ldexp(y, p)))

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            R, *values = ratios(power)
        ref_R, *ref_values = ratios(0)
        assert np.array_equal(R, ref_R) and values == ref_values

    @pytest.mark.parametrize("power", SCALE_POWERS)
    @pytest.mark.parametrize("method", kway.RESCALE_METHODS)
    def test_rescale_variant_scale_free(self, method, power):
        """rescale_variant(2^p Z) is rescale_variant(Z) to the bit, on a
        Gaussian Z that every method fits and on one with a constant column
        and centred others, whose row-sum and row-norm fits leave a column
        at zero and fall back to the input, 2^p Z."""
        rng = np.random.default_rng(12)
        Z = rng.standard_normal((12, 3))
        centred = np.column_stack((np.ones(12), Z[:, 1:] - Z[:, 1:].mean(axis=0)))
        for Z, falls_back in ((Z, False), (centred, method != "row_normalize")):
            ref = sp.rescale_variant(Z, method)
            assert np.array_equal(ref, Z) == falls_back
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = sp.rescale_variant(np.ldexp(Z, power), method)
            assert np.array_equal(out, np.ldexp(Z, power) if falls_back else ref)


class TestFirstColumnRotation:
    @pytest.mark.parametrize("column, message", [
        ([0.0, 0.0, 0.0, 0.0], "empty column"),
        ([0.0, 0.5, 0.25, 0.5], "entries must be equal"),
    ])
    def test_bad_indicator_rejected(self, column, message):
        X = np.c_[[1.0, 0.0, 0.0, 0.0], column]
        with pytest.raises(ValueError, match=message):
            sp.first_column_rotation(sp.Graph(W4), X)

    def test_signed_graph_refused(self):
        # G1's plain degrees give the blocks {1..4} and {5..9} volumes 7 and
        # 5, so X is D-normalized and only the negative weights are at fault
        X = np.zeros((9, 2))
        X[:4, 0] = 1 / np.sqrt(7.0)
        X[4:, 1] = 1 / np.sqrt(5.0)
        with pytest.raises(NegativeWeightInUnsignedMode, match="first_column_rotation"):
            sp.first_column_rotation(g1_signed(), X)

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
        # the form test is relative, so it holds at every scale of X
        g = random_connected(rng, 5)
        X = np.zeros((5, 2))
        X[:3, 0] = 1.0
        X[3:, 1] = 5.0
        for power in (0, -20, -40):
            with pytest.raises(ValueError, match="common value"):
                sp.first_column_rotation(g, np.ldexp(X, power))


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

    @pytest.mark.parametrize("rescale", kway.RESCALE_METHODS)
    def test_constraints_deformed_by_row_normalize_only(self, rescale):
        res = sp.cluster(w1_graph(), 3, rescale=rescale)
        assert res.constraints_deformed == (rescale == "row_normalize")

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

    @pytest.mark.parametrize("name", ["w1", "g1", "g2"])
    def test_ratio_cuts_take_r1_from_their_constraint(self, name, monkeypatch):
        """A ratio cut's relaxation has Z^T Z = c^2 I, so cluster takes
        R1 = I without calling init_rotation_R1 and rescales Z1 once, and
        returns what the pipeline that solves for R1 and rescales Z1 R1 on
        its own returns (conftest.reference_cluster), to the bit, on every
        K = 2..5 and rescale. The normalized cut still calls it once."""
        g = GOLDEN_GRAPHS[name]()
        signed = "signed_" if name != "w1" else ""
        cases = [(K, rescale) for K in range(2, 6) for rescale in kway.RESCALE_METHODS]

        def outcome(run, K, rescale):
            try:
                return run(g, K, signed + "rcut", rescale)
            except NoConvergence as exc:
                return str(exc)

        def cluster(g, K, mode, rescale):
            res = sp.cluster(g, K, mode, rescale)
            return res.X.assignment, res.objective, res.Q.Q, res.iterations, res.residual

        want = [outcome(reference_cluster, K, rescale) for K, rescale in cases]
        calls = []
        r1 = kway.init_rotation_R1
        monkeypatch.setattr(kway, "init_rotation_R1", lambda Z: calls.append(Z) or r1(Z))
        for (K, rescale), ref in zip(cases, want):
            got = outcome(cluster, K, rescale)
            if isinstance(ref, str):
                assert got == ref
                continue
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[2], ref[2])
            assert (got[1], got[3], got[4]) == (ref[1], ref[3], ref[4])
        assert sum(isinstance(ref, str) for ref in want) < len(want) and not calls
        sp.cluster(g, 3, signed + "ncut")
        assert len(calls) == 1

    @pytest.mark.parametrize("mode, starts", [("rcut", 1), ("signed_rcut", 1), ("ncut", 2), ("signed_ncut", 2)])
    def test_each_distinct_start_is_scored_once(self, mode, starts, monkeypatch):
        """A ratio cut's one initial solution (R1 = I, so Z1 R1 is Z1) is
        scored alone: one R2 and two residuals, for I and R2. A normalized
        cut scores Z1 and Z1 R1: two R2 and four residuals."""
        g = g2_signed() if mode.startswith("signed") else w1_graph()
        r2_inputs, residuals = [], []
        r2, score = kway.init_rotation_R2, kway._score_candidates

        def scoring(*args):
            Q0, res = score(*args)
            residuals.append(res)
            return Q0, res

        monkeypatch.setattr(kway, "init_rotation_R2", lambda Z: r2_inputs.append(Z) or r2(Z))
        monkeypatch.setattr(kway, "_score_candidates", scoring)
        sp.cluster(g, 3, mode)
        assert len(r2_inputs) == starts
        assert [len(res) for res in residuals] == [2 * starts]

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

    @pytest.mark.parametrize("mode", kway.MODES)
    def test_brute_force_bounds_small(self, rng, mode):
        # signed modes on signed graphs: the bound holds for any Laplacian
        for _ in range(5):
            n = int(rng.integers(5, 8))
            K = int(rng.integers(2, 4))
            g = random_connected(rng, n, signed=mode.startswith("signed"))
            best = min(
                sp.objective(g, [[i + 1 for i in b] for b in part], mode)
                for part in set_partitions(n, K))
            res = sp.cluster(g, K, mode=mode)
            assert sp.solve_relaxed(g, K, mode).eigenvalues.sum() <= best + 1e-9
            assert res.objective >= best - 1e-9

    @pytest.mark.parametrize("K", [2, 3, 4])
    @pytest.mark.parametrize("graph, mode", [
        *((w1_graph, mode) for mode in kway.MODES),
        *((graph, mode) for graph in (g1_signed, g2_signed) for mode in ("signed_ncut", "signed_rcut")),
    ], ids=lambda v: getattr(v, "__name__", v))
    def test_relaxation_bounds_golden_optimum(self, graph, mode, K):
        """The sum of the K smallest eigenvalues of the mode's Laplacian is
        at most the objective of every K-way partition (Ky Fan: the
        partition's indicator columns are orthogonal)."""
        g = graph()
        best = min(
            sp.objective(g, [[i + 1 for i in b] for b in part], mode)
            for part in set_partitions(g.m, K))
        assert sp.solve_relaxed(g, K, mode).eigenvalues.sum() <= best + 1e-9


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


def _scoring_inputs(g):
    """(Zinit1, Zinit2, R1) of every K = 2..5, mode and rescale that
    cluster can run on g, as cluster builds them."""
    signed = bool((g.W < 0).any())
    out = []
    for K in range(2, min(5, g.m) + 1):
        for mode in ("signed_ncut", "signed_rcut") if signed else ("ncut", "rcut"):
            for rescale in kway.RESCALE_METHODS:
                try:
                    Z1 = sp.solve_relaxed(g, K, mode).Z
                    R1 = sp.init_rotation_R1(Z1).R
                except sp.errors.SpeclapError:
                    continue
                Zinit1 = sp.rescale_variant(Z1, rescale)
                Zinit2 = sp.rescale_variant(Z1 @ R1, rescale)
                out.append((Zinit1, Zinit2, R1))
    return out


def _assert_scoring_matches_reference(Zinit1, Zinit2, R1):
    """The stacked pass picks the reference loop's Q0 bit for bit, and
    scores each candidate within 1e-15 of the loop's residual; returns the
    reference's count of roundings that repaired a column.

    A residual at rounding level, at most 16 eps ||Zc Rc||_F for candidate
    Zc Rc (an exact fit, as on complete12), is noise that any reordering of
    the same operations moves: there the stacked residual must lie at that
    level too. On the golden graphs such residuals reach 3.8 eps ||Zc Rc||_F
    and the next ones lie above 400 eps ||Zc Rc||_F."""
    K = R1.shape[0]
    Q0, residuals = kway._score_candidates([(Zinit1, np.eye(K)), (Zinit2, R1)])
    ref_Q0, ref_residuals, repairs = reference_score_candidates(Zinit1, Zinit2, R1)
    assert np.array_equal(Q0, ref_Q0)
    noise = 16 * np.finfo(float).eps * np.array(
        [np.linalg.norm(Zc @ Rc) for Zc in (Zinit1, Zinit2) for Rc in (np.eye(K), reference_init_rotation_R2(Zc))])
    signal = np.asarray(ref_residuals) > noise
    assert np.all((np.abs(residuals - ref_residuals) <= 1e-15 * np.abs(ref_residuals))[signal])
    assert np.all(residuals[~signal] <= noise[~signal])
    return repairs


class TestStackedScoring:
    """cluster's candidate scoring, one stacked pass over the eight roundings
    (kway._score_candidates), against the per-candidate loop it replaced
    (conftest.reference_score_candidates)."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_GRAPHS))
    def test_golden_graphs(self, name):
        cases = _scoring_inputs(GOLDEN_GRAPHS[name]())
        assert cases
        for Zinit1, Zinit2, R1 in cases:
            _assert_scoring_matches_reference(Zinit1, Zinit2, R1)

    @pytest.mark.parametrize("seed", range(6))
    def test_several_candidates_repair_columns(self, seed):
        # rows dominated by column 0: most roundings leave columns empty
        rng = np.random.default_rng(seed)
        K = 3 + seed % 3
        Zinit1, Zinit2 = (rng.uniform(0.0, 1.0, (12, K)) + np.eye(K)[0] * 2.0 for _ in range(2))
        R1 = np.linalg.qr(rng.standard_normal((K, K)))[0]
        assert _assert_scoring_matches_reference(Zinit1, Zinit2, R1) >= 2

    @pytest.mark.parametrize("seed", range(6))
    def test_non_orthogonal_r2(self, seed):
        # Gaussian rows: R2's greedy picks are far from orthogonal, so a
        # candidate's plain scale ||Zc|| and flipped scale ||Zc R2|| differ
        rng = np.random.default_rng(100 + seed)
        K = 3 + seed % 3
        Zinit1, Zinit2 = rng.standard_normal((12, K)), rng.standard_normal((12, K)) - 0.5
        R1 = np.linalg.qr(rng.standard_normal((K, K)))[0]
        R2 = sp.init_rotation_R2(Zinit1).R
        G = R2.T @ R2
        assert np.max(np.abs(G - np.eye(K))) > 0.2
        assert abs(np.linalg.norm(Zinit1 @ R2) - np.linalg.norm(Zinit1)) > 1e-3 * np.linalg.norm(Zinit1)
        _assert_scoring_matches_reference(Zinit1, Zinit2, R1)

    def test_r2_matches_reference(self):
        rng = np.random.default_rng(7)
        cases = [rng.standard_normal((n, K)) for n, K in ((12, 3), (12, 5), (48, 3), (120, 4))]
        cases += [np.array([[1.0, 0.0], [1e-16, 1.0], [0.0, -1.0]]), np.vstack([np.ones((4, 3)), np.eye(3)])]
        for Z in cases:
            assert np.array_equal(sp.init_rotation_R2(Z).R, reference_init_rotation_R2(Z))


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
    """The relaxation's n x n solve by Lanczos, Sturm multisection and
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


# each call takes (g, z, Z, out): z a vector with one non-finite entry, Z
# the 4 x 2 matrix of z and a finite column, out an empty directory
NON_FINITE_CALLS = pytest.mark.parametrize("call", [
    lambda g, z, Z, out: sp.round_2way(g, z),
    lambda g, z, Z, out: sp.orient_sign(z),
    lambda g, z, Z, out: sp.podx(Z),
    lambda g, z, Z, out: sp.podx(np.eye(4, 2), Z[2:]),
    lambda g, z, Z, out: sp.podr(Z, np.eye(4, 2)),
    lambda g, z, Z, out: sp.init_rotation_R2(Z),
    lambda g, z, Z, out: sp.flip_columns(Z),
    lambda g, z, Z, out: sp.first_column_rotation(g, Z),
    lambda g, z, Z, out: sp.energy(g, z),
    lambda g, z, Z, out: sp.emit_svg(Z, g, out / "drawing.svg"),
    lambda g, z, Z, out: sp.emit_csv(Z, out / "drawing.csv"),
], ids=["round_2way", "orient_sign", "podx", "podx_Q", "podr_X", "init_rotation_R2", "flip_columns",
        "first_column_rotation", "energy", "emit_svg", "emit_csv"])


def _assert_non_finite_rejected(call, bad, out):
    """The bad entry is refused with the eigen layer's ValueError, without a
    numpy RuntimeWarning on the way and without writing a file."""
    z = np.array([1.0, -1.0, bad, 0.5])
    Z = np.column_stack((z, [1.0, 2.0, 3.0, 4.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            call(path(4), z, Z, out)
    assert not any(out.iterdir())


@NON_FINITE_CALLS
def test_nan_input_rejected(call, tmp_path):
    _assert_non_finite_rejected(call, np.nan, tmp_path)


@NON_FINITE_CALLS
def test_inf_input_rejected(call, tmp_path):
    _assert_non_finite_rejected(call, np.inf, tmp_path)

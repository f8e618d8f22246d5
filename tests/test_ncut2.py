"""Two-way normalized cut: objective, relaxation, sign orientation, rounding."""

import itertools

import numpy as np
import pytest

import speclap as sp
from speclap.errors import AllOneSide, DegenerateSubset, NegativeWeightInUnsignedMode, NotConnected

from conftest import W4, g1_signed, path, random_connected, w1_graph


def brute_force_min_ncut(g):
    best = None
    for mask in range(1, 2 ** g.m - 1):
        A = [i + 1 for i in range(g.m) if mask >> i & 1]
        v = sp.ncut2_value(g, A)
        if best is None or v < best[0]:
            best = (v, frozenset(A))
    return best


class TestNcutValue:
    def test_disconnected_cliques(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        assert sp.ncut2_value(sp.Graph(W), [1, 2]) == 0.0

    def test_single_edge(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        assert sp.ncut2_value(sp.Graph(W), [1]) == pytest.approx(2.0)

    def test_four_node_pair(self):
        g = sp.Graph(W4)
        assert sp.ncut2_value(g, [1, 4]) == pytest.approx(15 * (1 / 21 + 1 / 15))

    def test_degenerate_subsets_rejected(self):
        g = sp.Graph(W4)
        with pytest.raises(DegenerateSubset):
            sp.ncut2_value(g, [])
        with pytest.raises(DegenerateSubset):
            sp.ncut2_value(g, [1, 2, 3, 4])

        # a side made of isolated nodes has zero volume
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(DegenerateSubset, match="positive volume"):
            sp.ncut2_value(sp.Graph(W), [3])

    def test_signed_graph_rejected(self):
        with pytest.raises(NegativeWeightInUnsignedMode):
            sp.ncut2_value(g1_signed(), [1, 2, 4, 7, 8])


class TestRelaxation:
    def test_single_edge_eigenvector(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        Z = sp.solve_relaxed_2way(sp.Graph(W))
        assert np.allclose(np.abs(Z), np.abs(Z[0]))
        assert Z[0] * Z[1] < 0

    def test_degree_orthogonality(self, rng):
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(3, 10)))
            Z = sp.solve_relaxed_2way(g)
            d = sp.degree_vector(g)
            assert abs(Z @ d) < 1e-8
            assert (Z > 0).any() and (Z < 0).any()

    def test_nine_node_signs_match_brute_force_optimum(self):
        g = w1_graph()
        Z = sp.solve_relaxed_2way(g)
        _, best = brute_force_min_ncut(g)
        assert best == frozenset({1, 2, 4, 5})  # Ncut 2/9
        pos = frozenset(i + 1 for i in range(9) if Z[i] > 0)
        assert pos in (best, frozenset(range(1, 10)) - best)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            sp.solve_relaxed_2way(sp.Graph(np.zeros((3, 3))))

    def test_signed_graph_rejected(self):
        with pytest.raises(NegativeWeightInUnsignedMode):
            sp.solve_relaxed_2way(g1_signed())

    def test_is_unnormalized_second_eigenvector(self, rng):
        # D^{-1/2} times the unit eigenvector of L_sym for nu_2, so Z^T D Z = 1
        for _ in range(5):
            g = random_connected(rng, int(rng.integers(3, 12)))
            lap = sp.laplacian(g, "sym")
            _, Y = sp.eigen.smallest_k(lap.M, 2)
            Z = sp.solve_relaxed_2way(g)
            assert np.allclose(Z, Y[:, 1] / np.sqrt(lap.degree), rtol=1e-12, atol=1e-12 * np.abs(Z).max())
            assert Z @ (lap.degree * Z) == pytest.approx(1.0, rel=1e-12)


class TestOrientSign:
    def test_flat_positive_side_unchanged(self):
        Z = np.array([2.0, 2.0, -1.0, -3.0])
        assert np.array_equal(sp.orient_sign(Z), Z)

    def test_spread_positive_side_flipped(self):
        Z = np.array([-2.0, -2.0, 1.0, 3.0])
        assert np.array_equal(sp.orient_sign(Z), -Z)

    def test_tie_no_flip(self):
        Z = np.array([1.0, -1.0])
        assert np.array_equal(sp.orient_sign(Z), Z)


class TestRounding:
    def test_no_zeros_keeps_sign_pattern(self, rng):
        for _ in range(10):
            g = random_connected(rng, 7)
            Z = sp.solve_relaxed_2way(g)
            assert not np.any(Z == 0)
            res = sp.round_2way(g, Z)
            pos = {i + 1 for i in range(7) if Z[i] > 0}
            assert res.partition[0].members == pos

    def test_zero_entry_resolved_by_residual(self):
        # 4-node path, Z has a zero at node 2; both placements evaluated
        g = path(4)
        Z = np.array([1.0, 0.0, -1.0, 1.0])
        res = sp.round_2way(g, Z)
        d = np.array([1.0, 2.0, 2.0, 1.0])
        best = None
        for members in ([1, 4], [1, 2, 4]):
            mask = np.array([i + 1 in members for i in range(4)])
            alpha = d[mask].sum()
            beta = alpha / (6.0 - alpha)
            a = np.linalg.norm(Z) / np.sqrt(mask.sum() + beta ** 2 * (4 - mask.sum()))
            X = np.where(mask, a, -beta * a)
            r = np.linalg.norm(X - Z)
            if best is None or r < best[0]:
                best = (r, set(members))
        assert res.partition[0].members == best[1]
        assert res.residual == pytest.approx(best[0], abs=1e-12)

    def test_degree_weighted_orthogonality(self, rng):
        g = random_connected(rng, 8)
        res = sp.round_2way(g, sp.solve_relaxed_2way(g))
        d = sp.degree_vector(g)
        assert abs(res.X.vector() @ d) < 1e-8
        assert np.linalg.norm(res.X.vector()) == pytest.approx(
            np.linalg.norm(res.Z), abs=1e-10)

    def test_one_signed_rejected(self, rng):
        g = random_connected(rng, 4)
        with pytest.raises(AllOneSide):
            sp.round_2way(g, np.array([1.0, 2.0, 3.0, 4.0]))

    @pytest.mark.parametrize("Z", [[1.0, 2.0, 3.0, -1.0], [-1.0, -2.0, -3.0, 1.0]])
    def test_side_without_volume_rejected(self, Z):
        # path 1-2-3 and an isolated node 4: one side is {4}, of volume 0
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = W[1, 2] = W[2, 1] = 1.0
        with pytest.raises(DegenerateSubset, match="positive volume"):
            sp.round_2way(sp.Graph(W), np.array(Z))

    def test_move_leaving_a_side_without_volume_skipped(self):
        # edge 1-2 and an isolated node 3: moving node 2 would leave {3}
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        res = sp.round_2way(sp.Graph(W), np.array([1.0, 0.0, -1.0]))
        assert [sorted(p.members) for p in res.partition] == [[1], [2, 3]]
        assert res.ncut == 2.0

    def test_naive_zero_rule_baseline(self):
        # assigning every zero to the positive side never beats the refinement
        g = path(4)
        Z = np.array([1.0, 0.0, -1.0, 1.0])
        res = sp.round_2way(g, Z)
        d = np.array([1.0, 2.0, 2.0, 1.0])
        mask = Z >= 0
        alpha = d[mask].sum()
        beta = alpha / (6.0 - alpha)
        a = np.linalg.norm(Z) / np.sqrt(mask.sum() + beta ** 2 * (4 - mask.sum()))
        naive = np.linalg.norm(np.where(mask, a, -beta * a) - Z)
        assert res.residual <= naive + 1e-12


class TestTwoWayInvariants:
    def test_rayleigh_identity(self, rng):
        for _ in range(15):
            g = random_connected(rng, int(rng.integers(3, 9)))
            res = sp.round_2way(g, sp.solve_relaxed_2way(g))
            X = res.X.vector()
            L = sp.laplacian(g, "unnormalized").M
            D = np.diag(sp.degree_vector(g))
            quot = float(X @ L @ X) / float(X @ D @ X)
            assert quot == pytest.approx(res.ncut, abs=1e-8)

    def test_scale_invariance(self, rng):
        for c in (0.5, 3.0, 100.0):
            g = random_connected(rng, 7)
            Z = sp.solve_relaxed_2way(g)
            assert (sp.round_2way(g, Z).partition[0].members
                    == sp.round_2way(g, c * Z).partition[0].members)

    def test_relaxation_lower_bound(self, rng):
        for _ in range(8):
            n = int(rng.integers(4, 11))
            g = random_connected(rng, n)
            nu = sp.sym_eigen(sp.laplacian(g, "sym").M).values
            best, _ = brute_force_min_ncut(g)
            res = sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g)))
            assert nu[1] <= best + 1e-9
            assert nu[1] <= res.ncut + 1e-9

    def test_textbook_normalizations_satisfy_orthogonality(self, rng):
        # three classic (a, b) level choices all give X^T D 1 = 0
        for _ in range(25):
            d = float(rng.uniform(5, 50))
            alpha = float(rng.uniform(1, d - 1))
            pairs = [
                (np.sqrt((d - alpha) / alpha), -np.sqrt(alpha / (d - alpha))),
                (1.0, -(alpha / d) / (1 - alpha / d)),
                (1.0 / alpha, -1.0 / (d - alpha)),
            ]
            for a, b in pairs:
                assert a * alpha + b * (d - alpha) == pytest.approx(0.0, abs=1e-9 * d)

    def test_result_ncut_consistency(self, rng):
        g = random_connected(rng, 8)
        res = sp.round_2way(g, sp.solve_relaxed_2way(g))
        assert res.ncut == pytest.approx(sp.ncut2_value(g, res.partition[0]), abs=1e-10)

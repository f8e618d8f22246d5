"""Graph representation, combinatorial quantities, orientations, incidence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import speclap as sp
from speclap.errors import NonFiniteWeight, SpeclapError

from conftest import (
    A5,
    B4,
    L5,
    W4,
    complete,
    random_connected,
    random_sparse,
    reference_components,
    ring,
    w1_graph,
)


def g4():
    return sp.Graph(W4)


def g5():
    return sp.Graph(A5)


class TestGraphType:
    def test_rejects_asymmetric(self):
        W = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises((SpeclapError, ValueError)):
            sp.Graph(W)

    def test_rejects_nonzero_diagonal(self):
        W = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises((SpeclapError, ValueError)):
            sp.Graph(W)

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, w):
        W = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, w], [1.0, w, 0.0]])
        with pytest.raises(NonFiniteWeight):
            sp.Graph(W)

    def test_weight_matrix_read_only(self):
        g = g4()
        with pytest.raises((ValueError, RuntimeError)):
            g.W[0, 1] = 5.0

    def test_symmetrize_helper(self):
        W = np.array([[0.0, 2.0], [0.0, 0.0]])
        S = sp.symmetrize(W)
        assert S[0, 1] == S[1, 0] == 1.0
        sp.Graph(S)  # symmetrized matrix is accepted

    def test_edge_iff_nonzero(self):
        g = g4()
        assert g.edge_count() == 5

    def test_node_subset_validation(self):
        with pytest.raises((SpeclapError, ValueError)):
            sp.NodeSubset([0], m=4)
        with pytest.raises((SpeclapError, ValueError)):
            sp.NodeSubset([5], m=4)


class TestDegreeVolume:
    def test_degree_five_node(self):
        assert np.array_equal(sp.degree_vector(g5()), [2, 4, 3, 3, 2])

    def test_degree_four_node(self):
        assert np.array_equal(sp.degree_vector(g4()), [12, 6, 9, 9])

    def test_degree_empty(self):
        g = sp.Graph(np.zeros((3, 3)))
        assert np.array_equal(sp.degree_vector(g), [0, 0, 0])

    def test_signed_degree_uses_absolute_values(self):
        W = np.array([[0.0, -2.0], [-2.0, 0.0]])
        g = sp.Graph(W)
        assert np.array_equal(sp.degree_vector(g, signed=True), [2, 2])
        assert np.array_equal(sp.degree_vector(g, signed=False), [-2, -2])

    def test_volume_whole_graph(self):
        assert sp.volume(g4(), sp.NodeSubset([1, 2, 3, 4], m=4)) == 36

    def test_volume_empty(self):
        assert sp.volume(g4(), sp.NodeSubset([], m=4)) == 0

    def test_volume_single(self):
        assert sp.volume(g4(), sp.NodeSubset([1], m=4)) == 12


class TestLinksCut:
    def test_links_to_whole_graph_is_volume(self):
        g = g4()
        A = sp.NodeSubset([1, 4], m=4)
        V = sp.NodeSubset([1, 2, 3, 4], m=4)
        assert sp.links(g, A, V) == sp.volume(g, A)

    def test_links_single_pair(self):
        g = g4()
        assert sp.links(g, sp.NodeSubset([1], m=4), sp.NodeSubset([3], m=4)) == 6

    def test_links_negative_filter_on_positive_graph(self):
        g = g4()
        A = sp.NodeSubset([1, 2], m=4)
        assert sp.links(g, A, A, "negative_only") == 0

    def test_links_negative_filter_counts_magnitude(self):
        W = np.array([[0.0, -3.0], [-3.0, 0.0]])
        g = sp.Graph(W)
        A = sp.NodeSubset([1, 2], m=2)
        assert sp.links(g, A, A, "negative_only") == 6  # both ordered pairs

    def test_cut_whole_graph(self):
        assert sp.cut(g4(), sp.NodeSubset([1, 2, 3, 4], m=4)) == 0

    def test_cut_single(self):
        assert sp.cut(g4(), sp.NodeSubset([1], m=4)) == 12

    def test_cut_pair(self):
        assert sp.cut(g4(), sp.NodeSubset([1, 4], m=4)) == 15

    def test_cut_uses_absolute_weights(self):
        W = np.array([[0.0, -3.0], [-3.0, 0.0]])
        g = sp.Graph(W)
        assert sp.cut(g, sp.NodeSubset([1], m=2)) == 3

    @given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1))
    @settings(max_examples=60, deadline=None)
    def test_links_symmetric_and_cut_complement(self, mask_a, mask_b):
        rng = np.random.default_rng(7)
        g = random_connected(rng, 6, signed=True)
        A = sp.NodeSubset([i + 1 for i in range(6) if mask_a >> i & 1], m=6)
        B = sp.NodeSubset([i + 1 for i in range(6) if mask_b >> i & 1], m=6)
        assert sp.links(g, A, B) == pytest.approx(sp.links(g, B, A))
        comp = sp.NodeSubset(set(range(1, 7)) - A.members, m=6)
        assert sp.cut(g, A) == pytest.approx(sp.cut(g, comp))

    def test_cut_plus_assoc_is_volume(self, rng):
        g = random_connected(rng, 7)
        A = sp.NodeSubset([1, 3, 5], m=7)
        assoc = sp.links(g, A, A)
        assert sp.cut(g, A) + assoc == pytest.approx(sp.volume(g, A))


class TestConnectivity:
    def test_connected_graph(self):
        _, c = sp.connected_components(g5())
        assert c == 1

    def test_all_isolated(self):
        labels, c = sp.connected_components(sp.Graph(np.zeros((3, 3))))
        assert c == 3
        assert np.array_equal(labels, [1, 2, 3])

    def test_two_blocks(self):
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        labels, c = sp.connected_components(sp.Graph(W))
        assert c == 2
        assert np.array_equal(labels, [1, 1, 2, 2])

    def test_matches_reference_walk(self, rng):
        # sparse draws give disconnected graphs and isolated nodes
        split = isolated = 0
        for _ in range(60):
            n = int(rng.integers(1, 30))
            p = float(rng.choice([0.03, 0.1, 0.3]))
            g = random_sparse(rng, n, p, str(rng.choice(["positive", "balanced", "mixed"])))
            labels, c = sp.connected_components(g)
            ref_labels, ref_c = reference_components(g)
            assert c == ref_c
            assert np.array_equal(labels, ref_labels)
            split += c > 1
            isolated += bool(np.any(sp.degree_vector(g, signed=True) == 0))
        assert split > 0 and isolated > 0


class TestOrientationIncidence:
    def test_orient_four_node(self):
        og = sp.orient(g4())
        assert [(e[0], e[1]) for e in og.edges] == [(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)]

    def test_orient_single_edge(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        og = sp.orient(sp.Graph(W))
        assert [(e[0], e[1]) for e in og.edges] == [(1, 2)]

    def test_orient_empty(self):
        assert len(sp.orient(sp.Graph(np.zeros((3, 3)))).edges) == 0

    def test_incidence_four_node_matches_reference(self):
        B = sp.incidence_matrix(sp.orient(g4())).B
        assert np.allclose(B, B4, atol=5e-5)

    def test_incidence_unit_edge(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 1.0
        B = sp.incidence_matrix(sp.orient(sp.Graph(W))).B
        assert np.allclose(B, [[1.0], [-1.0]])

    def test_incidence_signed_negative_edge(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        B = sp.incidence_matrix(sp.orient(sp.Graph(W)), signed=True).B
        assert np.allclose(B, [[1.0], [1.0]])

    def test_incidence_rejects_negative_unsigned(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(SpeclapError):
            sp.incidence_matrix(sp.orient(sp.Graph(W)), signed=False)

    def test_adjacency_five_node(self):
        assert np.array_equal(sp.adjacency_matrix(g5()), A5)

    def test_adjacency_zero(self):
        assert np.array_equal(sp.adjacency_matrix(sp.Graph(np.zeros((2, 2)))), np.zeros((2, 2)))

    def test_adjacency_four_node_pattern(self):
        expect = np.array([[0, 1, 1, 1], [1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 0]])
        assert np.array_equal(sp.adjacency_matrix(g4()), expect)


class TestIncidenceInvariants:
    def test_bbt_equals_laplacian_unsigned(self, rng):
        for _ in range(20):
            g = random_connected(rng, rng.integers(3, 9))
            B = sp.incidence_matrix(sp.orient(g)).B
            D = np.diag(sp.degree_vector(g))
            assert np.allclose(B @ B.T, D - g.W, atol=1e-12)

    def test_bbt_equals_laplacian_signed(self, rng):
        for _ in range(20):
            g = random_connected(rng, rng.integers(3, 9), signed=True)
            B = sp.incidence_matrix(sp.orient(g), signed=True).B
            Dbar = np.diag(sp.degree_vector(g, signed=True))
            assert np.allclose(B @ B.T, Dbar - g.W, atol=1e-12)

    def test_columns_sum_to_zero_unsigned(self, rng):
        g = random_connected(rng, 8)
        B = sp.incidence_matrix(sp.orient(g)).B
        assert np.allclose(B.T @ np.ones(8), 0.0, atol=1e-12)

    def test_unoriented_01_incidence(self):
        # test-only construction: 0/1 incidence without orientation satisfies
        # B B^T = D + A for unweighted graphs
        g = g5()
        og = sp.orient(g)
        B = np.zeros((g.m, len(og.edges)))
        for k, (i, j, _) in enumerate(og.edges):
            B[i - 1, k] = 1.0
            B[j - 1, k] = 1.0
        D = np.diag(sp.degree_vector(g))
        assert np.allclose(B @ B.T, D + A5)

    def test_component_count_is_m_minus_rank(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 9))
            g = random_connected(rng, n)
            if rng.random() < 0.5:  # splice in a disjoint copy
                W = np.zeros((2 * n, 2 * n))
                W[:n, :n] = g.W
                W[n:, n:] = g.W
                g = sp.Graph(W)
            B = sp.incidence_matrix(sp.orient(g)).B
            s = sp.svd(B).S
            rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
            _, c = sp.connected_components(g)
            assert c == g.m - rank

    def test_laplacian_example_five_node(self):
        B = sp.incidence_matrix(sp.orient(g5())).B
        assert np.allclose(B @ B.T, L5)

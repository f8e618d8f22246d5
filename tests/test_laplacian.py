"""Laplacian variants, quadratic forms, balance detection, conjugation."""

import sys
import warnings

import numpy as np
import pytest

import speclap as sp
from speclap.errors import IsolatedVertex, NegativeWeightInUnsignedMode, NotConnected, SpeclapError
from speclap.laplacian import KINDS

from conftest import (
    A5,
    G1_BIPARTITION,
    L1BAR,
    L2BAR,
    L5,
    W4,
    edge_sum_form,
    g1_signed,
    g2_signed,
    random_connected,
    random_sparse,
    reference_balance,
    reference_components,
    w1_graph,
)


class TestLaplacianConstruction:
    def test_five_node_unnormalized(self):
        lap = sp.laplacian(sp.Graph(A5), "unnormalized")
        assert np.array_equal(lap.M, L5)
        assert np.array_equal(np.diag(lap.M), [2, 4, 3, 3, 2])

    def test_signed_nine_node(self):
        lap = sp.laplacian(g1_signed(), "signed_unnormalized")
        assert np.array_equal(lap.M, L1BAR)
        assert np.array_equal(np.diag(lap.M), [2, 5, 3, 5, 6, 4, 2, 6, 3])

    def test_unbalanced_signed_nine_node(self):
        lap = sp.laplacian(g2_signed(), "signed_unnormalized")
        assert np.array_equal(lap.M, L2BAR)

    def test_isolated_vertex_rejected_for_sym(self):
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(SpeclapError):
            sp.laplacian(sp.Graph(W), "sym")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown Laplacian kind 'rw_sym'"):
            sp.laplacian(sp.Graph(A5), "rw_sym")

    def test_first_isolated_vertex_is_named(self):
        W = np.zeros((5, 5))
        W[1, 2] = W[2, 1] = 1.0  # nodes 1, 4 and 5 are isolated
        with pytest.raises(IsolatedVertex) as err:
            sp.laplacian(sp.Graph(W), "rw")
        assert err.value.node == 1

    @pytest.mark.parametrize("kind", ["sym", "rw"])
    @pytest.mark.parametrize("graph, node", [(g1_signed, 5), (g2_signed, 8)])
    def test_cancelled_degree_is_not_isolated(self, graph, node, kind):
        # the node has 6 edges, but its plain degree is 0: not isolated, and
        # the normalised unsigned kinds are undefined there
        g = graph()
        assert np.count_nonzero(g.W[node - 1]) == 6
        assert sp.degree_vector(g)[node - 1] == 0
        with pytest.raises(NegativeWeightInUnsignedMode,
                           match=rf"the {kind} Laplacian .* node {node} has edges but plain degree 0.0: use signed_sym"):
            sp.laplacian(g, kind)

    def test_isolated_vertex_named_before_cancelled_degree(self):
        # node 1 has no edge; node 4's weights cancel
        W = np.zeros((4, 4))
        W[1, 3] = W[3, 1] = 1.0
        W[2, 3] = W[3, 2] = -1.0
        W[1, 2] = W[2, 1] = 3.0
        with pytest.raises(IsolatedVertex) as err:
            sp.laplacian(sp.Graph(W), "sym")
        assert err.value.node == 1
        W[0, 1] = W[1, 0] = 1.0
        with pytest.raises(NegativeWeightInUnsignedMode, match="node 4 has edges but plain degree 0.0"):
            sp.laplacian(sp.Graph(W), "sym")

    def test_rows_sum_to_zero_unnormalized(self, rng):
        g = random_connected(rng, 7)
        lap = sp.laplacian(g, "unnormalized")
        assert np.allclose(lap.M @ np.ones(7), 0.0, atol=1e-12)

    def test_sym_unit_diagonal(self, rng):
        g = random_connected(rng, 6)
        lap = sp.laplacian(g, "sym")
        assert np.allclose(np.diag(lap.M), 1.0)

    def test_rw_is_dinv_l(self, rng):
        g = random_connected(rng, 6)
        L = sp.laplacian(g, "unnormalized").M
        Lrw = sp.laplacian(g, "rw").M
        d = sp.degree_vector(g)
        assert np.allclose(Lrw, L / d[:, None], atol=1e-12)


class TestQuadraticForm:
    def test_constant_vector_in_kernel(self, rng):
        g = random_connected(rng, 6)
        assert sp.quadratic_form(g, np.ones(6)) == pytest.approx(0.0, abs=1e-12)

    def test_basis_vector_gives_degree(self):
        g = sp.Graph(W4)
        assert sp.quadratic_form(g, np.eye(4)[0]) == pytest.approx(12.0)

    def test_bipartition_in_signed_kernel(self):
        g = g1_signed()
        x = np.array([1.0 if i in G1_BIPARTITION[0] else -1.0 for i in range(1, 10)])
        assert sp.quadratic_form(g, x, signed=True) == pytest.approx(0.0, abs=1e-12)

    def test_matches_matrix_form(self, rng):
        for _ in range(20):
            signed = bool(rng.random() < 0.5)
            g = random_connected(rng, 7, signed=signed)
            x = rng.standard_normal(7)
            kind = "signed_unnormalized" if signed else "unnormalized"
            M = sp.laplacian(g, kind).M
            expect = float(x @ M @ x)
            got = sp.quadratic_form(g, x, signed=signed)
            assert got == pytest.approx(expect, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("signed", [False, True])
    def test_matrix_matches_columns_dense_and_edge_sum(self, signed):
        rng = np.random.default_rng(106)
        for _ in range(20):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, 5))
            g = random_connected(rng, n, signed=signed)
            X = rng.standard_normal((n, k))
            got = sp.quadratic_form(g, X, signed=signed)
            assert got.shape == (k,)
            scale = np.abs(X).max() ** 2 * np.abs(g.W).sum()
            cols = [sp.quadratic_form(g, X[:, j], signed=signed) for j in range(k)]
            assert np.allclose(got, cols, rtol=0, atol=1e-14 * scale)
            L = sp.laplacian(g, "signed_unnormalized" if signed else "unnormalized").M
            assert np.allclose(got, np.diag(X.T @ L @ X), rtol=0, atol=1e-13 * scale)
            edge = [edge_sum_form(g, X[:, j], signed=signed) for j in range(k)]
            assert np.allclose(got, edge, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("shape", [(5,), (5, 2), (3, 4, 2), (4, 2, 1), ()])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="one row per node"):
            sp.quadratic_form(sp.Graph(W4), np.zeros(shape))

    def test_signed_form_nonnegative(self, rng):
        for _ in range(10):
            g = random_connected(rng, 6, signed=True)
            x = rng.standard_normal(6)
            assert sp.quadratic_form(g, x, signed=True) >= -1e-10


class TestKernelDimension:
    """Every kind counts as its unnormalised kind: the normalised Laplacians,
    rw (not symmetric) included, are similar to D^-1/2 L D^-1/2."""

    def test_connected_graph(self, rng):
        g = random_connected(rng, 7)
        for kind in KINDS:
            assert sp.kernel_dimension(sp.laplacian(g, kind)) == 1, kind

    def test_two_components(self, rng):
        g = random_connected(rng, 4)
        W = np.zeros((8, 8))
        W[:4, :4] = g.W
        W[4:, 4:] = g.W
        g2 = sp.Graph(W)
        for kind in KINDS:
            assert sp.kernel_dimension(sp.laplacian(g2, kind)) == 2, kind

    @pytest.mark.parametrize("n", [1, 4])
    def test_edgeless_graph_is_all_kernel(self, n):
        # its Laplacians are the zero matrix, whose kernel is everything
        for kind in ("unnormalized", "signed_unnormalized"):
            assert sp.kernel_dimension(sp.laplacian(sp.Graph(np.zeros((n, n))), kind)) == n, kind

    def test_unbalanced_graph_trivial_kernel(self):
        for kind in ("signed_unnormalized", "signed_sym"):
            assert sp.kernel_dimension(sp.laplacian(g2_signed(), kind)) == 0, kind

    def test_balanced_graph_one_dim_kernel(self):
        for kind in ("signed_unnormalized", "signed_sym"):
            assert sp.kernel_dimension(sp.laplacian(g1_signed(), kind)) == 1, kind

    @pytest.mark.parametrize("graph", [g1_signed, g2_signed])
    def test_signed_graph_unsigned_laplacian(self, graph):
        # D - W of a signed graph is indefinite (G1: -3.62, -0.06, 0, ...;
        # G2: -2.70, -0.74, 0, ...): only the zero eigenvalue is kernel
        assert sp.kernel_dimension(sp.laplacian(graph(), "unnormalized")) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("components", [1, 2, 3, 4])
    def test_counts_match_eigvalsh(self, seed, components):
        """The count equals numpy's eigenvalues counted by the same rule,
        |lambda| <= 1e-9 max |lambda|, under every Laplacian kind, on
        disjoint unions of random connected components: unsigned, balanced
        (an unsigned union with random node signs s, w_ij -> s_i s_j w_ij)
        and signed at random. rw is counted on the sym Laplacian, the
        symmetric matrix it is similar to."""
        rng = np.random.default_rng(seed)
        sizes = [int(n) for n in rng.integers(3, 9, size=components)]
        starts = np.cumsum([0] + sizes)
        unions = {}
        for weights in ("unsigned", "signed"):
            W = np.zeros((starts[-1], starts[-1]))
            for a, b in zip(starts, starts[1:]):
                W[a:b, a:b] = random_connected(rng, b - a, signed=weights == "signed").W
            unions[weights] = W
        s = rng.choice([-1.0, 1.0], size=starts[-1])
        unions["balanced"] = unions["unsigned"] * np.outer(s, s)
        for weights, W in unions.items():
            g = sp.Graph(W)
            for kind in KINDS:
                try:
                    lap = sp.laplacian(g, kind)
                except (IsolatedVertex, NegativeWeightInUnsignedMode):  # a node with degree <= 0
                    continue
                M = sp.laplacian(g, "sym").M if kind == "rw" else lap.M
                size = np.abs(np.linalg.eigvalsh(M))
                expected = int(np.count_nonzero(size <= 1e-9 * size.max()))
                assert sp.kernel_dimension(lap) == expected, (weights, kind)
                if weights == "unsigned" or (weights == "balanced" and kind.startswith("signed")):
                    assert expected == components, (weights, kind)


class TestBalance:
    def test_balanced_nine_node(self):
        report = sp.is_balanced(g1_signed())
        assert report.balanced
        pos = {i + 1 for i, s in enumerate(report.bipartition) if s > 0}
        neg = {i + 1 for i, s in enumerate(report.bipartition) if s < 0}
        assert {frozenset(pos), frozenset(neg)} == {
            frozenset(G1_BIPARTITION[0]), frozenset(G1_BIPARTITION[1])}

    def test_unbalanced_nine_node(self):
        report = sp.is_balanced(g2_signed())
        assert not report.balanced
        assert report.bipartition is None

    def test_all_positive_triangle(self):
        W = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        report = sp.is_balanced(sp.Graph(W))
        assert report.balanced
        assert np.array_equal(report.bipartition, [1, 1, 1])

    def test_disconnected_rejected(self):
        with pytest.raises(SpeclapError):
            sp.is_balanced(sp.Graph(np.zeros((3, 3))))

    def test_bipartition_consistent_with_edge_signs(self, rng):
        # construct balanced graphs by conjugating a positive graph
        for _ in range(10):
            g = random_connected(rng, 7)
            x = rng.choice([-1.0, 1.0], size=7)
            W = g.W * np.outer(x, x)
            report = sp.is_balanced(sp.Graph(W))
            assert report.balanced
            s = report.bipartition
            for i in range(7):
                for j in range(7):
                    if W[i, j] != 0:
                        assert np.sign(W[i, j]) == s[i] * s[j]

    def test_matches_reference_bfs(self, rng):
        seen = {"disconnected": 0, "balanced": 0, "unbalanced": 0}
        for _ in range(80):
            n = int(rng.integers(2, 20))
            p = float(rng.choice([0.1, 0.3, 0.6]))
            g = random_sparse(rng, n, p, str(rng.choice(["positive", "balanced", "mixed"])))
            if reference_components(g)[1] != 1:
                with pytest.raises(NotConnected):
                    sp.is_balanced(g)
                seen["disconnected"] += 1
                continue
            report = sp.is_balanced(g)
            ref = reference_balance(g)
            assert report.balanced == (ref is not None)
            if ref is None:
                assert report.bipartition is None
            else:
                assert np.array_equal(report.bipartition, ref)
            seen["balanced" if report.balanced else "unbalanced"] += 1
        assert min(seen.values()) > 0

    def test_rank_criterion_cross_check(self, rng):
        # balanced connected signed graph <=> incidence rank m - 1
        for _ in range(15):
            g = random_connected(rng, 6, signed=True)
            B = sp.incidence_matrix(sp.orient(g), signed=True).B
            s = sp.svd(B).S
            rank = int(np.sum(s > 1e-9 * max(s[0], 1.0)))
            assert sp.is_balanced(g).balanced == (rank == 5)


class TestUnsignConjugation:
    def test_balanced_nine_node_spectrum(self):
        g = g1_signed()
        x = sp.is_balanced(g).bipartition
        gu, X = sp.unsign_conjugation(g, x)
        Lbar = sp.laplacian(g, "signed_unnormalized").M
        Lu = sp.laplacian(gu, "unnormalized").M
        assert np.allclose(Lbar, X @ Lu @ X, atol=1e-12)
        ev_signed = sp.sym_eigen(Lbar).values
        ev_unsigned = sp.sym_eigen(Lu).values
        assert np.allclose(ev_signed, ev_unsigned, atol=1e-8)

    def test_identity_on_positive_graph(self, rng):
        g = random_connected(rng, 5)
        gu, X = sp.unsign_conjugation(g, np.ones(5))
        assert np.array_equal(gu.W, g.W)
        assert np.array_equal(X, np.eye(5))

    @pytest.mark.parametrize("x", [np.ones(4), np.ones(6), np.r_[np.ones(4), 0.0], np.r_[np.ones(4), 2.0]])
    def test_bipartition_not_plus_minus_one_per_node_rejected(self, rng, x):
        with pytest.raises(ValueError, match=r"must be a \+/-1 vector of length m"):
            sp.unsign_conjugation(random_connected(rng, 5), x)

    @pytest.mark.parametrize("x, match", [([1.7, -1.2], r"\+/-1 vector"), ([1.0, -0.5], r"\+/-1 vector"),
                                          ([np.nan, -1.0], r"\+/-1 vector"), ([1 + 2j, -1], "complex"),
                                          (np.array([1 + 0j, -1 + 0j]), "complex")],
                             ids=["1.7", "0.5", "nan", "1+2j", "complex-dtype"])
    def test_bipartition_read_as_real_floats(self, monkeypatch, x, match):
        # refused before any work and with no numpy warning: a conversion
        # to int would truncate [1.7, -1.2] to diag(1, -1) on this graph,
        # and cast a complex array to its real part with only a
        # ComplexWarning
        def no_work(*args):
            raise AssertionError("the edges were read")

        monkeypatch.setattr(sys.modules["speclap.laplacian"], "_first_broken_edge", no_work)
        g = sp.Graph(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                sp.unsign_conjugation(g, x)

    def test_inconsistent_bipartition_rejected(self, rng):
        g = random_connected(rng, 5)
        x = np.ones(5)
        x[2] = -1.0
        with pytest.raises((SpeclapError, ValueError)):
            sp.unsign_conjugation(g, x)

    def test_first_broken_edge_is_named(self):
        g = g1_signed()
        x = sp.is_balanced(g).bipartition.copy()
        x[[4, 7]] *= -1  # breaks ten edges; (2, 5) comes first in row-major order
        with pytest.raises(ValueError, match=r"sign of edge \(2, 5\)$"):
            sp.unsign_conjugation(g, x)


class TestSpectralInvariants:
    def test_sym_and_rw_same_spectrum(self, rng):
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(4, 9)))
            Lsym = sp.laplacian(g, "sym").M
            Lrw = sp.laplacian(g, "rw").M
            ev_sym = sp.sym_eigen(Lsym).values
            ev_rw = np.sort(np.linalg.eigvals(Lrw).real)
            assert np.allclose(ev_sym, ev_rw, atol=1e-8)

    def test_rw_eigenvector_maps_to_sym(self, rng):
        g = random_connected(rng, 7)
        lap = sp.laplacian(g, "sym")
        Lrw = sp.laplacian(g, "rw").M
        eig = sp.sym_eigen(lap.M)
        d = np.sqrt(lap.degree)
        for k in range(7):
            u = eig.vectors[:, k] / d  # u solves the random-walk problem
            assert np.allclose(Lrw @ u, eig.values[k] * u, atol=1e-8)

    def test_generalized_problem_equivalence(self, rng):
        g = random_connected(rng, 6)
        L = sp.laplacian(g, "unnormalized").M
        D = np.diag(sp.degree_vector(g))
        lap = sp.laplacian(g, "sym")
        eig = sp.sym_eigen(lap.M)
        for k in range(6):
            u = eig.vectors[:, k] / np.sqrt(lap.degree)
            assert np.allclose(L @ u, eig.values[k] * (D @ u), atol=1e-8)

    def test_sym_spectrum_in_zero_two(self, rng):
        for _ in range(10):
            g = random_connected(rng, int(rng.integers(3, 10)))
            vals = sp.sym_eigen(sp.laplacian(g, "sym").M).values
            assert vals[0] >= -1e-10
            assert vals[-1] <= 2.0 + 1e-10

    def test_signed_definite_iff_unbalanced(self, rng):
        seen = {True: 0, False: 0}
        for _ in range(30):
            g = random_connected(rng, 6, signed=True)
            balanced = sp.is_balanced(g).balanced
            smallest = sp.sym_eigen(sp.laplacian(g, "signed_unnormalized").M).values[0]
            if balanced:
                assert smallest < 1e-8
            else:
                assert smallest > 1e-8
            seen[balanced] += 1
        assert seen[False] > 0  # the sample must exercise the definite case

    def test_sym_eigenvalues_are_squared_singular_values(self, rng):
        for _ in range(10):
            g = random_connected(rng, 6)
            lap = sp.laplacian(g, "sym")
            B = sp.incidence_matrix(sp.orient(g)).B
            Bsym = B / np.sqrt(lap.degree)[:, None]
            s2 = np.zeros(6)  # pad: a tree has fewer edges than nodes
            sq = np.sort(sp.svd(Bsym).S ** 2)
            s2[6 - sq.size:] = sq
            vals = sp.sym_eigen(lap.M).values
            assert np.allclose(s2, vals, atol=1e-8)

"""Spectral drawings: energy, optimality, signed variants, SVG/CSV output."""

import numpy as np
import pytest

import speclap as sp
from speclap.errors import DimensionTooLarge, NegativeWeightInUnsignedMode, NotConnected, NoNegativeEdges

from conftest import (
    G1_BIPARTITION,
    edge_sum_form,
    g1_signed,
    g2_signed,
    random_connected,
    random_orthonormal,
    ring,
    path,
)


def example1_graph():
    A = np.array([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], float)
    return sp.Graph(A)


def negative_cycle(n):
    g = ring(n)
    return sp.Graph(-g.W)


def cycle_one_negative(n):
    W = ring(n).W.copy()
    W[0, 1] = W[1, 0] = -1.0
    return sp.Graph(W)


class TestEnergy:
    def test_zero_drawing(self, rng):
        g = random_connected(rng, 5)
        assert sp.energy(g, np.zeros((5, 2))) == 0.0

    def test_ring_two_dim(self):
        g = ring(12)
        dm = sp.spectral_drawing(g, 2)
        assert sp.energy(g, dm) == pytest.approx(0.5359, abs=5e-4)

    def test_example1_two_dim(self):
        g = example1_graph()
        dm = sp.spectral_drawing(g, 2)
        assert sp.energy(g, dm) == pytest.approx(4.0, abs=1e-8)

    def test_dimension_mismatch(self, rng):
        g = random_connected(rng, 5)
        for shape in [(4, 2), (5, 2, 1)]:
            with pytest.raises(ValueError):
                sp.energy(g, np.zeros(shape))

    def test_trace_equals_edge_sum(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 9))
            signed = bool(rng.random() < 0.5)
            g = random_connected(rng, n, signed=signed)
            R = random_orthonormal(rng, n, 2)
            kind = "signed_unnormalized" if signed else "unnormalized"
            L = sp.laplacian(g, kind).M
            e = sp.energy(g, R, signed=signed)
            assert e == pytest.approx(float(np.trace(R.T @ L @ R)), rel=1e-10, abs=1e-10)
            # the edge-sum form, one drawing axis at a time
            edge_sum = sum(edge_sum_form(g, R[:, j], signed=signed) for j in range(2))
            assert abs(e - edge_sum) <= 1e-10 * max(abs(e), abs(edge_sum), 1.0)

    @pytest.mark.parametrize("signed", [False, True])
    def test_one_axis_drawing(self, signed):
        rng = np.random.default_rng(105)
        g = random_connected(rng, 8, signed=signed)
        x = rng.standard_normal(8)
        e = sp.energy(g, x, signed=signed)
        assert e == sp.quadratic_form(g, x, signed=signed)
        assert e == pytest.approx(sp.energy(g, x[:, None], signed=signed), rel=1e-12, abs=0)

    def test_rotation_invariance(self, rng):
        g = random_connected(rng, 7)
        R = random_orthonormal(rng, 7, 3)
        Q = random_orthonormal(rng, 3, 3)
        assert sp.energy(g, R) == pytest.approx(sp.energy(g, R @ Q), rel=1e-10)


class TestSpectralDrawing:
    @pytest.mark.parametrize("n", [2.0, 1.5, np.float64(2.0), "2"], ids=["2.0", "1.5", "numpy-2.0", "str"])
    def test_dimension_is_an_integer(self, n, monkeypatch):
        # refused before any check of the graph or solve
        def no_work(*args):
            raise AssertionError("work ran on a non-integer dimension")

        for name in ("connected_components", "is_balanced", "laplacian"):
            monkeypatch.setattr(sp.drawing, name, no_work)
        with pytest.raises(TypeError):
            sp.spectral_drawing(ring(6), n)
        with pytest.raises(TypeError):
            sp.signed_drawing(negative_cycle(6), n)

    def test_dimension_takes_a_numpy_integer(self):
        assert np.array_equal(sp.spectral_drawing(ring(6), np.int64(2)).R, sp.spectral_drawing(ring(6), 2).R)

    def test_ring_is_regular_polygon(self):
        dm = sp.spectral_drawing(ring(12), 2)
        P = dm.R
        dists = [np.linalg.norm(P[i] - P[(i + 1) % 12]) for i in range(12)]
        assert np.allclose(dists, dists[0], atol=1e-6)
        assert np.allclose(np.linalg.norm(P, axis=1), np.linalg.norm(P[0]), atol=1e-6)

    def test_orthogonal_and_balanced(self, rng):
        g = random_connected(rng, 8)
        dm = sp.spectral_drawing(g, 3)
        assert np.allclose(dm.R.T @ dm.R, np.eye(3), atol=1e-8)
        assert np.allclose(np.ones(8) @ dm.R, 0.0, atol=1e-8)

    def test_path_one_dim(self):
        g = path(3)
        dm = sp.spectral_drawing(g, 1)
        assert sp.energy(g, dm) == pytest.approx(1.0, abs=1e-9)

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            sp.spectral_drawing(sp.Graph(np.zeros((3, 3))), 1)

    def test_dimension_too_large(self):
        with pytest.raises(DimensionTooLarge):
            sp.spectral_drawing(path(3), 3)

    @pytest.mark.parametrize("g", [g1_signed(), g2_signed()], ids=["G1", "G2"])
    def test_signed_graph_refused(self, g):
        # L of G1 and of G2 is indefinite: its smallest eigenvectors give no
        # minimal-energy drawing
        with pytest.raises(NegativeWeightInUnsignedMode, match="signed_drawing"):
            sp.spectral_drawing(g, 2)

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_dimension_rejected(self, n):
        with pytest.raises(ValueError, match=f"dimension.*{n}"):
            sp.spectral_drawing(path(3), n)

    def test_eigenvalues_of_its_own_solve(self):
        g = ring(12)
        L = sp.laplacian(g).M
        vals = sp.sym_eigen(L).values
        for n in (1, 2, 11):
            dm = sp.spectral_drawing(g, n)
            own, _ = sp.smallest_k(L, min(n + 1, 12))
            assert np.array_equal(dm.eigenvalues, own)
            assert np.max(np.abs(dm.eigenvalues - vals[: min(n + 1, 12)])) <= 1e-12 * np.linalg.norm(L)
            assert sp.energy(g, dm) == pytest.approx(vals[1 : n + 1].sum(), abs=1e-9)

    def test_optimality_over_random_balanced_drawings(self, rng):
        for _ in range(20):
            n = int(rng.integers(4, 9))
            g = random_connected(rng, n)
            dm = sp.spectral_drawing(g, 2)
            best = sp.energy(g, dm)
            # random orthonormal frames orthogonal to the constant vector
            ones = np.ones((n, 1)) / np.sqrt(n)
            M = rng.standard_normal((n, 2))
            M -= ones @ (ones.T @ M)
            Q, _ = np.linalg.qr(M)
            assert best <= sp.energy(g, Q[:, :2]) + 1e-9


class TestSignedDrawing:
    def test_all_negative_cycle_separates_neighbors(self):
        g = negative_cycle(7)
        dm = sp.signed_drawing(g, 2)
        for i, j, _ in sp.orient(g).edges:
            assert float(dm.R[i - 1] @ dm.R[j - 1]) < 0

    def test_balanced_bipartite_mode(self):
        g = g1_signed()
        dm = sp.signed_drawing(g, 2, bipartite=True)
        first = dm.R[:, 0]
        c = np.abs(first[0])
        assert np.allclose(np.abs(first), c, atol=1e-8)
        pos = {i + 1 for i in range(9) if first[i] > 0}
        assert pos in (G1_BIPARTITION[0], G1_BIPARTITION[1])

    @pytest.mark.parametrize("n", [1, 3])
    def test_bipartite_drawing_needs_two_dimensions(self, n):
        with pytest.raises(ValueError, match="only defined for n = 2"):
            sp.signed_drawing(g1_signed(), n, bipartite=True)

    def test_unbalanced_energy(self):
        g = g2_signed()
        dm = sp.signed_drawing(g, 2)
        assert sp.energy(g, dm, signed=True) == pytest.approx(0.5175 + 1.5016, abs=5e-3)

    def test_balanced_nonbipartite_skips_kernel(self):
        g = g1_signed()
        dm = sp.signed_drawing(g, 2)
        vals = sp.sym_eigen(sp.laplacian(g, "signed_unnormalized").M).values
        assert sp.energy(g, dm, signed=True) == pytest.approx(vals[1] + vals[2], abs=1e-8)

    def test_positive_graph_rejected(self, rng):
        with pytest.raises(NoNegativeEdges):
            sp.signed_drawing(random_connected(rng, 5), 2)

    def test_disconnected_positive_graph_is_not_connected(self):
        with pytest.raises(NotConnected):
            sp.signed_drawing(sp.Graph(np.zeros((3, 3))), 2)

    @pytest.mark.parametrize("g", [g1_signed(), g2_signed()], ids=["balanced", "unbalanced"])
    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_dimension_rejected(self, g, n):
        with pytest.raises(ValueError, match=f"dimension.*{n}"):
            sp.signed_drawing(g, n)

    @pytest.mark.parametrize("g, n, bipartite", [
        (g1_signed(), 2, False), (g1_signed(), 2, True), (g2_signed(), 3, False), (g2_signed(), 9, False)])
    def test_eigenvalues_of_its_own_solve(self, g, n, bipartite):
        L = sp.laplacian(g, "signed_unnormalized").M
        vals = sp.sym_eigen(L).values
        dm = sp.signed_drawing(g, n, bipartite=bipartite)
        own, _ = sp.smallest_k(L, min(n + 1, 9))
        assert np.array_equal(dm.eigenvalues, own)
        assert np.max(np.abs(dm.eigenvalues - vals[: min(n + 1, 9)])) <= 1e-12 * np.linalg.norm(L)

    def test_orthogonality(self):
        dm = sp.signed_drawing(negative_cycle(7), 2)
        assert np.allclose(dm.R.T @ dm.R, np.eye(2), atol=1e-8)


class TestEmission:
    def test_svg_ring_counts(self, tmp_path):
        g = ring(12)
        dm = sp.spectral_drawing(g, 2)
        out = tmp_path / "ring.svg"
        sp.emit_svg(dm, g, out)
        text = out.read_text()
        assert text.count("<circle") == 12
        assert text.count("<line") == 12

    def test_svg_negative_edge_class(self, tmp_path):
        g = cycle_one_negative(7)
        dm = sp.signed_drawing(g, 2)
        out = tmp_path / "g5.svg"
        sp.emit_svg(dm, g, out)
        text = out.read_text()
        assert text.count('class="neg"') == 1
        assert text.count("<line") == 7

    def test_svg_and_csv_bytes(self, tmp_path):
        # fixed coordinates, not a solve, so only the emitters can move
        # these bytes: a 5-cycle with one negative edge and one chord
        W = ring(5).W.copy()
        W[0, 1] = W[1, 0] = -1.0
        W[0, 2] = W[2, 0] = 0.5
        g = sp.Graph(W)
        R = np.array([[0.0, 1.0], [0.951, 0.309], [0.588, -0.809], [-0.588, -0.809], [-0.951, 1 / 3]])
        sp.emit_svg(R, g, tmp_path / "pin.svg")
        sp.emit_csv(np.c_[R, [1e-17, -0.1, 2 / 3, 1e300, -0.0]], tmp_path / "pin.csv")
        assert (tmp_path / "pin.svg").read_bytes() == (
            b'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 1000">\n'
            b"<style>circle { fill: #1f6feb; stroke: #0b3d91; stroke-width: 1; }\n"
            b"line { stroke: #444; stroke-width: 2; }\n"
            b"line.neg { stroke: #d32f2f; stroke-dasharray: 6 4; }\n"
            b"</style>\n"
            b'<line class="neg" x1="500.00" y1="72.00" x2="950.00" y2="398.97"/>\n'
            b'<line x1="500.00" y1="72.00" x2="778.23" y2="928.00"/>\n'
            b'<line x1="500.00" y1="72.00" x2="50.00" y2="387.46"/>\n'
            b'<line x1="950.00" y1="398.97" x2="778.23" y2="928.00"/>\n'
            b'<line x1="778.23" y1="928.00" x2="221.77" y2="928.00"/>\n'
            b'<line x1="221.77" y1="928.00" x2="50.00" y2="387.46"/>\n'
            b'<circle cx="500.00" cy="72.00" r="8"/>\n'
            b'<circle cx="950.00" cy="398.97" r="8"/>\n'
            b'<circle cx="778.23" cy="928.00" r="8"/>\n'
            b'<circle cx="221.77" cy="928.00" r="8"/>\n'
            b'<circle cx="50.00" cy="387.46" r="8"/>\n'
            b"</svg>\n"
        )
        assert (tmp_path / "pin.csv").read_bytes() == (
            b"node,x1,x2,x3\n"
            b"1,0.0,1.0,1e-17\n"
            b"2,0.951,0.309,-0.1\n"
            b"3,0.588,-0.809,0.6666666666666666\n"
            b"4,-0.588,-0.809,1e+300\n"
            b"5,-0.951,0.3333333333333333,-0.0\n"
        )

    def test_svg_no_edges(self, tmp_path):
        g = sp.Graph(np.zeros((4, 4)))
        out = tmp_path / "iso.svg"
        sp.emit_svg(np.zeros((4, 2)), g, out)
        text = out.read_text()
        assert text.count("<circle") == 4
        assert text.count("<line") == 0

    @pytest.mark.parametrize("dim", [1, 4])
    def test_svg_needs_two_or_three_dimensions(self, tmp_path, dim):
        with pytest.raises(ValueError, match="2-d and 3-d drawings only"):
            sp.emit_svg(np.zeros((4, dim)), sp.Graph(np.zeros((4, 4))), tmp_path / "out.svg")
        assert not (tmp_path / "out.svg").exists()

    def test_svg_three_dim_two_files(self, tmp_path, rng):
        g = random_connected(rng, 8)
        dm = sp.spectral_drawing(g, 3)
        with pytest.warns(UserWarning):
            files = sp.emit_svg(dm, g, tmp_path / "cube.svg")
        assert sorted(f.split("/")[-1] for f in files) == ["cube-xy.svg", "cube-xz.svg"]

    def test_csv_round_trip(self, tmp_path, rng):
        g = random_connected(rng, 5)
        dm = sp.spectral_drawing(g, 2)
        out = tmp_path / "coords.csv"
        sp.emit_csv(dm, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "node,x1,x2"
        data = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.allclose(data, dm.R)
        assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(1, 6)]

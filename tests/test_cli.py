"""Command-line interface: parsing, subcommands, exit codes, JSON reports."""

import json
import sys

import numpy as np
import pytest

import speclap as sp
from speclap import cli
from speclap.errors import DuplicateEdge, IndexOutOfRange, NonFiniteWeight, ParseError

from conftest import (
    G1_BIPARTITION,
    W1_EDGES,
    W4,
    g1_signed,
    g2_signed,
    random_connected,
    ring,
    w1_graph,
)


def write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def graph_file(tmp_path, name, g):
    return write_graph(tmp_path, name, cli.serialize_graph(g))


def ring_text(n):
    lines = [str(n)] + [f"{i} {i % n + 1} 1.0" for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def w1_text():
    return "9\n" + "".join(f"{i} {j} 1.0\n" for i, j in W1_EDGES)


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def counts(monkeypatch):
    """Count eigensolves (with the tol each receives), graph walks and
    Laplacian builds made through every binding of eigen.smallest_k,
    eigen.sym_eigen, graph._walk and laplacian.laplacian."""
    seen = {"tols": [], "walks": 0, "laplacians": 0}
    smallest_k, sym_eigen = sp.eigen.smallest_k, sp.eigen.sym_eigen
    walk = sys.modules["speclap.graph"]._walk
    lap = sys.modules["speclap.laplacian"].laplacian

    def counting_smallest_k(S, k, *args, **kwargs):
        seen["tols"].append(kwargs.get("tol"))
        return smallest_k(S, k, *args, **kwargs)

    def counting_eigen(S, *args, **kwargs):
        seen["tols"].append(kwargs.get("tol"))
        return sym_eigen(S, *args, **kwargs)

    def counting_walk(g):
        seen["walks"] += 1
        return walk(g)

    def counting_laplacian(g, *args, **kwargs):
        seen["laplacians"] += 1
        return lap(g, *args, **kwargs)

    wrappers = ((smallest_k, counting_smallest_k), (sym_eigen, counting_eigen),
                (walk, counting_walk), (lap, counting_laplacian))
    for name, mod in list(sys.modules.items()):
        if name == "speclap" or name.startswith("speclap."):
            for attr, value in list(vars(mod).items()):
                for fn, wrapper in wrappers:
                    if value is fn:
                        monkeypatch.setattr(mod, attr, wrapper)
    return seen


class TestParseGraph:
    def test_path_three(self, tmp_path):
        g = cli.parse_graph(write_graph(tmp_path, "p3.txt", "3\n1 2 1.0\n2 3 1.0\n"))
        assert g.m == 3
        assert g.W[0, 1] == 1.0 and g.W[1, 2] == 1.0 and g.W[0, 2] == 0.0
        assert np.array_equal(g.W, g.W.T)

    def test_self_loop_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            cli.parse_graph(write_graph(tmp_path, "loop.txt", "2\n1 1 1.0\n"))

    def test_four_node_reference(self, tmp_path):
        text = "4\n1 2 3\n1 3 6\n1 4 3\n2 4 3\n3 4 3\n"
        g = cli.parse_graph(write_graph(tmp_path, "w4.txt", text))
        assert np.array_equal(g.W, W4)

    def test_duplicate_pair_rejected(self, tmp_path):
        text = "3\n1 2 1.0\n2 1 2.0\n"
        with pytest.raises(DuplicateEdge):
            cli.parse_graph(write_graph(tmp_path, "dup.txt", text))

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(IndexOutOfRange):
            cli.parse_graph(write_graph(tmp_path, "oor.txt", "2\n1 3 1.0\n"))

    @pytest.mark.parametrize("w", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, w):
        with pytest.raises(NonFiniteWeight, match="line 3"):
            cli.parse_graph(write_graph(tmp_path, "nf.txt", f"3\n1 2 1.0\n2 3 {w}\n"))

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            cli.parse_graph(write_graph(tmp_path, "empty.txt", "\n# nothing\n"))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = "# a graph\n\n2\n# edge\n1 2 -2.5\n\n"
        g = cli.parse_graph(write_graph(tmp_path, "c.txt", text))
        assert g.W[0, 1] == -2.5

    def test_serialized_text(self):
        W = np.zeros((4, 4))
        W[0, 2] = W[2, 0] = 6.0
        W[1, 3] = W[3, 1] = -0.1
        assert cli.serialize_graph(sp.Graph(W)) == "4\n1 3 6.0\n2 4 -0.1\n"

    def test_round_trip(self, tmp_path, rng):
        from conftest import random_connected
        for k in range(5):
            g = random_connected(rng, 6, signed=bool(k % 2))
            path = write_graph(tmp_path, f"rt{k}.txt", cli.serialize_graph(g))
            g2 = cli.parse_graph(path)
            assert np.array_equal(g.W, g2.W)


class TestDraw:
    def test_ring_energy(self, tmp_path, capsys):
        path = write_graph(tmp_path, "ring.txt", ring_text(12))
        code, out, _ = run(capsys, ["draw", path, "--dim", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["energy"] == pytest.approx(0.5359, abs=5e-4)
        assert report["dim"] == 2
        assert report["eigenvalues"][0] == pytest.approx(0.0, abs=1e-9)

    def test_disconnected_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "disc.txt", "4\n1 2 1.0\n3 4 1.0\n")
        code, out, err = run(capsys, ["draw", path])
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "NotConnected"
        assert "\n" not in err.strip()

    def test_dim_too_large_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "p3.txt", "3\n1 2 1.0\n2 3 1.0\n")
        code, _, err = run(capsys, ["draw", path, "--dim", "3"])
        assert code == 2
        assert "DimensionTooLarge" in json.loads(err)["error"]

    def test_svg_and_csv_outputs(self, tmp_path, capsys):
        path = write_graph(tmp_path, "ring.txt", ring_text(8))
        svg = str(tmp_path / "ring.svg")
        csv = str(tmp_path / "ring.csv")
        code, out, _ = run(capsys, ["draw", path, "--svg", svg, "--csv", csv])
        assert code == 0
        report = json.loads(out)
        assert report["svg"] == [svg]
        assert (tmp_path / "ring.svg").read_text().count("<circle") == 8
        assert (tmp_path / "ring.csv").read_text().startswith("node,x1,x2")

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("g, flags", [
        (ring(8), []), (g1_signed(), ["--signed"]), (g2_signed(), ["--signed"])])
    def test_non_positive_dim_exit_2(self, tmp_path, capsys, dim, g, flags):
        code, out, err = run(capsys, ["draw", graph_file(tmp_path, "g.txt", g), "--dim", dim, *flags])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    def test_signed_drawing(self, tmp_path, capsys):
        path = graph_file(tmp_path, "g2.txt", g2_signed())
        code, out, _ = run(capsys, ["draw", path, "--signed"])
        assert code == 0
        report = json.loads(out)
        assert report["energy"] == pytest.approx(0.5175 + 1.5016, abs=5e-3)


class TestCluster:
    def test_w1_four_way(self, tmp_path, capsys):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        code, out, _ = run(capsys, ["cluster", path, "--k", "4"])
        assert code == 0
        report = json.loads(out)
        asg = report["assignments"]
        blocks = {}
        for node, b in enumerate(asg, start=1):
            blocks.setdefault(b, set()).add(node)
        assert set(map(frozenset, blocks.values())) == {
            frozenset({7, 8}), frozenset({5, 9}),
            frozenset({1, 2, 4}), frozenset({3, 6})}
        assert set(asg) == {1, 2, 3, 4}
        assert report["relaxation_value"] <= report["objective"] + 1e-9
        assert report["iterations"] >= 1

    def test_sncut_bipartition(self, tmp_path, capsys):
        path = graph_file(tmp_path, "g1.txt", g1_signed())
        code, out, _ = run(capsys, ["cluster", path, "--k", "2", "--mode", "sncut"])
        assert code == 0
        report = json.loads(out)
        blocks = {}
        for node, b in enumerate(report["assignments"], start=1):
            blocks.setdefault(b, set()).add(node)
        assert set(map(frozenset, blocks.values())) == {
            frozenset(G1_BIPARTITION[0]), frozenset(G1_BIPARTITION[1])}

    def test_rcut_objective_recomputed(self, tmp_path, capsys):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        code, out, _ = run(capsys, ["cluster", path, "--k", "4", "--mode", "rcut"])
        assert code == 0
        report = json.loads(out)
        g = cli.parse_graph(path)
        blocks = {}
        for node, b in enumerate(report["assignments"], start=1):
            blocks.setdefault(b, []).append(node)
        total = sum(sp.cut(g, sp.NodeSubset(mem, m=9)) / len(mem)
                    for mem in blocks.values())
        assert report["objective"] == pytest.approx(total, abs=1e-9)

    def test_negative_weights_rejected_in_unsigned_mode(self, tmp_path, capsys):
        path = graph_file(tmp_path, "g1.txt", g1_signed())
        code, _, err = run(capsys, ["cluster", path, "--k", "2", "--mode", "ncut"])
        assert code == 2
        assert json.loads(err)["error"] == "NegativeWeightInUnsignedMode"

    def test_residual_growth_exits_2(self, tmp_path, capsys):
        path = graph_file(tmp_path, "g2.txt", g2_signed())
        argv = ["cluster", path, "--k", "3", "--mode", "srcut", "--rescale", "rowsum"]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "NoConvergence"

    @pytest.mark.parametrize("max_iters", ["0", "-3"])
    def test_non_positive_max_iters_exit_2(self, tmp_path, capsys, max_iters):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        code, out, err = run(capsys, ["cluster", path, "--k", "2", "--max-iters", max_iters])
        assert code == 2
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "ValueError"
        assert "max_iters" in report["message"]

    def test_two_way_solves_the_relaxation_once(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        sizes = []
        for name in ("smallest_k", "sym_eigen"):
            solve = getattr(sp.eigen, name)

            def counting(S, *args, _solve=solve, **kwargs):
                sizes.append(np.shape(S)[0])
                return _solve(S, *args, **kwargs)

            for mod in (sp, sp.eigen):
                monkeypatch.setattr(mod, name, counting)
        code, out, _ = run(capsys, ["cluster", path, "--k", "2", "--mode", "ncut"])
        assert code == 0
        assert "two_way" in json.loads(out)
        assert sizes.count(9) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_two_way_report_matches_library(self, tmp_path, capsys, seed):
        g = random_connected(np.random.default_rng(seed), 6 + 3 * seed)
        path = graph_file(tmp_path, "g.txt", g)
        code, out, _ = run(capsys, ["cluster", path, "--k", "2", "--mode", "ncut"])
        assert code == 0
        two = json.loads(out)["two_way"]
        ref = sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g)))
        assert two["partition"] == [sorted(ref.partition[0].members), sorted(ref.partition[1].members)]
        assert two["ncut"] == pytest.approx(ref.ncut, rel=1e-12, abs=1e-300)
        assert two["residual"] == pytest.approx(ref.residual, rel=1e-12, abs=1e-300)

    def test_two_way_report_included(self, tmp_path, capsys):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        code, out, _ = run(capsys, ["cluster", path, "--k", "2"])
        assert code == 0
        report = json.loads(out)
        two = report["two_way"]
        assert {frozenset(two["partition"][0]), frozenset(two["partition"][1])} == {
            frozenset({1, 2, 4, 5}), frozenset({3, 6, 7, 8, 9})}
        assert two["ncut"] == pytest.approx(2.0 / 9.0, abs=1e-9)

    def test_json_output_file(self, tmp_path, capsys):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        out_json = str(tmp_path / "report.json")
        code, out, _ = run(capsys, ["cluster", path, "--k", "3", "--json", out_json])
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text()) == json.loads(out)

    def test_deterministic(self, tmp_path, capsys):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        _, out1, _ = run(capsys, ["cluster", path, "--k", "4"])
        _, out2, _ = run(capsys, ["cluster", path, "--k", "4"])
        assert out1 == out2


class TestBalance:
    def test_balanced_g1(self, tmp_path, capsys):
        path = graph_file(tmp_path, "g1.txt", g1_signed())
        code, out, _ = run(capsys, ["balance", path])
        assert code == 0
        report = json.loads(out)
        assert report["balanced"] is True
        assert report["smallest_signed_laplacian_eigenvalue"] == pytest.approx(0.0, abs=1e-8)
        pos = {i + 1 for i, s in enumerate(report["bipartition"]) if s > 0}
        assert pos in (G1_BIPARTITION[0], G1_BIPARTITION[1])

    def test_unbalanced_g2(self, tmp_path, capsys):
        path = graph_file(tmp_path, "g2.txt", g2_signed())
        code, out, _ = run(capsys, ["balance", path])
        assert code == 0
        report = json.loads(out)
        assert report["balanced"] is False
        assert "bipartition" not in report
        assert report["smallest_signed_laplacian_eigenvalue"] == pytest.approx(
            0.5175, abs=5e-4)

    @staticmethod
    def planted(seed, n, frustrated):
        """A positive graph conjugated by random node signs (balanced); with
        frustrated=True one edge of the triangle 1-2-3 flips sign."""
        rng = np.random.default_rng(seed)
        W = random_connected(rng, n).W.copy()
        W[[0, 0, 1, 1, 2, 2], [1, 2, 0, 2, 0, 1]] = 1.0
        x = rng.choice([-1.0, 1.0], size=n)
        W *= np.outer(x, x)
        if frustrated:
            W[0, 1] = W[1, 0] = -W[0, 1]
        return sp.Graph(W)

    def test_balanced_iff_smallest_eigenvalue_zero(self, tmp_path, capsys):
        cases = [(g1_signed(), True), (g2_signed(), False), (w1_graph(), True),
                 (sp.Graph(np.abs(g1_signed().W)), True)]
        cases += [(self.planted(seed, n, frustrated), not frustrated)
                  for seed, n in ((1, 12), (2, 12), (3, 48), (4, 48))
                  for frustrated in (False, True)]
        for g, balanced in cases:
            code, out, _ = run(capsys, ["balance", graph_file(tmp_path, "g.txt", g)])
            assert code == 0
            report = json.loads(out)
            norm = np.linalg.norm(sp.laplacian(g, "signed_unnormalized").M)
            zero = abs(report["smallest_signed_laplacian_eigenvalue"]) <= 1e-9 * norm
            assert report["balanced"] == zero == balanced

    def test_fields_agree_on_random_signed_graphs(self, tmp_path, capsys):
        # no planted truth: random signs leave a graph balanced only by
        # chance (trees and sparse graphs), so both outcomes occur
        rng = np.random.default_rng(1601)
        seen = set()
        for _ in range(40):
            n = int(rng.integers(3, 25))
            g = random_connected(rng, n, signed=True, extra_edge_prob=float(rng.choice([0.0, 0.05, 0.3])))
            code, out, _ = run(capsys, ["balance", graph_file(tmp_path, "g.txt", g)])
            assert code == 0
            report = json.loads(out)
            norm = np.linalg.norm(sp.laplacian(g, "signed_unnormalized").M)
            assert report["balanced"] == (report["smallest_signed_laplacian_eigenvalue"] <= 1e-9 * norm)
            seen.add(report["balanced"])
        assert seen == {True, False}

    def test_positive_triangle(self, tmp_path, capsys):
        path = write_graph(tmp_path, "tri.txt", "3\n1 2 1\n2 3 1\n1 3 1\n")
        code, out, _ = run(capsys, ["balance", path])
        assert code == 0
        assert json.loads(out)["balanced"] is True

    def test_disconnected_exit_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "disc.txt", "4\n1 2 1.0\n3 4 -1.0\n")
        code, _, err = run(capsys, ["balance", path])
        assert code == 2
        json.loads(err)


class TestOneSolveOneWalk:
    @pytest.mark.filterwarnings("ignore:3-d drawing")
    @pytest.mark.parametrize("name, flags", [
        ("ring", []),
        ("g1", ["--signed"]),
        ("g2", ["--signed"]),
        ("g1", ["--signed", "--bipartite"]),
        ("ring", ["--dim", "3", "--svg", "SVG", "--csv", "CSV"]),
        ("g2", ["--signed", "--dim", "3", "--svg", "SVG", "--csv", "CSV"]),
    ])
    def test_draw(self, tmp_path, capsys, counts, name, flags):
        g = {"ring": ring(12), "g1": g1_signed(), "g2": g2_signed()}[name]
        path = graph_file(tmp_path, f"{name}.txt", g)
        flags = [str(tmp_path / f"out.{f.lower()}") if f in ("SVG", "CSV") else f for f in flags]
        code, out, _ = run(capsys, ["draw", path, *flags])
        assert code == 0
        assert len(counts["tols"]) == 1
        assert counts["walks"] == 1
        assert counts["laplacians"] == 1
        vals = np.linalg.eigvalsh(sp.laplacian(g, "signed_unnormalized" if "--signed" in flags
                                               else "unnormalized").M)
        reported = json.loads(out)["eigenvalues"]
        assert np.allclose(reported, vals[: len(reported)], atol=1e-9)

    @pytest.mark.parametrize("g", [g1_signed(), g2_signed(), ring(12)], ids=["g1", "g2", "ring"])
    def test_balance(self, tmp_path, capsys, counts, g):
        code, _, _ = run(capsys, ["balance", graph_file(tmp_path, "g.txt", g)])
        assert code == 0
        assert len(counts["tols"]) == 1
        assert counts["walks"] == 1
        assert counts["laplacians"] == 1

    @pytest.mark.parametrize("k, mode", [(3, "ncut"), (3, "rcut"), (3, "sncut"), (3, "srcut"),
                                         (2, "ncut")])
    def test_cluster(self, tmp_path, capsys, counts, k, mode):
        g = g2_signed() if mode.startswith("s") else w1_graph()
        code, out, _ = run(capsys, ["cluster", graph_file(tmp_path, "g.txt", g),
                                    "--k", str(k), "--mode", mode])
        assert code == 0
        assert ("two_way" in json.loads(out)) == (k == 2 and mode == "ncut")
        assert counts["laplacians"] == 1


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, ["cluster"])[0] == 1

    def test_missing_file_is_2(self, capsys):
        code, _, err = run(capsys, ["balance", "/nonexistent/graph.txt"])
        assert code == 2
        json.loads(err)

    def test_parse_error_is_2(self, tmp_path, capsys):
        path = write_graph(tmp_path, "bad.txt", "2\n1 2\n")
        code, _, err = run(capsys, ["cluster", path, "--k", "2"])
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("w", ["nan", "inf"])
    def test_non_finite_weight_is_2(self, tmp_path, capsys, w):
        path = write_graph(tmp_path, "nf.txt", f"3\n1 2 1.0\n2 3 {w}\n1 3 1.0\n")
        for argv in (["cluster", path, "--k", "2"], ["draw", path], ["balance", path]):
            code, _, err = run(capsys, argv)
            assert code == 2
            assert json.loads(err)["error"] == "NonFiniteWeight"


class TestTolEnv:
    def test_tol_override_used(self, tmp_path, capsys, monkeypatch, counts):
        path = write_graph(tmp_path, "ring.txt", ring_text(10))
        monkeypatch.setenv("SPECLAP_TOL", "1e-10")
        code, out, _ = run(capsys, ["draw", path])
        assert code == 0
        assert json.loads(out)["energy"] == pytest.approx(
            2 * (2 - 2 * np.cos(2 * np.pi / 10)), abs=1e-6)
        assert counts["tols"] == [1e-10]

    def test_bad_tol_is_error(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, "ring.txt", ring_text(6))
        monkeypatch.setenv("SPECLAP_TOL", "not-a-number")
        code, _, err = run(capsys, ["draw", path])
        assert code == 2
        json.loads(err)

    @pytest.mark.parametrize("raw", ["-1e-12", "0", "1", "2.5", "nan", "inf", "-inf", "1e400"])
    def test_out_of_range_tol_is_error(self, tmp_path, capsys, monkeypatch, raw):
        path = write_graph(tmp_path, "ring.txt", ring_text(6))
        monkeypatch.setenv("SPECLAP_TOL", raw)
        for argv in (["draw", path], ["balance", path]):
            code, out, err = run(capsys, argv)
            assert code == 2
            assert out == ""
            report = json.loads(err)
            assert report["error"] == "ValueError"
            assert "SPECLAP_TOL" in report["message"]

    @pytest.mark.parametrize("raw, value", [("0.5", 0.5), ("1e-300", 1e-300), ("1", None),
                                            ("0", None), ("nan", None), ("inf", None)])
    def test_same_range_as_the_solver(self, monkeypatch, raw, value):
        monkeypatch.setenv("SPECLAP_TOL", raw)
        if value is None:
            with pytest.raises(ValueError, match="SPECLAP_TOL"):
                cli._tol()
        else:
            assert cli._tol() == value
            sp.sym_eigen(np.eye(2), tol=cli._tol())

"""Command-line interface: parsing, subcommands, exit codes, JSON reports."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

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
    """Count eigensolves, graph walks and Laplacian builds made through
    every binding of eigen.smallest_k, eigen.sym_eigen, graph._walk and
    laplacian.laplacian."""
    seen = {"solves": 0, "walks": 0, "laplacians": 0}
    smallest_k, sym_eigen = sp.eigen.smallest_k, sp.eigen.sym_eigen
    walk = sys.modules["speclap.graph"]._walk
    lap = sys.modules["speclap.laplacian"].laplacian

    def counting_smallest_k(S, k):
        seen["solves"] += 1
        return smallest_k(S, k)

    def counting_eigen(S):
        seen["solves"] += 1
        return sym_eigen(S)

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

    @pytest.mark.parametrize("n", [10**9, 10**10])
    def test_node_count_too_large(self, tmp_path, capsys, n):
        path = write_graph(tmp_path, "huge.txt", f"# header\n{n}\n1 2 1.0\n")
        with pytest.raises(ParseError, match=f"line 2: node count {n} is too large"):
            cli.parse_graph(path)
        code, out, err = run(capsys, ["balance", path])
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ParseError",
                                   "message": f"line 2: node count {n} is too large"}


# The graph-file grammar's error corpus: every error branch of the record
# loop at the first, a middle and the last record, the header's errors, the
# oddities the grammar accepts, and inputs at the boundary between header and
# records (a bytes entry is written as it is, a str entry as UTF-8).
# `speclap balance` on each file must give exactly these exit codes, stdout
# and stderr.
CORPUS_BASE = ("1 2 1.0", "2 3 1.0", "3 4 -1.0", "1 4 2.0")


def _corpus_file(record, at):
    """The 4-node base file with one record inserted first, after the
    second base record, or last."""
    recs = list(CORPUS_BASE)
    recs.insert({"first": 0, "middle": 2, "last": 4}[at], record)
    return "4\n" + "".join(r + "\n" for r in recs)


CORPUS_BAD_RECORDS = {
    "two-fields": "1 3",
    "four-fields": "1 3 1.0 2",
    "hash-after": "1 3 1.0 # note",
    "index-1.0": "1.0 3 1.0",
    "index-1e0": "1 1e0 1.0",
    "index-x": "x 3 1.0",
    "weight-x": "1 3 x",
    "nan": "1 3 nan",
    "inf": "1 3 inf",
    "-inf": "1 3 -inf",
    "self-loop": "3 3 1.0",
    "i-zero": "0 3 1.0",
    "j-over": "1 5 1.0",
    "dup-ij": "1 2 5.0",
    "dup-ji": "2 1 5.0",
}
CORPUS = {f"{name}@{at}": _corpus_file(rec, at)
          for name, rec in CORPUS_BAD_RECORDS.items() for at in ("first", "middle", "last")}
CORPUS.update({
    "header-two-fields": "4 4\n1 2 1.0\n",
    "header-bad-count": "four\n1 2 1.0\n",
    "header-count-1.0": "4.0\n1 2 1.0\n",
    "header-count-zero": "0\n",
    "header-count-negative": "# c\n\n-3\n1 2 1.0\n",
    "header-too-large": "\n10000000000\n1 2 1.0\n",
    "empty": "\n# nothing\n",
    "crlf": _corpus_file("1 3 1.0", "last").replace("\n", "\r\n"),
    "tabs": _corpus_file("1\t3\t1.0", "middle"),
    "formfeed": _corpus_file("1\x0c3 1.0\x0c", "middle"),
    "comments-blank": "# a graph\n\n  \n4\n\n# edges\n" + _corpus_file("1 3 1.0", "last")[2:] + "\n# end\n",
    "plus-index": _corpus_file("+1 +3 +1.5", "first"),
    "underscore-index": "10\n" + "".join(f"{i} {i + 1} 1.0\n" for i in range(1, 10)) + "1_0 1 -1.0\n",
    "arabic-indic-index": _corpus_file("١ 3 1.0", "middle"),
    "underscore-weight": _corpus_file("1 3 1_0.5", "last"),
    "zero-weights": _corpus_file("1 3 -0.0", "first") + "2 4 0\n",
    "one-node": "1\n",
    "bad-utf8-header": b"\xff4\n" + "".join(r + "\n" for r in CORPUS_BASE).encode(),
    "bad-utf8-record": _corpus_file("1 3 \xff1.0", "middle").encode("latin-1"),
    "cr-only": _corpus_file("1 3 1.0", "last").replace("\n", "\r"),
    "bad-record-after-comment-header": "# a graph\n\n4\n1 2 x\n",
    "header-no-newline": "4",
    "comment-and-blank-records": "4\n# edges\n\n  \n# none\n",
})


def _error(cls, message):
    return 2, "", json.dumps({"error": cls, "message": message}) + "\n"


CORPUS_OUTPUT = {
    "two-fields@first": _error("ParseError", "line 2: expected 'i j w'"),
    "two-fields@middle": _error("ParseError", "line 4: expected 'i j w'"),
    "two-fields@last": _error("ParseError", "line 6: expected 'i j w'"),
    "four-fields@first": _error("ParseError", "line 2: expected 'i j w'"),
    "four-fields@middle": _error("ParseError", "line 4: expected 'i j w'"),
    "four-fields@last": _error("ParseError", "line 6: expected 'i j w'"),
    "hash-after@first": _error("ParseError", "line 2: expected 'i j w'"),
    "hash-after@middle": _error("ParseError", "line 4: expected 'i j w'"),
    "hash-after@last": _error("ParseError", "line 6: expected 'i j w'"),
    "index-1.0@first": _error("ParseError", "line 2: bad edge record '1.0 3 1.0'"),
    "index-1.0@middle": _error("ParseError", "line 4: bad edge record '1.0 3 1.0'"),
    "index-1.0@last": _error("ParseError", "line 6: bad edge record '1.0 3 1.0'"),
    "index-1e0@first": _error("ParseError", "line 2: bad edge record '1 1e0 1.0'"),
    "index-1e0@middle": _error("ParseError", "line 4: bad edge record '1 1e0 1.0'"),
    "index-1e0@last": _error("ParseError", "line 6: bad edge record '1 1e0 1.0'"),
    "index-x@first": _error("ParseError", "line 2: bad edge record 'x 3 1.0'"),
    "index-x@middle": _error("ParseError", "line 4: bad edge record 'x 3 1.0'"),
    "index-x@last": _error("ParseError", "line 6: bad edge record 'x 3 1.0'"),
    "weight-x@first": _error("ParseError", "line 2: bad edge record '1 3 x'"),
    "weight-x@middle": _error("ParseError", "line 4: bad edge record '1 3 x'"),
    "weight-x@last": _error("ParseError", "line 6: bad edge record '1 3 x'"),
    "nan@first": _error("NonFiniteWeight", "line 2: non-finite weight 'nan'"),
    "nan@middle": _error("NonFiniteWeight", "line 4: non-finite weight 'nan'"),
    "nan@last": _error("NonFiniteWeight", "line 6: non-finite weight 'nan'"),
    "inf@first": _error("NonFiniteWeight", "line 2: non-finite weight 'inf'"),
    "inf@middle": _error("NonFiniteWeight", "line 4: non-finite weight 'inf'"),
    "inf@last": _error("NonFiniteWeight", "line 6: non-finite weight 'inf'"),
    "-inf@first": _error("NonFiniteWeight", "line 2: non-finite weight '-inf'"),
    "-inf@middle": _error("NonFiniteWeight", "line 4: non-finite weight '-inf'"),
    "-inf@last": _error("NonFiniteWeight", "line 6: non-finite weight '-inf'"),
    "self-loop@first": _error("ParseError", "line 2: self-loop on node 3"),
    "self-loop@middle": _error("ParseError", "line 4: self-loop on node 3"),
    "self-loop@last": _error("ParseError", "line 6: self-loop on node 3"),
    "i-zero@first": _error("IndexOutOfRange", "line 2: node index 0 out of range"),
    "i-zero@middle": _error("IndexOutOfRange", "line 4: node index 0 out of range"),
    "i-zero@last": _error("IndexOutOfRange", "line 6: node index 0 out of range"),
    "j-over@first": _error("IndexOutOfRange", "line 2: node index 5 out of range"),
    "j-over@middle": _error("IndexOutOfRange", "line 4: node index 5 out of range"),
    "j-over@last": _error("IndexOutOfRange", "line 6: node index 5 out of range"),
    "dup-ij@first": _error("DuplicateEdge", "line 3: duplicate edge (1, 2)"),
    "dup-ij@middle": _error("DuplicateEdge", "line 4: duplicate edge (1, 2)"),
    "dup-ij@last": _error("DuplicateEdge", "line 6: duplicate edge (1, 2)"),
    "dup-ji@first": _error("DuplicateEdge", "line 3: duplicate edge (1, 2)"),
    "dup-ji@middle": _error("DuplicateEdge", "line 4: duplicate edge (2, 1)"),
    "dup-ji@last": _error("DuplicateEdge", "line 6: duplicate edge (2, 1)"),
    "header-two-fields": _error("ParseError", "line 1: expected the node count alone on the first line"),
    "header-bad-count": _error("ParseError", "line 1: bad node count 'four'"),
    "header-count-1.0": _error("ParseError", "line 1: bad node count '4.0'"),
    "header-count-zero": _error("ParseError", "line 1: node count must be >= 1"),
    "header-count-negative": _error("ParseError", "line 3: node count must be >= 1"),
    "header-too-large": _error("ParseError", "line 2: node count 10000000000 is too large"),
    "empty": _error("ParseError", "line 0: empty graph file"),
    "crlf": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7134292106572109}\n', ""),
    "tabs": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7134292106572109}\n', ""),
    "formfeed": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7134292106572109}\n', ""),
    "comments-blank": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7134292106572109}\n', ""),
    "plus-index": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7154552864484498}\n', ""),
    "underscore-index": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.09788696740969272}\n', ""),
    "arabic-indic-index": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7134292106572109}\n', ""),
    "underscore-weight": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7187084605186982}\n', ""),
    "zero-weights": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.5857864376269051}\n', ""),
    "one-node": (0, '{"balanced": true, "smallest_signed_laplacian_eigenvalue": 0.0, "bipartition": [1]}\n', ""),
    "bad-utf8-header": _error("UnicodeDecodeError",
                              "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "bad-utf8-record": _error("UnicodeDecodeError",
                              "'utf-8' codec can't decode byte 0xff in position 22: invalid start byte"),
    "cr-only": (0, '{"balanced": false, "smallest_signed_laplacian_eigenvalue": 0.7134292106572109}\n', ""),
    "bad-record-after-comment-header": _error("ParseError", "line 4: bad edge record '1 2 x'"),
    "header-no-newline": _error("NotConnected", "graph has 4 components"),
    "comment-and-blank-records": _error("NotConnected", "graph has 4 components"),
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_graph_file_corpus(tmp_path, capsys, name):
    path = tmp_path / "g.txt"
    data = CORPUS[name]
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    assert run(capsys, ["balance", str(path)]) == CORPUS_OUTPUT[name]



def _perfbench_gen():
    """perfbench/gen.py, imported read-only by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _valid_graph_files(tmp_path):
    """(path, W) of valid graph files as the benchmark and serialize_graph
    write them: planted graphs at n = 12, 48, 120 of every kind for seeds
    1-3, and random connected graphs, signed and unsigned."""
    gen = _perfbench_gen()
    files = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for n in (12, 48, 120):
            for kind in ("unsigned", "balanced", "unbalanced"):
                W = gen.planted(rng, [n // 4] * 4, kind).W
                files.append((write_graph(tmp_path, f"{kind}-{n}-{seed}.txt", gen.graph_text(W)), W))
        for signed in (False, True):
            g = random_connected(rng, 9 + 10 * seed, signed=signed)
            files.append((graph_file(tmp_path, f"random-{signed}-{seed}.txt", g), g.W))
    return files


def test_numpy_read_equals_record_loop(tmp_path):
    for path, W in _valid_graph_files(tmp_path):
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
        start, loop = cli._read_header(lines)
        cli._parse_records(lines, start, loop)
        assert cli.parse_graph(path).W.tobytes() == loop.tobytes() == W.tobytes(), path


def test_valid_files_never_reach_the_record_loop(tmp_path, monkeypatch):
    def refuse(lines, start, W):
        raise AssertionError("the record loop ran on a valid file")

    monkeypatch.setattr(cli, "_parse_records", refuse)
    for path, W in _valid_graph_files(tmp_path):
        assert cli.parse_graph(path).W.tobytes() == W.tobytes(), path

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

    def test_3d_svg_warning_is_one_json_line(self, tmp_path, capsys):
        path = write_graph(tmp_path, "ring.txt", ring_text(8))
        svg = str(tmp_path / "ring.svg")
        for _ in range(2):  # every call reports it, not only the first in a process
            code, out, err = run(capsys, ["draw", path, "--dim", "3", "--svg", svg])
            assert code == 0
            assert json.loads(out)["svg"] == [str(tmp_path / "ring-xy.svg"), str(tmp_path / "ring-xz.svg")]
            assert err == ('{"warning": "UserWarning", '
                           '"message": "3-d drawing: emitting two 2-d projections"}\n')

    @pytest.mark.parametrize("dim", ["0", "-1"])
    @pytest.mark.parametrize("g, flags", [
        (ring(8), []), (g1_signed(), ["--signed"]), (g2_signed(), ["--signed"])])
    def test_non_positive_dim_exit_2(self, tmp_path, capsys, dim, g, flags):
        code, out, err = run(capsys, ["draw", graph_file(tmp_path, "g.txt", g), "--dim", dim, *flags])
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "ValueError"

    @pytest.mark.parametrize("g", [g1_signed(), g2_signed()], ids=["G1", "G2"])
    def test_signed_graph_without_signed_flag_exit_2(self, tmp_path, capsys, g):
        svg, csv = tmp_path / "g.svg", tmp_path / "g.csv"
        argv = ["draw", graph_file(tmp_path, "g.txt", g), "--dim", "2", "--svg", str(svg), "--csv", str(csv)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "NegativeWeightInUnsignedMode"
        assert "draw --signed" in payload["message"]
        assert not svg.exists() and not csv.exists()

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

    def test_inverse_iteration_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sp._kernels, "INVERSE_ITERATIONS", 0)
        code, out, err = run(capsys, ["cluster", write_graph(tmp_path, "w1.txt", w1_text()), "--k", "3"])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "NoConvergence", "message": "inverse iteration did not converge"}

    def test_max_iters_is_not_an_option(self, tmp_path, capsys):
        path = write_graph(tmp_path, "w1.txt", w1_text())
        code, out, _ = run(capsys, ["cluster", path, "--k", "2", "--max-iters", "5"])
        assert code == 1
        assert out == ""

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
        ref = sp.round_2way(g, sp.orient_sign(sp.solve_relaxed(g, 2, "ncut").Z[:, 1]))
        assert two == {"partition": [sorted(ref.partition[0].members), sorted(ref.partition[1].members)],
                       "ncut": ref.ncut, "residual": ref.residual}
        # the paper's vector, scaled to z^T D z = 1, rounds the same way
        paper = sp.round_2way(g, sp.orient_sign(sp.solve_relaxed_2way(g)))
        assert paper.partition == ref.partition
        assert paper.ncut == ref.ncut

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
        assert counts["solves"] == 1
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
        assert counts["solves"] == 1
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


def _times_power_of_two(report, degrees, power):
    """report with each named field times 2^(degree power)."""
    out = dict(report)
    for field, degree in degrees.items():
        out[field] = np.ldexp(out[field], degree * power).tolist()
    return out


class TestScaledWeights:
    """The eigen layer works on its input at unit scale, so multiplying every
    weight by 2^p leaves partitions and drawings as they are and multiplies
    eigenvalues, energies, rcut objectives and relaxation values by 2^p to
    the bit, also where ||L||_F would overflow (2^520) or its square
    underflow (2^-600). Every other field is unchanged, the 2-way report
    included: it rounds the relaxation at the K-way scale."""

    SCALED = {"eigenvalues": 1, "energy": 1}
    CALLS = [
        ("w1", ["draw", "--dim", "2", "--csv", "CSV"], SCALED),
        ("w1", ["cluster", "--k", "3", "--mode", "rcut"], {"objective": 1, "relaxation_value": 1}),
        ("w1", ["cluster", "--k", "2", "--mode", "ncut"], {}),
        ("g1", ["balance"], {"smallest_signed_laplacian_eigenvalue": 1}),
        ("g1", ["draw", "--signed"], SCALED),
    ]

    @pytest.mark.parametrize("power", [520, -600])
    @pytest.mark.parametrize("name, argv, degrees", CALLS,
                             ids=["w1-draw", "w1-rcut", "w1-ncut-k2", "g1-balance", "g1-draw-signed"])
    def test_weights_times_power_of_two(self, tmp_path, capsys, power, name, argv, degrees):
        W = {"w1": w1_graph, "g1": g1_signed}[name]().W
        csv = str(tmp_path / "out.csv")
        argv = [csv if a == "CSV" else a for a in argv]
        seen = []
        for p in (0, power):
            path = graph_file(tmp_path, f"{name}-{p}.txt", sp.Graph(np.ldexp(W, p)))
            code, out, err = run(capsys, [argv[0], path, *argv[1:]])
            assert (code, err) == (0, "")
            seen.append((json.loads(out), Path(csv).read_text() if "--csv" in argv else None))
        (report, text), (scaled, scaled_text) = seen
        assert scaled == _times_power_of_two(report, degrees, power)
        assert scaled_text == text


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, ["cluster"])[0] == 1

    def test_bipartite_without_signed_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        """draw --bipartite only selects among signed drawings: alone it is
        refused before the graph file is read, naming both flags."""
        path = graph_file(tmp_path, "w1.txt", w1_graph())
        monkeypatch.setattr(cli, "parse_graph", lambda path: pytest.fail("the graph was read"))
        code, out, err = run(capsys, ["draw", path, "--bipartite"])
        assert (code, out) == (1, "")
        assert "--bipartite" in err and "--signed" in err

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


# run in a subprocess under a given BLAS thread count: the whole Lanczos
# reduction of a seeded n = 300 matrix, the Ritz product of its basis with a
# seeded 300 x 300 Z, which DGEMM splits across threads at this size, and
# smallest_k(S, 5), saved to argv[1]
_THREAD_SCRIPT = """
import sys
import numpy as np
from speclap import _kernels, smallest_k
rng = np.random.default_rng(300)
S = rng.standard_normal((300, 300))
S = 0.5 * (S + S.T)
Q, d, e = np.zeros((300, 300)), np.zeros(300), np.zeros(299)
_kernels.lanczos(S, Q, d, e, 0, 300)
Y = Q.T @ rng.standard_normal((300, 300))
values, _ = smallest_k(S, 5)
np.savez(sys.argv[1], S=S, Q=Q, d=d, e=e, Y=Y, values=values)
"""


class TestThreadCount:
    """The contract README states: the library never sets the BLAS thread
    count, and under any count the assignments and exit codes are the same
    and the values agree to a few eps times the norm of what they come from.
    Each side runs in its own process, with OPENBLAS_NUM_THREADS and
    OMP_NUM_THREADS set before numpy loads."""

    def test_one_and_two_threads_agree(self, tmp_path):
        gen = _perfbench_gen()
        W = gen.planted(np.random.default_rng(120), [30] * 4, "unsigned").W
        graph = write_graph(tmp_path, "planted-120.txt", gen.graph_text(W))
        root = Path(__file__).resolve().parents[1]
        seen = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
            out = tmp_path / f"threads-{threads}.npz"
            subprocess.run([sys.executable, "-c", _THREAD_SCRIPT, str(out)], env=env, check=True, timeout=300)
            cli_run = subprocess.run([sys.executable, "-m", "speclap.cli", "cluster", graph, "--k", "4"],
                                     env=env, capture_output=True, text=True, timeout=300)
            seen.append((np.load(out), cli_run))
        (one, cli_one), (two, cli_two) = seen
        eps = np.finfo(float).eps
        assert np.array_equal(one["S"], two["S"])
        norm = np.linalg.norm(one["S"])
        for name in ("d", "e", "values"):
            assert np.all(np.abs(one[name] - two[name]) <= 8 * eps * norm)
        # each basis vector and each Ritz vector to 8 eps of its norm
        assert np.all(np.abs(one["Q"] - two["Q"]) <= 8 * eps)
        assert np.all(np.abs(one["Y"] - two["Y"]) <= 8 * eps * np.linalg.norm(one["Y"], axis=0))
        assert cli_one.returncode == cli_two.returncode == 0, cli_one.stderr + cli_two.stderr
        assert cli_one.stdout == cli_two.stdout and json.loads(cli_one.stdout)["k"] == 4


class TestNoTolEnv:
    """SPECLAP_TOL is not read: whatever it holds, every command exits and
    prints exactly as with the variable unset."""

    @pytest.mark.parametrize("raw", ["not-a-number", "0", "1e-3"])
    def test_output_ignores_speclap_tol(self, tmp_path, capsys, monkeypatch, raw):
        W = ring(12).W.copy()
        W[0, 1] = W[1, 0] = 1.0001  # lambda_2 and lambda_3 are 4.5e-6 apart
        near_tie = graph_file(tmp_path, "near_tie.txt", sp.Graph(W))
        g2 = graph_file(tmp_path, "g2.txt", g2_signed())
        w1 = graph_file(tmp_path, "w1.txt", w1_graph())
        csv = str(tmp_path / "out.csv")
        calls = [["draw", near_tie, "--csv", csv], ["draw", near_tie, "--dim", "3", "--csv", csv],
                 ["draw", g2, "--signed", "--csv", csv], ["balance", g2],
                 ["cluster", w1, "--k", "3"], ["cluster", g2, "--k", "2", "--mode", "sncut"]]

        def outputs():
            seen = []
            for argv in calls:
                code, out, err = run(capsys, argv)
                text = open(csv).read() if "--csv" in argv else None
                seen.append((code, out, err, text))
            return seen

        monkeypatch.delenv("SPECLAP_TOL", raising=False)
        unset = outputs()
        assert all(code == 0 for code, *_ in unset)
        monkeypatch.setenv("SPECLAP_TOL", raw)
        assert outputs() == unset

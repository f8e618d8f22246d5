"""Self-tests of the benchmark harness (not of speclap).

Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""

import os
import signal
import sys
import tempfile
import time
import unittest

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from speclap import cli, graph, kway  # noqa: E402


def _tempdir():
    base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(base, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name)) as f:
            out[name] = f.read()
    return out


def _connected(W):
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in np.nonzero(W[i])[0]:
            if int(j) not in seen:
                seen.add(int(j))
                stack.append(int(j))
    return len(seen) == W.shape[0]


def small_calls(directory):
    """One call of each command on small graphs, like the workloads make."""
    rng = np.random.default_rng(7)
    calls = []
    for kind, mode in (("unsigned", "ncut"), ("unsigned", "rcut"), ("unbalanced", "sncut"),
                       ("unbalanced", "srcut")):
        g = gen.planted(rng, [4, 4, 4], kind)
        path = workloads._write(directory, f"{kind}-{mode}.txt", g)
        calls.append(workloads._cluster(path, g, 3, mode, "rownorm"))
    for name, sizes in (("balanced", [6, 6]), ("unbalanced", [4, 4, 4])):
        calls += workloads._signed_round(directory, name, gen.planted(rng, sizes, name))
    return calls


class GeneratorTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, workload in workloads.WORKLOADS.items():
            if name == "cluster-n120":
                continue  # same code path as the others, larger files
            texts = []
            for _ in range(2):
                with _tempdir() as d:
                    workload.build(workloads.rng_for(11, name), d)
                    texts.append(_files(d))
            self.assertEqual(texts[0], texts[1])
            with _tempdir() as d:
                workload.build(workloads.rng_for(12, name), d)
                other = _files(d)
            self.assertNotEqual(texts[0], other)

    def test_graphs_are_valid_and_round_trip(self):
        rng = np.random.default_rng(3)
        for kind, sizes in (("unsigned", [30] * 4), ("balanced", [24, 24]), ("unbalanced", [16] * 3)):
            p = gen.planted(rng, sizes, kind)
            self.assertTrue(np.array_equal(p.W, p.W.T))
            self.assertFalse(np.diag(p.W).any())
            self.assertTrue(_connected(p.W))
            self.assertEqual(np.bincount(p.blocks).tolist(), sizes)
            with _tempdir() as d:
                path = os.path.join(d, "g.txt")
                with open(path, "w") as f:
                    f.write(gen.graph_text(p.W))
                self.assertTrue(np.array_equal(cli.parse_graph(path).W, p.W))
            if kind == "balanced":
                rows, cols = np.nonzero(p.W)
                self.assertTrue(np.all(np.sign(p.W[rows, cols]) == p.sides[rows] * p.sides[cols]))
            if kind == "unsigned":
                self.assertTrue(np.all(p.W >= 0))


class TracerTests(unittest.TestCase):
    def test_traced_output_matches_untraced(self):
        with _tempdir() as d:
            for call in small_calls(d):
                plain = harness.invoke(cli, call.argv)
                tracer = spans.Tracer()
                with tracer:
                    traced = harness.invoke(cli, call.argv, tracer)
                self.assertEqual((plain.code, plain.out, plain.error),
                                 (traced.code, traced.out, traced.error), call.argv)
                self.assertIsNone(harness.check(call, plain), call.argv)

    def test_self_times_sum_to_call_wall_time(self):
        with _tempdir() as d:
            for call in small_calls(d):
                tracer = spans.Tracer()
                with tracer:
                    out = harness.invoke(cli, call.argv, tracer)
                root = out.spans[0]
                self.assertEqual(root.name, "cli.main")
                total_self = sum(spans.self_times(out.spans).values())
                self.assertAlmostEqual(total_self, root.duration, delta=1e-9)
                self.assertLessEqual(root.duration, out.wall)
                self.assertLess(out.wall - root.duration, 0.05 * out.wall + 1e-3)

    def test_every_layer_is_traced(self):
        with _tempdir() as d:
            tracer = spans.Tracer()
            for call in small_calls(d):
                with tracer:
                    harness.invoke(cli, call.argv, tracer)
            names = {s.name.split(".")[0] for s in tracer.spans}
        self.assertEqual(names, {"cli", "graph", "laplacian", "eigen", "kway", "ncut2", "drawing"})

    def test_uninstall_restores_bindings(self):
        before = (cli.cluster, kway.laplacian, graph.Graph.__init__)
        with spans.Tracer():
            self.assertIsNot(cli.cluster, before[0])
            self.assertIsNot(kway.laplacian, before[1])
        self.assertEqual((cli.cluster, kway.laplacian, graph.Graph.__init__), before)

    def test_alternation_rounds_match_reported_iterations(self):
        with _tempdir() as d:
            call = small_calls(d)[0]
            tally = harness.Tally()
            plain = harness.invoke(cli, call.argv)
            self.assertIsNone(harness._traced_twin(cli, call, plain, spans.Tracer(), tally))
            reported = oracles.parse_report(plain.out)["iterations"]
            self.assertEqual(tally.layer["kway.alternation.rounds"], reported)


class LoopTests(unittest.TestCase):
    def test_first_pass_runs_whole_and_counts_operations(self):
        with _tempdir() as d:
            calls = small_calls(d)
            units = [calls[:4], calls[4:]]
            tally = harness.run_loop(cli, units, 0.0)
        self.assertEqual(tally.calls, len(calls))
        self.assertEqual(tally.attempted, len(calls))
        self.assertEqual(tally.failed, 0)

    def test_repeats_count_each_operation_once(self):
        with _tempdir() as d:
            calls = small_calls(d)[:2]
            tally = harness.run_loop(cli, [calls], 0.5)
        self.assertGreater(tally.calls, len(calls))
        self.assertEqual(tally.attempted, len(calls))


class SpeedTests(unittest.TestCase):
    def test_sampler_samples_and_restores_the_signal(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.Sampler() as sampler:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                pass
        self.assertGreaterEqual(len(sampler.samples), 5)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(sampler.factor, 0.0)

    def test_factor_scales_to_the_reference_and_drops_outliers(self):
        samples = [speed.REFERENCE_S * 2] * 18 + [0.0, 1.0]
        self.assertAlmostEqual(speed.factor(samples), 0.5)


class OracleTests(unittest.TestCase):
    """The oracles must reject a wrong answer, not only accept right ones."""

    def setUp(self):
        self._dir = _tempdir()
        self.calls = small_calls(self._dir.name)

    def tearDown(self):
        self._dir.cleanup()

    def _first(self, command):
        """Run the first call of a command; its output must pass the oracles."""
        call = next(c for c in self.calls if c.command == command)
        out = harness.invoke(cli, call.argv)
        self.assertIsNone(harness.check(call, out))
        return call, oracles.parse_report(out.out)

    def test_cluster_objective_and_blocks(self):
        call, report = self._first("cluster")
        report["objective"] *= 1.001
        self.assertIsNotNone(oracles.check_cluster(report, call.graph.W, call.k, call.mode))
        call, report = self._first("cluster")
        report["assignments"] = [1] * call.n
        self.assertIsNotNone(oracles.check_cluster(report, call.graph.W, call.k, call.mode))

    def test_two_way_ncut(self):
        call, report = self._first("cluster_k2")
        report["two_way"] = dict(report["two_way"], ncut=report["two_way"]["ncut"] + 1e-3)
        self.assertIsNotNone(oracles.check_cluster(report, call.graph.W, call.k, call.mode))

    def test_draw_energy(self):
        call, report = self._first("draw")
        report["energy"] += 1e-3
        with open(call.csv) as f_csv, open(call.svg) as f_svg:
            csv_text, svg_text = f_csv.read(), f_svg.read()
        unbalanced = call.graph.kind == "unbalanced"
        self.assertIsNotNone(oracles.check_draw(report, call.graph.W, 2, unbalanced, csv_text, svg_text))

    def test_balance_truth(self):
        call, report = self._first("balance")
        report["balanced"] = not report["balanced"]
        self.assertIsNotNone(oracles.check_balance(report, call.graph.W, call.graph.sides))


if __name__ == "__main__":
    unittest.main()

"""Closed-loop client of the speclap CLI: one caller, one call at a time.

Every call goes through `speclap.cli.main(argv)` in this process, on graph
files written during set-up, with stdout and stderr captured. After each call
(outside its timed region) the oracles check the output. A call fails when
`main` raises, returns non-zero, or its output fails an oracle; a failure is
counted and the run goes on.

Untraced runs give the end-to-end metrics. Traced runs run every call twice,
untraced then traced, and give the per-layer metrics from the traced twin;
the two must print identical output.
"""

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import gen
import oracles
import spans
import speed
import workloads

COLD_LAUNCHES = 9
SETUP_BURSTS = 20  # reference bursts before each cold launch (see speed.py)
COMMANDS = ("cluster", "cluster_k2", "draw", "balance")


@dataclass
class Outcome:
    code: int | None
    out: str
    err: str
    wall: float
    error: str = ""  # exception that escaped cli.main, if any
    spans: list = field(default_factory=list)


def invoke(cli, argv, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    error = ""
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        first = len(tracer.spans) if tracer else 0
        t0 = time.perf_counter()
        root = tracer.open_span("cli.main") if tracer else None
        try:
            code = cli.main(list(argv))
        except Exception as e:  # noqa: BLE001 - a crash is a counted failure
            error = "".join(traceback.format_exception_only(type(e), e)).strip()
        finally:
            if root is not None:
                tracer.close_span(root)
        wall = time.perf_counter() - t0
    call_spans = tracer.spans[first:] if tracer else []
    return Outcome(code, out.getvalue(), err.getvalue(), wall, error, call_spans)


def _read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


def check(call, outcome):
    """None when the call succeeded and its output is right, else a reason."""
    if outcome.error:
        return f"raised {outcome.error.splitlines()[-1]}"
    if outcome.code != 0:
        return f"exit code {outcome.code}: {outcome.err.strip()[:200]}"
    report = oracles.parse_report(outcome.out)
    if report is None:
        return "stdout is not one JSON object"
    W = call.graph.W
    if call.command.startswith("cluster"):
        return oracles.check_cluster(report, W, call.k, call.mode)
    if call.command == "draw":
        unbalanced = call.graph.kind == "unbalanced"
        return oracles.check_draw(report, W, call.dim, unbalanced, _read(call.csv), _read(call.svg))
    return oracles.check_balance(report, W, call.graph.sides)


def objective_ratio(call, outcome):
    planted = workloads.planted_match(call)
    if planted is None:
        return None
    labels = np.asarray(oracles.parse_report(outcome.out)["assignments"])
    return oracles.cut_objective(call.graph.W, labels, call.mode) / oracles.cut_objective(
        call.graph.W, planted, call.mode
    )


def cold_start(workload, w1_path, env):
    """Wall times of fresh `python -m speclap.cli` processes on the W1 graph,
    and the speed factor from reference bursts run before each launch."""
    sub, *opts = workload.setup_argv
    cmd = [sys.executable, "-m", "speclap.cli", sub, w1_path, *opts]
    times, bursts = [], []
    for _ in range(COLD_LAUNCHES):
        bursts += [speed.burst() for _ in range(SETUP_BURSTS)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or oracles.parse_report(proc.stdout) is None:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-300:]}")
    bursts += [speed.burst() for _ in range(SETUP_BURSTS)]
    return times, speed.factor(bursts)


@dataclass
class Tally:
    """What a run saw, call by call.

    An operation is one call of the schedule: one command on one generated
    graph. The loop repeats operations; `attempted` counts the distinct
    operations run and `failed` those with at least one failed call, so both
    follow from the seed and not from how many repeats fitted in the time.
    """

    calls: int = 0
    ops: set = field(default_factory=set)  # operations tried
    failures: dict = field(default_factory=dict)  # reason -> failed calls
    failed_ops: set = field(default_factory=set)
    wrong: int = 0  # calls that exited 0 with output an oracle rejects
    walls: list = field(default_factory=list)  # every call, failed ones too
    by_command: dict = field(default_factory=dict)  # command -> walls
    ratios: list = field(default_factory=list)
    out_bytes: int = 0
    traced_walls: list = field(default_factory=list)
    untraced_twin_walls: list = field(default_factory=list)
    mismatches: int = 0
    layer: dict = field(default_factory=dict)  # per-layer sums over traced calls
    traced_calls: int = 0

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return len(self.failed_ops)

    @property
    def failed_calls(self):
        return sum(self.failures.values())

    def fail(self, op, reason, outcome):
        self.failed_ops.add(op)
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if not outcome.error and outcome.code == 0:
            self.wrong += 1


def run_loop(cli, units, seconds, tracer=None):
    """Run every unit once, then cycle through them again while the next
    unit is expected to end within `seconds` of the start.

    The first pass always runs whole, so every operation of the schedule is
    tried in every run; the expectation is the unit's previous wall time.
    """
    tally = Tally()
    t0 = time.perf_counter()
    last = [0.0] * len(units)
    i = 0
    while i < len(units) or time.perf_counter() - t0 + last[i % len(units)] <= seconds:
        u = i % len(units)
        start = time.perf_counter()
        for j, call in enumerate(units[u]):
            _run_call(cli, (u, j), call, tally, tracer)
        last[u] = time.perf_counter() - start
        i += 1
    return tally


def _run_call(cli, op, call, tally, tracer):
    outcome = invoke(cli, call.argv)
    tally.calls += 1
    # a failed call still held the client, so it counts in the timings
    tally.walls.append(outcome.wall)
    tally.ops.add(op)
    tally.by_command.setdefault(call.command, []).append(outcome.wall)
    reason = check(call, outcome)
    if call.command == "draw" and reason is None:
        tally.out_bytes += os.path.getsize(call.svg) + os.path.getsize(call.csv)
    if tracer is not None:
        twin = _traced_twin(cli, call, outcome, tracer, tally)
        reason = reason or twin
    if reason is not None:
        tally.fail(op, reason, outcome)
        return
    ratio = objective_ratio(call, outcome)
    if ratio is not None:
        tally.ratios.append(ratio)


def _traced_twin(cli, call, untraced, tracer, tally):
    with tracer:
        traced = invoke(cli, call.argv, tracer)
    same = (traced.code, traced.out, traced.error) == (untraced.code, untraced.out, untraced.error)
    if not same:
        tally.mismatches += 1
        return "traced output differs from untraced"
    if untraced.error or untraced.code != 0:
        return None
    reason = layer_metrics(call, traced, tally)
    tally.traced_walls.append(traced.wall)
    tally.untraced_twin_walls.append(untraced.wall)
    return reason


def _add(acc, key, value):
    acc[key] = acc.get(key, 0.0) + value


def layer_metrics(call, traced, tally):
    """Add one traced call's per-layer figures to the tally's sums."""
    call_spans = traced.spans
    selfs = spans.self_times(call_spans)
    kids = spans.children_by_parent(call_spans)
    acc = tally.layer
    tally.traced_calls += 1
    _add(acc, f"calls.{call.command}", 1)
    _add(acc, "call.s", call_spans[0].duration)
    _add(acc, "cli.main.self_s", selfs[call_spans[0].id])
    for s in call_spans:
        name = s.name
        if name in ("cli.parse_graph", "graph.Graph", "graph.connected_components",
                    "laplacian.laplacian", "laplacian.is_balanced", "eigen.sym_eigen",
                    "eigen.svd", "kway.podx", "kway.objective", "drawing.energy"):
            _add(acc, f"{name}.s", s.duration)
        if name in ("laplacian.laplacian", "eigen.sym_eigen", "eigen.svd"):
            _add(acc, f"{name}.calls", 1)
        if name in ("eigen.sym_eigen", "eigen.svd"):
            _add(acc, "eigen.s", s.duration)
        if name == "eigen.sym_eigen":
            if s.attrs["n"] == call.n:
                _add(acc, "eigen.full_solves", 1)
                _add(acc, f"full_solves.{call.command}", 1)
            M = s.attrs.pop("matrix")
            t0 = time.perf_counter()
            np.linalg.eigh(M)
            _add(acc, "eigen.ref_eigh.s", time.perf_counter() - t0)
        elif name == "eigen.jacobi":
            n, sweeps = s.attrs["n"], s.attrs["sweeps"]
            _add(acc, "eigen.jacobi.sweeps", sweeps)
            _add(acc, "eigen.jacobi.flops", 9.0 * n * n * (n - 1) * sweeps)
            _add(acc, "eigen.jacobi.s", s.duration)
        elif name in ("kway.solve_relaxed", "kway.podr"):
            _add(acc, f"{name}.self_s", selfs[s.id])
        elif name in ("ncut2.solve_relaxed_2way", "ncut2.orient_sign", "ncut2.round_2way"):
            _add(acc, "ncut2.two_way.s", s.duration)
        elif name in ("drawing.spectral_drawing", "drawing.signed_drawing"):
            _add(acc, "drawing.drawing.self_s", selfs[s.id])
        elif name in ("drawing.emit_svg", "drawing.emit_csv"):
            _add(acc, "drawing.emit.s", s.duration)
        elif name == "kway.cluster":
            reason = _kway_phases(kids.get(s.id, []), acc, traced.out)
            if reason:
                return reason
    return None


def _kway_phases(children, acc, out):
    """Split one kway.cluster span into initialisation and alternation.

    The alternation's first step is the podx right before the first podr;
    initialisation is everything from the end of solve_relaxed up to it; the
    alternation ends where the objective of the final partition starts.
    """
    names = [c.name for c in children]
    first_podr = names.index("kway.podr")
    start = children[first_podr - 1].start
    relaxed = children[names.index("kway.solve_relaxed")]
    end = children[names.index("kway.objective")].start
    rounds = names.count("kway.podr")
    _add(acc, "kway.init.s", start - relaxed.end)
    _add(acc, "kway.alternation.s", end - start)
    _add(acc, "kway.alternation.rounds", rounds)
    reported = oracles.parse_report(out)["iterations"]
    if rounds != reported:
        return f"traced {rounds} alternation rounds, report says {reported}"
    return None


# per-layer metric -> unit; every value is a mean per traced CLI call unless
# the name says otherwise
LAYER_UNITS = {
    "cli.main.self_s": "s",
    "cli.parse_graph.s": "s",
    "graph.Graph.s": "s",
    "graph.connected_components.s": "s",
    "laplacian.laplacian.s": "s",
    "laplacian.laplacian.calls": "count",
    "laplacian.is_balanced.s": "s",
    "eigen.sym_eigen.s": "s",
    "eigen.sym_eigen.calls": "count",
    "eigen.jacobi.sweeps": "count",
    "eigen.jacobi.flops": "flop",
    "eigen.jacobi.gflops": "GFLOP/s",
    "eigen.share": "fraction",
    "eigen.full_solves": "count",
    "eigen.svd.s": "s",
    "eigen.svd.calls": "count",
    "eigen.ref_eigh.s": "s",
    "kway.solve_relaxed.self_s": "s",
    "kway.init.s": "s",
    "kway.alternation.s": "s",
    "kway.alternation.rounds": "count",
    "kway.podx.s": "s",
    "kway.podr.self_s": "s",
    "kway.objective.s": "s",
    "ncut2.two_way.s": "s",
    "drawing.drawing.self_s": "s",
    "drawing.energy.s": "s",
    "drawing.emit.s": "s",
    "drawing.out_bytes": "B",
    "cmd.cluster.p50_s": "s",
    "cmd.cluster_k2.p50_s": "s",
    "cmd.draw.p50_s": "s",
    "cmd.balance.p50_s": "s",
    "trace.overhead_frac": "fraction",
}


def per_layer(tally):
    calls = max(tally.traced_calls, 1)
    acc = tally.layer
    values = {}
    for name in LAYER_UNITS:
        values[name] = acc.get(name, 0.0) / calls
    values["eigen.jacobi.gflops"] = (
        acc["eigen.jacobi.flops"] / acc["eigen.jacobi.s"] / 1e9 if acc.get("eigen.jacobi.s") else 0.0
    )
    values["eigen.share"] = acc.get("eigen.s", 0.0) / acc["call.s"] if acc.get("call.s") else 0.0
    values["drawing.out_bytes"] = tally.out_bytes / max(tally.calls, 1)
    for command in COMMANDS:
        walls = tally.by_command.get(command)
        values[f"cmd.{command}.p50_s"] = statistics.median(walls) if walls else 0.0
    untraced = sum(tally.untraced_twin_walls)
    values["trace.overhead_frac"] = (sum(tally.traced_walls) - untraced) / untraced if untraced else 0.0
    return values


def full_solves_by_command(tally):
    """n x n eigensolves per call of each command, from the traced calls."""
    acc = tally.layer
    return {
        c: acc.get(f"full_solves.{c}", 0.0) / acc[f"calls.{c}"]
        for c in COMMANDS
        if acc.get(f"calls.{c}")
    }


def end_to_end(tally, setup_times, factors):
    """factors: speed factors (see speed.py) of the "loop" and "setup" phases;
    pass 1.0 for both to get the times as measured."""
    loop, setup = factors["loop"], factors["setup"]
    return {
        "calls_per_s": len(tally.walls) / (sum(tally.walls) * loop),
        "call_p50_s": statistics.median(tally.walls) * loop,
        "objective_ratio": statistics.median(tally.ratios) if tally.ratios else 0.0,
        "setup_s": statistics.median(setup_times) * setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {
    "calls_per_s": "1/s",
    "call_p50_s": "s",
    "objective_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_workload(name, seed, seconds, traced, workdir, env):
    """Set up, warm up and measure one workload.

    Returns the tally, the cold-start times, the tracer (None untraced) and
    the speed factors of set-up and of the loop (the loop's is sampled only
    untraced, so that traced times are as measured)."""
    from speclap import cli  # imported after the caller pinned the threads

    workload = workloads.WORKLOADS[name]
    w1_path = os.path.join(workdir, "W1.txt")
    with open(w1_path, "w", encoding="utf-8") as f:
        f.write(gen.W1_TEXT)
    setup_times, setup_factor = cold_start(workload, w1_path, env)
    units = workload.build(workloads.rng_for(seed, name), workdir)

    sub, *opts = workload.setup_argv  # warm up this process on W1
    warm = invoke(cli, [sub, w1_path, *opts])
    if warm.code != 0 or warm.error:
        raise RuntimeError(f"warm-up call failed: {warm.error or warm.err}")
    np.linalg.eigh(np.eye(4))

    if traced:
        tracer = spans.Tracer()
        tally = run_loop(cli, units, seconds, tracer)
        factors = {"setup": setup_factor, "loop": 1.0}
    else:
        tracer = None
        with speed.Sampler() as loop_speed:
            tally = run_loop(cli, units, seconds)
        factors = {"setup": setup_factor, "loop": loop_speed.factor}
    return tally, setup_times, tracer, factors

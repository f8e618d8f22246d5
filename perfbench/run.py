"""speclap benchmark: the CLI end to end, with per-layer tracing from outside.

Run from the root of a source checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload cluster-n120 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One closed-loop client calls `speclap.cli.main(argv)` in this process, one
call at a time, on graph files generated from --seed during set-up. The loop
runs every unit of calls (see workloads.py) once, then repeats units while
the next is expected to end within --seconds. Every call's output is checked
by independent numpy oracles. End-to-end times are scaled to a reference
machine speed sampled during the run (see speed.py); the `#` lines also give
them as measured.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a run in which every call also runs a second time under the tracer.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`attempted` counts the distinct operations (one command on one generated
graph) and `failed` those with a call that raised, exited non-zero or failed
an oracle, so both depend on the seed only; `correct` is false when a call
exited 0 with output an oracle rejects, or when a traced call printed
something other than its untraced twin.

The spans and the environment of each run are written to
.perfbench-out/<workload>-seed<seed>-trace<0|1>.json in the checkout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the names of workloads.WORKLOADS, repeated so that parsing the arguments
# does not import numpy before the threads are pinned
WORKLOAD_NAMES = ("cluster-n120", "batch-n12", "signed-n48")
OUT_DIR = ".perfbench-out"
WORK_DIR = ".perfbench-work"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git (which would
    search the parent directories); None outside a git work tree."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def environment(root, inherited):
    import importlib.util
    import platform

    import numpy as np

    from speclap import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "numba_present": importlib.util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env_inherited": inherited,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
    }


def run_one(args, root, inherited):
    import harness  # numpy is imported only after the threads are pinned

    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    try:
        tally, setup_times, tracer, factors = harness.run_workload(
            args.workload, args.seed, args.seconds, args.trace == 1, workdir, env
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e = harness.end_to_end(tally, setup_times, factors)
    e2e_measured = harness.end_to_end(tally, setup_times, {"setup": 1.0, "loop": 1.0})
    if args.trace:
        values, units = harness.per_layer(tally), harness.LAYER_UNITS
    else:
        values, units = e2e, harness.E2E_UNITS
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    solves = harness.full_solves_by_command(tally)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, inherited),
        "end_to_end": e2e,
        "end_to_end_as_measured": e2e_measured,
        "speed_factors": factors,
        "setup_times_s": setup_times,
        "calls": tally.calls,
        "failed_operations": sorted(tally.failed_ops),
        "failures": tally.failures,
        "full_solves_by_command": solves,
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end,
             "attrs": {k: v for k, v in s.attrs.items() if k != "matrix"}}
            for s in tracer.spans
        ]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    out_path = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(record, f)

    print(f"# {args.workload} seed={args.seed} operations attempted={tally.attempted} "
          f"failed={tally.failed} failed_frac={tally.failed / tally.attempted:.4f}; "
          f"calls={tally.calls} failed calls={tally.failed_calls} wrong={tally.wrong} "
          f"trace_mismatches={tally.mismatches}")
    for reason, count in sorted(tally.failures.items()):
        print(f"#   {count} x {reason}")
    print(f"# speed factors: set-up {factors['setup']:.4f}, loop {factors['loop']:.4f}")
    for name, m in metrics.items():
        measured = e2e_measured.get(name) if not args.trace else None
        extra = f"  (as measured {measured:.6g})" if measured is not None and measured != m["value"] else ""
        print(f"#   {name} = {m['value']:.6g} {m['unit']}{extra}")
    for command, count in solves.items():
        print(f"#   full n x n solves per {command} call = {count:.3g}")
    print(json.dumps({
        "correct": tally.wrong == 0 and tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Each workload in its own process (so peak RSS is per workload)."""
    rows = []
    for name in WORKLOAD_NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            rows.append((name, traced, json.loads(proc.stdout.strip().splitlines()[-1])))
    print(f"{'workload':<14}{'metric':<30}{'value':>14}  unit")
    for name, traced, result in rows:
        if not traced:
            frac = result["failed"] / result["attempted"]
            print(f"{name:<14}{'failed_frac':<30}{frac:>14.6g}  fraction"
                  f"  ({result['failed']}/{result['attempted']}, correct={result['correct']})")
        for metric, m in result["metrics"].items():
            print(f"{name:<14}{metric:<30}{m['value']:>14.6g}  {m['unit']}")
    return 0


def main(argv=None):
    args = _args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "speclap", "cli.py")):
        print("perfbench: run from the root of a speclap checkout (no src/speclap here)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # single-threaded baseline: pin BLAS/OpenMP threads before numpy loads
    inherited = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path.insert(0, src)
    import speclap

    if not os.path.abspath(speclap.__file__).startswith(src + os.sep):
        print(f"perfbench: imported speclap from {speclap.__file__}, not {src}", file=sys.stderr)
        return 2
    return run_one(args, root, inherited)


if __name__ == "__main__":
    sys.exit(main())

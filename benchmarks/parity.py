"""Record every CLI output of a fixed set of speclap calls, and compare two records.

`record DIR` runs each call in this process through `speclap.cli.main`:
every call of the three perfbench workload schedules at the given seeds
(built by `perfbench/workloads.py`, imported read-only), then a fixed set
of calls on the test suite's golden graphs W1, G1 and G2 and on path(5),
whose K = 2 ncut vector has an exact zero at node 3, so `cluster --k 2`
reaches the zero-entry move of the 2-way rounding:

* `cluster --k K --mode MODE [--rescale R] --json FILE` for K = 2-5, every
  mode and every rescale method or none;
* `draw --dim D --svg FILE --csv FILE` for D = 1-3, plain, `--signed` and
  `--signed --bipartite`;
* `balance`.

It writes DIR/record.json: per call the argv, exit code, stdout, stderr, the
exception that escaped `main` (if any) and the text of every file the call
wrote, with the temporary directory the graphs and outputs live in replaced
by `<tmp>`.

`compare A B` matches the calls of two records by argv. It counts the calls
that differ beyond float digits: in exit code or escaped exception, or in
stdout, stderr or file text once every float literal (a number written with
a point or an exponent, or inf and nan) is masked. Integers stay: they are
assignments, round counts, node indices and dimensions. It lists every call
whose record differs, in which part, with exit-code and error-class changes
called out, and the largest move of each numeric field of the stdout JSON
over all calls (relative where the larger magnitude is above 1e-6, absolute
below). It exits 1 on any difference, 0 when the records are identical.

Usage, from the root of a checkout (speclap is imported from ./src):
  PYTHONPATH=src python benchmarks/parity.py record DIR [--seeds 1,2,3] [--stride 1]
  PYTHONPATH=src python benchmarks/parity.py compare A B

`--stride N` keeps every N-th call of the full list: a quick subset. To
compare two versions, record each with PYTHONPATH pointing at its `src`.
"""

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
import traceback

from speclap import cli

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
import conftest  # noqa: E402
import workloads  # noqa: E402

TMP = "<tmp>"
GOLDEN = {"W1": conftest.w1_graph, "G1": conftest.g1_signed, "G2": conftest.g2_signed,
          "P5": lambda: conftest.path(5)}
MODES = ("ncut", "rcut", "sncut", "srcut")
RESCALES = (None, "rowsum", "rownorm-ls", "rownorm")
DRAW_FLAGS = ((), ("--signed",), ("--signed", "--bipartite"))
OUTPUT_OPTIONS = ("--svg", "--csv", "--json")


def schedule_calls(seeds, directory):
    """argv of every call of every workload schedule, seed by seed."""
    calls = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in seeds:
            sub = os.path.join(directory, f"{name}-{seed}")
            os.mkdir(sub)
            units = workload.build(workloads.rng_for(seed, name), sub)
            calls += [list(call.argv) for unit in units for call in unit]
    return calls


def golden_calls(directory):
    """argv of the fixed calls on the GOLDEN graphs."""
    out = os.path.join(directory, "out")
    os.mkdir(out)
    calls = []
    for name, build in GOLDEN.items():
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(cli.serialize_graph(build()))
        for k in range(2, 6):
            for mode in MODES:
                for rescale in RESCALES:
                    argv = ["cluster", path, "--k", str(k), "--mode", mode]
                    argv += ["--rescale", rescale] if rescale else []
                    calls.append(argv + ["--json", os.path.join(out, "report.json")])
        for dim in (1, 2, 3):
            for flags in DRAW_FLAGS:
                calls.append(["draw", path, "--dim", str(dim), *flags, "--svg", os.path.join(out, "draw.svg"),
                              "--csv", os.path.join(out, "draw.csv")])
        calls.append(["balance", path])
    return calls


def _output_paths(argv):
    """The files a call may write: each output option's path, and for --svg
    also the -xy/-xz projections a 3-d drawing writes instead."""
    for option in OUTPUT_OPTIONS:
        if option in argv:
            path = argv[argv.index(option) + 1]
            yield path
            if option == "--svg":
                stem = path[:-4] if path.endswith(".svg") else path
                yield from (f"{stem}-xy.svg", f"{stem}-xz.svg")


def run_call(argv, directory):
    """One call's record, with directory replaced by TMP. The files it wrote
    are read and removed, so the next call starts without them."""
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as e:  # noqa: BLE001 - an escaping exception is recorded, not fatal
            raised = "".join(traceback.format_exception_only(type(e), e)).strip()
    files = {}
    for path in _output_paths(argv):
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as f:
                files[path.replace(directory, TMP)] = f.read().replace(directory, TMP)
            os.remove(path)
    return {"argv": " ".join(argv).replace(directory, TMP), "code": code, "raised": raised,
            "stdout": out.getvalue().replace(directory, TMP), "stderr": err.getvalue().replace(directory, TMP),
            "files": files}


def record(target, seeds, stride):
    with tempfile.TemporaryDirectory() as directory:
        calls = (schedule_calls(seeds, directory) + golden_calls(directory))[::stride]
        records = [run_call(argv, directory) for argv in calls]
    keys = [r["argv"] for r in records]
    if len(set(keys)) != len(keys):
        raise SystemExit("two calls share an argv: records could not be matched")
    os.makedirs(target, exist_ok=True)
    with open(os.path.join(target, "record.json"), "w", encoding="utf-8") as f:
        json.dump(records, f, indent=0)
    failed = sum(r["code"] != 0 for r in records)
    print(f"recorded {len(records)} calls ({failed} non-zero exits) in {os.path.join(target, 'record.json')}")


def error_class(rec):
    """The class of the error a call ended in, or None on success."""
    if rec["raised"]:
        return rec["raised"].split(":")[0]
    if rec["code"] != 0:
        lines = rec["stderr"].strip().splitlines()
        try:
            return json.loads(lines[-1])["error"]
        except (IndexError, ValueError, KeyError, TypeError):
            return f"exit {rec['code']}"
    return None


# a float literal as repr, json and the output formats write one, not part
# of a word or of a longer number
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan|Infinity|NaN)(?![\w.])")


def _beyond_floats(ra, rb):
    """Whether two records of one call differ in more than float digits:
    exit code, escaped exception, or any text with its floats masked."""
    if (ra["code"], ra["raised"]) != (rb["code"], rb["raised"]):
        return True
    texts = [(ra[part], rb[part]) for part in ("stdout", "stderr")]
    texts += [(ra["files"].get(name), rb["files"].get(name)) for name in ra["files"].keys() | rb["files"].keys()]
    return any(x is None or y is None or FLOAT.sub("#", x) != FLOAT.sub("#", y) for x, y in texts)


def _numbers(value, field=""):
    """(field, number) for every numeric leaf of a JSON value; list indices
    collapse to [] so a field names one quantity across its entries."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, f"{field}.{key}" if field else key)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item, field + "[]")
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield field, value


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _moves(a, b):
    """(field, move, relative) for each numeric leaf of stdout JSON a and b,
    when both hold the same fields in the same order."""
    left, right = list(_numbers(_json_or_none(a))), list(_numbers(_json_or_none(b)))
    if [f for f, _ in left] != [f for f, _ in right]:
        return []
    out = []
    for (field, x), (_, y) in zip(left, right):
        top = max(abs(x), abs(y))
        relative = top > 1e-6
        out.append((field, abs(x - y) / top if relative else abs(x - y), relative))
    return out


def _load(directory):
    with open(os.path.join(directory, "record.json"), "r", encoding="utf-8") as f:
        return {r["argv"]: r for r in json.load(f)}


def compare(a_dir, b_dir):
    a, b = _load(a_dir), _load(b_dir)
    only_a, only_b = sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
    differing, outcome_changes, largest, beyond = [], [], {}, 0
    for key in (k for k in a if k in b):
        ra, rb = a[key], b[key]
        parts = [part for part in ("code", "raised", "stdout", "stderr") if ra[part] != rb[part]]
        parts += [f"file {name}" for name in sorted(ra["files"].keys() | rb["files"].keys())
                  if ra["files"].get(name) != rb["files"].get(name)]
        if not parts:
            continue
        differing.append((key, parts))
        beyond += _beyond_floats(ra, rb)
        ca, cb = (ra["code"], error_class(ra)), (rb["code"], error_class(rb))
        if ca != cb:
            outcome_changes.append((key, ca, cb))
        for field, move, relative in _moves(ra["stdout"], rb["stdout"]):
            if move > largest.get(field, (0.0,))[0]:
                largest[field] = (move, relative, key)
    print(f"compared {len(a.keys() & b.keys())} calls: {len(differing)} differ, "
          f"{len(only_a)} only in {a_dir}, {len(only_b)} only in {b_dir}")
    print(f"{beyond} of the {len(differing)} differ beyond float digits")
    for label, keys in ((f"only in {a_dir}", only_a), (f"only in {b_dir}", only_b)):
        for key in keys:
            print(f"  {label}: {key}")
    if outcome_changes:
        print("exit code and error class changes:")
        for key, (code_a, cls_a), (code_b, cls_b) in outcome_changes:
            print(f"  {key}: {code_a} {cls_a or ''} -> {code_b} {cls_b or ''}")
    if differing:
        print("differing calls:")
        for key, parts in differing:
            print(f"  {key}: {', '.join(parts)}")
    if largest:
        print("largest move per stdout field:")
        for field, (move, relative, key) in sorted(largest.items()):
            print(f"  {field}: {move:.3g} {'relative' if relative else 'absolute'} ({key})")
    return 1 if differing or only_a or only_b else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("record")
    r.add_argument("directory")
    r.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    r.add_argument("--stride", type=int, default=1, help="keep every N-th call")
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.command == "record":
        record(args.directory, [int(s) for s in args.seeds.split(",") if s], args.stride)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in tracer: spans around the public functions of each layer.

The program is not edited. Instead, every module-level binding of a traced
function (for example `kway.laplacian`, `drawing.laplacian` and
`cli.laplacian`, which all name `laplacian.laplacian`) is replaced by a
wrapper that records a span, and put back on `uninstall`. `Graph` is traced
through its `__init__`, so `isinstance` checks keep working.

A span is (id, parent id, name, start, end, attrs). Spans stay in memory;
`Tracer.spans` is read when the run ends. Self time is a span's duration
minus the durations of its direct children (the program is single-threaded,
so children never overlap).

Modules are reached through `importlib.import_module`: the attribute
`speclap.laplacian` is the function, because the package `__init__`
re-exports it over the submodule.
"""

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "speclap"
MODULES = ("cli", "graph", "laplacian", "eigen", "_kernels", "kway", "ncut2", "drawing")

# (module, function) pairs whose bindings are wrapped; the span is named
# "<layer>.<function>", the layer being the defining module ("_kernels" is
# part of the eigen layer)
TARGETS = (
    ("cli", "parse_graph"),
    ("graph", "connected_components"),
    ("laplacian", "laplacian"),
    ("laplacian", "is_balanced"),
    ("eigen", "sym_eigen"),
    ("eigen", "svd"),
    ("_kernels", "jacobi_eigen"),
    ("kway", "cluster"),
    ("kway", "solve_relaxed"),
    ("kway", "podx"),
    ("kway", "podr"),
    ("kway", "objective"),
    ("ncut2", "solve_relaxed_2way"),
    ("ncut2", "orient_sign"),
    ("ncut2", "round_2way"),
    ("drawing", "spectral_drawing"),
    ("drawing", "signed_drawing"),
    ("drawing", "energy"),
    ("drawing", "emit_svg"),
    ("drawing", "emit_csv"),
)

_SPAN_NAMES = {("_kernels", "jacobi_eigen"): "eigen.jacobi"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _matrix_size(args):
    shape = getattr(args[0], "shape", ()) if args else ()
    return int(shape[0]) if shape else None


def _record_size(span, args, result):
    span.attrs["n"] = _matrix_size(args)


def _record_sweeps(span, args, result):
    span.attrs["n"] = _matrix_size(args)
    span.attrs["sweeps"] = int(result)


def _record_eigen_input(span, args, result):
    # the input is kept so the reference solver can be timed on it later
    span.attrs["n"] = _matrix_size(args)
    span.attrs["matrix"] = args[0].copy()


# extra attributes recorded when a span closes: (span, args, result) -> None
_RECORDERS = {
    ("eigen", "sym_eigen"): _record_eigen_input,
    ("eigen", "svd"): _record_size,
    ("_kernels", "jacobi_eigen"): _record_sweeps,
}


class Tracer:
    """Records spans while installed. Use as a context manager around the
    calls to trace; `open_span`/`close_span` add spans from the caller."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []  # (owner, attribute, original) to restore

    # -- spans -------------------------------------------------------------
    def open_span(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close_span(self, span):
        span.end = perf_counter()
        top = self._stack.pop()
        if top is not span:  # pragma: no cover - wrappers always nest
            raise RuntimeError(f"span {span.name} closed out of order")

    def _wrap(self, fn, name, record):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(span)
            if record is not None:
                record(span, args, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        owners = list(mods.values()) + [importlib.import_module(PACKAGE)]
        for mod_name, fn_name in TARGETS:
            fn = getattr(mods[mod_name], fn_name)
            layer = "eigen" if mod_name == "_kernels" else mod_name
            name = _SPAN_NAMES.get((mod_name, fn_name), f"{layer}.{fn_name}")
            wrapper = self._wrap(fn, name, _RECORDERS.get((mod_name, fn_name)))
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._saved.append((owner, attr, value))
                        setattr(owner, attr, wrapper)
        graph_cls = mods["graph"].Graph
        init = graph_cls.__init__
        self._saved.append((graph_cls, "__init__", init))
        graph_cls.__init__ = self._wrap(init, "graph.Graph", None)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def children_by_parent(spans):
    out = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans):
    """Self time per span id: duration minus direct children's durations."""
    kids = children_by_parent(spans)
    return {s.id: s.duration - sum(c.duration for c in kids.get(s.id, ())) for s in spans}

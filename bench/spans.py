"""In-memory span tracing of the tokengraphs modules, applied from outside.

``instrument`` swaps the public functions of each measured module for
wrappers that open a span around the call, then puts the originals back.
A span is ``[name, start_ns, end_ns, parent, instance, counts]``; the
parent is an index into the same list (-1 for a root). A call that
re-enters the layer it is already in (``double_vertex`` calling
``k_token``, say) opens no new span, so each layer's time and counts are
taken once.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

NAME, START, END, PARENT, INSTANCE, COUNTS = range(6)

# Span name -> (module, public functions). Functions not named here run
# inside the span of their caller.
LAYERS = {
    "graphs.build": ("graphs", ("path", "cycle", "complete", "fan", "wheel", "join",
                                "disjoint_union", "cartesian_product")),
    "graphs.struct": ("graphs", ("delete_vertices", "induced_subgraph", "components",
                                 "is_isomorphic")),
    "operators.derive": ("operators", ("double_vertex", "k_token", "pair_graph")),
    "operators.index": ("operators", ("index_of", "indices_of", "token_label_of")),
    "mis.solve": ("mis", ("alpha",)),
    "mis.brute": ("mis", ("brute_force_alpha",)),
    "mis.check": ("mis", ("is_independent",)),
    "verify.row": ("verify", ("verify_one",)),
    "verify.render": ("verify", ("rows_to_csv", "rows_to_json", "rows_to_table")),
    "verify.suite": ("verify", ("run_property_suites",)),
}
# Every public function defined in these modules gets the module's span.
WHOLE_MODULES = {"formulas.eval": "formulas", "witnesses.build": "witnesses"}

PACKAGE = "tokengraphs"


class Tracer:
    """Collects spans in memory; ``instance`` tags every span opened."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.instance = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.instance, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter_ns()
        self._stack.pop()

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)


def self_times(spans: list[list]) -> dict[str, int]:
    """Total self time in ns per span name: each span's duration minus the
    durations of its direct children."""
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    totals: dict[str, int] = {}
    for s, child in zip(spans, covered):
        totals[s[NAME]] = totals.get(s[NAME], 0) + s[END] - s[START] - child
    return totals


def _under(spans: list[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass whose root span is
    ``bench.pass`` and whose wall time, measured outside the tracer, is
    ``wall_s``."""
    own = self_times(spans)
    ms = {name: ns / 1e6 for name, ns in own.items()}
    solves = [i for i, s in enumerate(spans) if s[NAME] == "mis.solve"]
    nodes = sum(spans[i][COUNTS]["nodes"] for i in solves)
    in_witness = [i for i in solves if _under(spans, i, "witnesses.build")]
    derived = [s[COUNTS] for s in spans if s[NAME] == "operators.derive"]
    out = {f"{layer}.ms": ms.get(layer, 0.0) for layer in (*LAYERS, *WHOLE_MODULES, "graphs.adjacency")}
    out.update({
        "graphs.struct.calls": sum(1 for s in spans if s[NAME] == "graphs.struct"),
        "operators.derive.vertices": sum(c["vertices"] for c in derived),
        "operators.derive.edges": sum(c["edges"] for c in derived),
        "mis.solves": len(solves),
        "mis.nodes": nodes,
        "mis.ms_per_node": ms.get("mis.solve", 0.0) / nodes if nodes else 0.0,
        "mis.root_closed": (sum(1 for i in solves if spans[i][COUNTS]["nodes"] == 1) / len(solves)
                            if solves else 0.0),
        "witnesses.solver_calls": len(in_witness),
        "witnesses.solver.ms": sum(spans[i][END] - spans[i][START] for i in in_witness) / 1e6,
        "bench.self.ms": ms.get("bench.pass", 0.0),
        "trace.accounted_frac": sum(own.values()) / 1e9 / wall_s,
    })
    return out


def write_spans(path, passes: list[list[list]]) -> None:
    """Write the spans of each traced pass as gzip'd tab-separated lines:
    pass, index, name, start_ns, end_ns, parent, instance, counts."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        out.write("pass\tindex\tname\tstart_ns\tend_ns\tparent\tinstance\tcounts\n")
        for number, spans in enumerate(passes):
            for index, s in enumerate(spans):
                counts = json.dumps(s[COUNTS], sort_keys=True) if s[COUNTS] else ""
                out.write(f"{number}\t{index}\t{s[NAME]}\t{s[START]}\t{s[END]}\t"
                          f"{s[PARENT]}\t{s[INSTANCE]}\t{counts}\n")


# ---------------------------------------------------------------------------
# instrumentation


def _wrap(fn, name: str, tracer: Tracer):
    solver = name in ("mis.solve", "mis.brute")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current() == name:
            return fn(*args, **kwargs)
        if solver:
            # Build the solver's bitmasks in their own span; the solver
            # would otherwise build them lazily inside its own.
            with tracer.span("graphs.adjacency"):
                args[0].adjacency_masks
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if name == "mis.solve":
            tracer.spans[index][COUNTS] = {"nodes": result.nodes}
        elif name == "operators.derive":
            tracer.spans[index][COUNTS] = {"vertices": result.graph.order,
                                           "edges": result.graph.size}
        return result

    return wrapper


def _targets() -> dict[int, tuple[object, str]]:
    """id(original function) -> (function, span name) for every measured
    public function."""
    found: dict[int, tuple[object, str]] = {}
    for name, (module, functions) in LAYERS.items():
        mod = sys.modules[f"{PACKAGE}.{module}"]
        for fn_name in functions:
            fn = getattr(mod, fn_name)
            found[id(fn)] = (fn, name)
    for name, module in WHOLE_MODULES.items():
        mod = sys.modules[f"{PACKAGE}.{module}"]
        for fn_name, fn in vars(mod).items():
            if (not fn_name.startswith("_") and callable(fn) and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == mod.__name__):
                found[id(fn)] = (fn, name)
    return found


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every reference the package holds to a measured function:
    module attributes (including names imported from sibling modules),
    values of module-level dicts, and function fields of dataclass values
    held in those dicts (the family registry). Undone on exit."""
    import_package()
    targets = _targets()
    wrappers = {key: _wrap(fn, name, tracer) for key, (fn, name) in targets.items()}
    undo: list = []

    def swap(value):
        return wrappers.get(id(value)) if callable(value) else None

    def patch_dataclass(table, key, value):
        changes = {}
        for f in dataclasses.fields(value):
            new = swap(getattr(value, f.name))
            if new is not None:
                changes[f.name] = new
        if changes:
            table[key] = dataclasses.replace(value, **changes)
            undo.append(lambda: table.__setitem__(key, value))

    modules = [m for n, m in list(sys.modules.items())
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    try:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = swap(value)
                if new is not None:
                    setattr(mod, attr, new)
                    undo.append(functools.partial(setattr, mod, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        new = swap(item)
                        if new is not None:
                            value[key] = new
                            undo.append(functools.partial(value.__setitem__, key, item))
                        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
                            patch_dataclass(value, key, item)
        yield
    finally:
        for step in reversed(undo):
            step()


def import_package() -> None:
    """Import every measured module so instrumentation can find it."""
    for module in {m for m, _ in LAYERS.values()} | set(WHOLE_MODULES.values()):
        importlib.import_module(f"{PACKAGE}.{module}")

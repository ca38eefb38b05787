"""The four benchmark workloads: input generation from a seed, one pass
over the inputs through the package's public API, and the checks on
every answer.

Instances are the unit of latency and of failure counting: a sweep row
(``paper_sweep``, ``pair_scale``), one exact solve (``token_search``) or
one property suite (``property_suites``).
"""

from __future__ import annotations

import functools
import random
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

from tokengraphs import graphs, mis, operators, verify


class Outcome(NamedTuple):
    ok: bool
    label: str
    detail: str = ""


class Probe:
    """Records the (start, end) of each instance of a run. With a tracer,
    tags the instance's spans with its index; with a speed log, lets it
    calibrate between instances."""

    def __init__(self, tracer=None, speed=None) -> None:
        self.tracer = tracer
        self.speed = speed
        self.intervals: list[tuple[float, float]] = []

    @contextmanager
    def instance(self):
        if self.tracer is not None:
            self.tracer.instance = len(self.intervals)
        start = perf_counter()
        try:
            yield
        finally:
            self.intervals.append((start, perf_counter()))
            if self.speed is not None:
                self.speed.maybe_calibrate()


def _error(label: str, exc: Exception) -> Outcome:
    return Outcome(False, label, "".join(traceback.format_exception_only(exc)).strip())


# ---------------------------------------------------------------------------
# closed forms of the paper, kept here so rows are checked without trusting
# the package's own formula table


def reference_alpha(family: str, m: int) -> int:
    k = m // 2
    pair_cycle = k * (k + 1) + (m % 2) * ((k + 1) // 2)
    return {
        "dv_path": m * m // 4,
        "dv_cycle": m * k // 2,
        "dv_fan": 1 if m == 1 else m * m // 4,
        "dv_wheel": 2 if m == 3 else m * k // 2,
        "pair_path": (m + 1) ** 2 // 4,
        "pair_fan": (m + 1) ** 2 // 4 + 1,
        "pair_cycle": pair_cycle,
        "pair_wheel": pair_cycle + 1,
    }[family]


def reference_order(family: str, m: int) -> int:
    n = m + 1 if family.endswith(("fan", "wheel")) else m
    return n * (n - 1) // 2 if family.startswith("dv_") else n * (n + 1) // 2


def check_row(row, family: str, m: int) -> Outcome:
    label = f"{family}({m})"
    want = reference_alpha(family, m)
    problems = []
    if (row.family, row.m) != (family, m):
        problems.append(f"row is for {row.family}({row.m})")
    if row.status != verify.STATUS_OK:
        problems.append(f"status {row.status}")
    if row.vertices != reference_order(family, m):
        problems.append(f"vertices {row.vertices} != {reference_order(family, m)}")
    for column in ("formula", "alpha"):
        if getattr(row, column) != want:
            problems.append(f"{column} {getattr(row, column)} != {want}")
    if row.witness is not None and row.witness != want:
        problems.append(f"witness {row.witness} != {want}")
    return Outcome(not problems, label, "; ".join(problems))


def _verify_rows(pairs, probe: Probe) -> tuple[list, list[Outcome]]:
    rows, outcomes = [], []
    for family, m in pairs:
        try:
            with probe.instance():
                row = verify.verify_one(verify.FAMILIES[family], m)
        except Exception as exc:  # a crashing row is a failed instance
            outcomes.append(_error(f"{family}({m})", exc))
            continue
        rows.append(row)
        outcomes.append(check_row(row, family, m))
    return rows, outcomes


# ---------------------------------------------------------------------------
# paper_sweep: `tokengraphs verify --families all --m 3..24 --format csv`

PAPER_FAMILIES = ("dv_cycle", "dv_fan", "dv_path", "dv_wheel",
                  "pair_cycle", "pair_fan", "pair_path", "pair_wheel")
PAPER_M = range(3, 25)
CSV_HEADER = "family,operator,m,vertices,formula,alpha,witness,status,ms"


def sweep_inputs(seed: int) -> list[tuple[str, int]]:
    pairs = [(family, m) for family in PAPER_FAMILIES for m in PAPER_M]
    random.Random(seed).shuffle(pairs)
    return pairs


def check_csv(text: str, rows) -> Outcome:
    lines = text.splitlines()
    expected = [CSV_HEADER] + [
        f"{r.family},{r.operator},{r.m},{reference_order(r.family, r.m)},"
        f"{reference_alpha(r.family, r.m)},{reference_alpha(r.family, r.m)},"
        f"{'' if r.witness is None else reference_alpha(r.family, r.m)},ok,0"
        for r in rows
    ]
    bad = [i for i, (got, want) in enumerate(zip(lines, expected)) if got != want]
    if len(lines) != len(expected) or bad:
        where = f"line {bad[0] + 1}" if bad else f"{len(lines)} lines, want {len(expected)}"
        return Outcome(False, "csv", f"csv differs at {where}")
    return Outcome(True, "csv")


def sweep_pass(pairs, probe: Probe) -> list[Outcome]:
    rows, outcomes = _verify_rows(pairs, probe)
    rows.sort(key=lambda r: (r.family, r.operator, r.m))
    try:
        text = verify.rows_to_csv(rows)
    except Exception as exc:
        return outcomes + [_error("csv", exc)]
    return outcomes + [check_csv(text, rows)]


# ---------------------------------------------------------------------------
# pair_scale: large derived graphs closed at the solver's root

SCALE_INSTANCES = (("pair_cycle", 40), ("pair_cycle", 60), ("pair_cycle", 80),
                   ("dv_path", 40), ("pair_wheel", 40))


def scale_inputs(seed: int) -> list[tuple[str, int]]:
    pairs = list(SCALE_INSTANCES)
    random.Random(seed).shuffle(pairs)
    return pairs


def scale_pass(pairs, probe: Probe) -> list[Outcome]:
    return _verify_rows(pairs, probe)[1]


# ---------------------------------------------------------------------------
# token_search: branching-bound exact solves on k-token graphs of cycles


@dataclass(frozen=True)
class TokenInstance:
    label: str
    graph: graphs.Graph
    alpha: int  # reference alpha, fixed when the benchmark was defined


def relabel(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    perm = list(g.vertices)
    rng.shuffle(perm)
    return graphs.Graph(g.order, frozenset((perm[u - 1], perm[v - 1]) for u, v in g.edges))


# Unequal counts keep the median solve inside the F3(C9) copies rather than
# on the boundary between the two groups.
RELABELED_C9 = 16
RELABELED_2C7 = 8


def token_inputs(seed: int) -> list[TokenInstance]:
    """Three instances in the operator's own labels, plus randomly
    relabeled copies of two smaller ones so that no result hangs on one
    labeling's tie-breaks. Graphs are built and their bitmasks cached here,
    outside the timed passes."""
    rng = random.Random(seed)
    c9_3 = operators.k_token(graphs.cycle(9), 3).graph
    c7_3 = operators.k_token(graphs.cycle(7), 3).graph
    instances = [
        TokenInstance("F3(C11)", operators.k_token(graphs.cycle(11), 3).graph, 75),
        TokenInstance("F4(C9)", operators.k_token(graphs.cycle(9), 4).graph, 56),
        TokenInstance("2F3(C9)", graphs.disjoint_union(c9_3, c9_3), 76),
    ]
    instances += [TokenInstance(f"F3(C9)~{i}", relabel(c9_3, rng), 38)
                  for i in range(RELABELED_C9)]
    two_c7 = graphs.disjoint_union(c7_3, c7_3)
    instances += [TokenInstance(f"2F3(C7)~{i}", relabel(two_c7, rng), 30)
                  for i in range(RELABELED_2C7)]
    rng.shuffle(instances)
    for inst in instances:
        inst.graph.adjacency_masks
    return instances


def check_solve(inst: TokenInstance, result) -> Outcome:
    members = set(result.witness.members)
    problems = []
    if result.alpha != inst.alpha:
        problems.append(f"alpha {result.alpha} != {inst.alpha}")
    if len(members) != inst.alpha:
        problems.append(f"witness size {len(members)} != {inst.alpha}")
    if not mis.is_independent(inst.graph, members) or any(
            u in members and v in members for u, v in inst.graph.edges):
        problems.append("witness is not independent")
    return Outcome(not problems, inst.label, "; ".join(problems))


def token_pass(instances, probe: Probe) -> list[Outcome]:
    outcomes = []
    for inst in instances:
        try:
            with probe.instance():
                result = mis.alpha(inst.graph)
        except Exception as exc:
            outcomes.append(_error(inst.label, exc))
            continue
        outcomes.append(check_solve(inst, result))
    return outcomes


# ---------------------------------------------------------------------------
# property_suites: thousands of structural calls on tiny graphs

SUITE_SIZES = (5, 6, 7, 8)
SUITE_TRIALS = 40
SUITE_PREFIX = "_suite_"


def suites_inputs(seed: int) -> int:
    return seed


def suites_pass(seed: int, probe: Probe) -> list[Outcome]:
    """One ``run_property_suites`` call; each suite it runs is an instance,
    timed by wrapping the suite functions for the length of the call."""
    names = sorted(n for n in vars(verify) if n.startswith(SUITE_PREFIX))
    originals = {n: getattr(verify, n) for n in names}

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with probe.instance():
                return fn(*args, **kwargs)
        return wrapper

    for n, fn in originals.items():
        setattr(verify, n, timed(fn))
    try:
        results = verify.run_property_suites(seed, sizes=SUITE_SIZES, trials=SUITE_TRIALS)
    except Exception as exc:
        return [_error(n, exc) for n in names]
    finally:
        for n, fn in originals.items():
            setattr(verify, n, fn)
    if len(results) != len(names):
        return [Outcome(False, "suites", f"{len(results)} suites returned, {len(names)} timed")]
    return [Outcome(s.ok and s.cases > 0, s.name, "; ".join(s.failures[:3])) for s in results]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[int], object]
    run_pass: Callable[[object, Probe], list[Outcome]]
    # Passes always run, even past --seconds, so that the tail percentile
    # (fixed from this count) has at least ten samples beyond it.
    min_passes: int


WORKLOADS = {w.name: w for w in (
    Workload("paper_sweep", sweep_inputs, sweep_pass, 6),
    Workload("pair_scale", scale_inputs, scale_pass, 20),
    Workload("token_search", token_inputs, token_pass, 8),
    Workload("property_suites", suites_inputs, suites_pass, 12),
)}

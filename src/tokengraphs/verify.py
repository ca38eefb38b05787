"""Verification sweeps and randomized property suites.

A sweep, for each selected family and parameter, certifies the
explicit witness of its family's construction (``certify``, the step the
``witness`` subcommand shares: run the construction, build the derived
graph, rank and check the pairs), evaluates the closed form, runs the
exact solver seeded with that witness, and emits one
``VerificationRow`` whose ``ms`` covers all of it. ``certify`` owns the
row's one independence check: it hands the witness to the solver with
the mask that check built, and the solver trusts it unread. A witness arrives as
plain ``(a, b)`` int tuples and ``operators.indices_of`` ranks them into
vertex indices by arithmetic, so a row builds no ``labels`` tuple.
Canonical CSV and JSON reports are byte-identical across runs for a
given configuration: the elapsed-milliseconds column is zeroed there
(wall-clock times are not reproducible) and is only shown in the
human-readable table.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

from . import formulas, witnesses
from .graphs import (
    Graph,
    cartesian_product,
    components,
    cycle,
    delete_vertices,
    disjoint_union,
    fan,
    induced_subgraph,
    path,
    wheel,
)
from .mis import SolveAborted, _checked, alpha, brute_force_alpha, is_independent
from .operators import DerivedGraph, double_vertex, indices_of, k_token, pair_graph

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"
STATUS_ABORTED = "aborted"

EXIT_OK = 0
EXIT_MISMATCH = 1  # a mismatch row or a failed check
EXIT_ABORTED = 2  # a solve ran out of budget

METHODS = ("auto", "brute", "bnb")  # auto and bnb name the same solver


@dataclass(frozen=True)
class VerificationRow:
    family: str
    operator: str
    m: int
    vertices: int
    formula: int
    alpha: int | None
    witness: int | None
    status: str
    ms: float


CSV_COLUMNS = tuple(f.name for f in fields(VerificationRow))


OPERATORS: dict[str, Callable[[Graph], DerivedGraph]] = {"dv": double_vertex, "pair": pair_graph}


@dataclass(frozen=True)
class FamilySpec:
    """One closed form under test: the operator's key in ``OPERATORS``,
    the base graph builder, the formula, and the explicit witness
    construction, which lists its tokens {a, b} as ``(a, b)`` pairs. A
    construction covers its formula's whole domain, so every row that is
    not aborted reports a witness. The family's name (``dv_path``, say)
    and its deriving function are read off ``op`` and ``base``.

    ``min_m`` is the smallest m the sweep runs, and it is not the
    smallest m the formula accepts: the formula may accept an m whose
    graph cannot be built. For ``pair_path`` they are 2 and 1, because
    ``pair_graph`` needs base order >= 2. Keep the two apart.
    """

    op: str  # a key of OPERATORS
    base: Callable[[int], Graph]
    formula: Callable[[int], int]
    witness_pairs: Callable[[int], tuple]
    min_m: int
    default_range: tuple[int, int]

    @property
    def name(self) -> str:
        return f"{self.op}_{self.base.__name__}"

    @property
    def derive(self) -> Callable[[Graph], DerivedGraph]:
        return OPERATORS[self.op]


FAMILIES: dict[str, FamilySpec] = {
    fam.name: fam
    for fam in (
        FamilySpec("dv", path, formulas.dv_path, witnesses.dv_path_witness_pairs, 2, (2, 12)),
        FamilySpec("dv", cycle, formulas.dv_cycle, witnesses.dv_cycle_witness_pairs, 3, (3, 12)),
        FamilySpec("dv", fan, formulas.dv_fan, witnesses.dv_fan_witness_pairs, 1, (2, 12)),
        FamilySpec("dv", wheel, formulas.dv_wheel, witnesses.dv_wheel_witness_pairs, 3, (3, 12)),
        FamilySpec("pair", path, formulas.pair_path, witnesses.pair_path_witness_pairs, 2, (3, 10)),
        FamilySpec("pair", cycle, formulas.pair_cycle, witnesses.pair_cycle_witness_pairs, 3, (3, 12)),
        FamilySpec("pair", fan, formulas.pair_fan, witnesses.pair_fan_witness_pairs, 1, (3, 10)),
        FamilySpec("pair", wheel, formulas.pair_wheel, witnesses.pair_wheel_witness_pairs, 3, (3, 10)),
    )
}


@dataclass(frozen=True)
class RunConfig:
    families: tuple[str, ...]
    m_range: tuple[int, int] | None  # None: per-family default ranges
    method: str = "auto"  # one of METHODS
    budget_ms: float | None = None

    def __post_init__(self) -> None:
        unknown = dict.fromkeys(f for f in self.families if f not in FAMILIES)
        if unknown:
            raise ValueError(f"unknown families: {', '.join(unknown)}")
        repeated = sorted({f for f in self.families if self.families.count(f) > 1})
        if repeated:
            raise ValueError(f"duplicate families: {', '.join(repeated)}")
        if not self.families:
            raise ValueError("no families selected")
        if self.m_range is not None:
            lo, hi = self.m_range
            if lo > hi:
                raise ValueError(f"empty m range '{lo}..{hi}'")
            least = min(FAMILIES[f].min_m for f in self.families)
            if hi < least:
                raise ValueError(f"m range '{lo}..{hi}' is below every selected "
                                 f"family's smallest m ({least})")
        if self.budget_ms is not None and not self.budget_ms > 0:  # NaN included
            raise ValueError("budget must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")


def solve_exact(g: Graph, method: str = "auto", budget_ms: float | None = None,
                incumbent: Iterable[int] | None = None):
    """Solve with the brute-force oracle under ``method="brute"``, else
    with the branch and bound (``"auto"`` and ``"bnb"`` alike, at every
    order). ``budget_ms`` bounds the branch and bound and ``incumbent``
    seeds it (see ``alpha``); the oracle ignores both, so it stays
    unseeded."""
    if method == "brute":
        return brute_force_alpha(g)
    return alpha(g, budget_ms=budget_ms, incumbent=incumbent)


def certify(fam: FamilySpec, m: int):
    """Build the family's witness at m and check it in the derived graph:
    ``(derived, pairs, members, seed)``, with ``members`` the vertex
    indices of the ``(a, b)`` pairs and ``seed`` None when two of them are
    adjacent. The construction runs first, so an m below its domain is
    rejected in the construction's words.

    This is the one independence check of a witness. An independent
    witness comes back as ``seed``, the members with their bitmask, which
    ``alpha`` takes as its incumbent and trusts without a second read."""
    pairs = fam.witness_pairs(m)
    derived = fam.derive(fam.base(m))
    members = indices_of(derived, pairs)
    return derived, pairs, members, _checked(derived.graph, members)


def verify_one(fam: FamilySpec, m: int, method: str = "auto",
               budget_ms: float | None = None) -> VerificationRow:
    """Certify, evaluate and solve a single (family, m) pair; the row's
    ``ms`` covers all three, the build included.

    Only an independent witness seeds the solve as its incumbent, in the
    form ``certify`` checked it, so the solve neither reads nor checks it
    again. A dependent one reports witness -1 and the solve starts from
    the greedy incumbent. An aborted row reports neither alpha nor
    witness."""
    started = time.perf_counter()
    derived, _, members, seed = certify(fam, m)
    formula_value = fam.formula(m)
    # a dependent "witness" reports as a mismatch
    witness_size = -1 if seed is None else len(members)
    try:
        result = solve_exact(derived.graph, method=method, budget_ms=budget_ms, incumbent=seed)
        solver_value: int | None = result.alpha
        status = STATUS_OK
        if formula_value != result.alpha or witness_size != formula_value:
            status = STATUS_MISMATCH
    except SolveAborted:
        solver_value = witness_size = None
        status = STATUS_ABORTED
    ms = (time.perf_counter() - started) * 1000.0
    return VerificationRow(
        family=fam.name,
        operator=fam.derive.__name__,
        m=m,
        vertices=derived.graph.order,
        formula=formula_value,
        alpha=solver_value,
        witness=witness_size,
        status=status,
        ms=ms,
    )


def run_sweep(config: RunConfig) -> list[VerificationRow]:
    """All rows for the configuration, ordered by (family, m)."""
    rows: list[VerificationRow] = []
    for name in sorted(config.families):
        fam = FAMILIES[name]
        lo, hi = config.m_range if config.m_range is not None else fam.default_range
        lo = max(lo, fam.min_m)
        for m in range(lo, hi + 1):
            rows.append(verify_one(fam, m, method=config.method, budget_ms=config.budget_ms))
    return rows


def sweep_exit_code(rows: Sequence[VerificationRow]) -> int:
    if any(r.status == STATUS_MISMATCH for r in rows):
        return EXIT_MISMATCH
    if any(r.status == STATUS_ABORTED for r in rows):
        return EXIT_ABORTED
    return EXIT_OK


# ---------------------------------------------------------------------------
# report rendering


def _canonical_cell(value) -> str:
    return "" if value is None else str(value)


def _canonical_values(r: VerificationRow) -> tuple:
    """Report cells in ``CSV_COLUMNS`` order, ``ms`` zeroed for
    reproducible reports."""
    return tuple(0 if name == "ms" else getattr(r, name) for name in CSV_COLUMNS)


def rows_to_csv(rows: Sequence[VerificationRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(_canonical_cell, _canonical_values(r))) for r in rows)
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Sequence[VerificationRow]) -> str:
    payload = [dict(zip(CSV_COLUMNS, _canonical_values(r))) for r in rows]
    return json.dumps(payload, indent=2) + "\n"


def rows_to_table(rows: Sequence[VerificationRow]) -> str:
    header = f"{'family':<11} {'operator':<13} {'m':>3} {'vertices':>8} {'formula':>7} {'alpha':>5} {'witness':>7} {'status':<8} {'ms':>8}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.family:<11} {r.operator:<13} {r.m:>3} {r.vertices:>8} {r.formula:>7} "
            f"{_canonical_cell(r.alpha):>5} {_canonical_cell(r.witness):>7} {r.status:<8} {r.ms:>8.1f}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# randomized property suites


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def random_graph(rng: random.Random, n: int) -> Graph:
    """Erdos-Renyi style draw with a density sampled per graph."""
    p = rng.uniform(0.2, 0.8)
    edges = frozenset(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    )
    return Graph(n, edges)


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    while True:
        g = random_graph(rng, n)
        if len(components(g)) == 1:
            return g


def alpha_after_deleting_tokens(dg: DerivedGraph, pairs) -> int:
    """Exact alpha of the double vertex or pair graph with the tokens
    {a, b} of the given ``(a, b)`` pairs removed."""
    return alpha(dg.graph, avoid=indices_of(dg, pairs)).alpha


def _run_suite(name: str, cases: Iterable[tuple[str, bool]]) -> SuiteResult:
    """Run every ``(label, passed)`` case of one suite, counting them and
    keeping the labels of the cases that failed."""
    suite = SuiteResult(name, 0)
    for label, passed in cases:
        suite.cases += 1
        if not passed:
            suite.failures.append(label)
    return suite


def _suite_monotonicity(rng: random.Random, sizes: Sequence[int], trials: int) -> SuiteResult:
    def cases():
        for n in sizes:
            for _ in range(trials):
                g = random_graph(rng, n)
                keep = [v for v in g.vertices if rng.random() < 0.6] or [1]
                h, _ = induced_subgraph(g, keep)
                yield f"n={n} keep={keep}", alpha(h).alpha <= alpha(g).alpha
    return _run_suite("alpha_monotone_under_induced_subgraphs", cases())


def _suite_component_decomposition(rng: random.Random, trials: int) -> SuiteResult:
    pairs = [(path(3), path(4)), (path(3), cycle(4)), (cycle(3), cycle(4))]
    for _ in range(trials):
        # small connected parts keep the product component modest
        pairs.append((_random_connected_graph(rng, rng.randint(2, 5)),
                      _random_connected_graph(rng, rng.randint(2, 5))))
    return _run_suite("double_vertex_of_disjoint_union_decomposes", (
        (f"g1={g1!r} g2={g2!r}", check_component_decomposition(g1, g2)) for g1, g2 in pairs
    ))


def check_component_decomposition(g1: Graph, g2: Graph) -> bool:
    """True iff the components of F2(g1 + g2), in smallest-token order,
    equal F2(g1), g1 x g2 and F2(g2) as labelled graphs, as they do for
    connected g1 and g2 of order >= 2. F2 lists tokens lexicographically,
    and g2's vertex b is g1.order + b in g1 + g2, so the mixed token
    {a, g1.order + b} lands on (a-1)*g2.order + b, the label
    ``cartesian_product`` gives the product vertex (a, b)."""
    parts = [part for part, _ in components(double_vertex(disjoint_union(g1, g2)).graph)]
    return parts == [double_vertex(g1).graph, cartesian_product(g1, g2), double_vertex(g2).graph]


def check_token_deletion_commutes(g: Graph, victims: set[int], k: int) -> bool:
    """True iff F_k(g - victims) equals the subgraph of F_k(g) induced on
    the tokens that avoid the victims, as labelled graphs (it does when
    len(victims) <= g.order - k). Deletion keeps the surviving vertices in
    order, so both sides list the surviving tokens in the same order."""
    reduced, _ = delete_vertices(g, victims)
    dg = k_token(g, k)
    keep = [i for i, token in enumerate(dg.labels, start=1) if victims.isdisjoint(token)]
    induced, _ = induced_subgraph(dg.graph, keep)
    return k_token(reduced, k).graph == induced


def _suite_token_deletion(rng: random.Random, sizes: Sequence[int], trials: int) -> SuiteResult:
    def cases():
        for n in sizes:
            for _ in range(trials):
                g = random_graph(rng, n)
                for k in (2, 3):
                    if k > g.order:
                        continue
                    max_del = g.order - k
                    victims = set(rng.sample(range(1, g.order + 1), rng.randint(0, max_del)))
                    yield (f"n={n} k={k} victims={sorted(victims)}",
                           check_token_deletion_commutes(g, victims, k))
    return _run_suite("token_graph_deletion_commutes", cases())


def _suite_slice_dichotomy(m_range: Iterable[int]) -> SuiteResult:
    def cases():
        for m in m_range:
            dg = pair_graph(cycle(m))
            for q in range(1, m + 1):
                actual = is_independent(dg.graph, indices_of(dg, witnesses.l_set(m, q)))
                yield f"m={m} q={q}", actual == witnesses.l_is_independent_expected(m, q)
    return _run_suite("l_set_independence_dichotomy", cases())


def _suite_linking_profile(m_range: Iterable[int]) -> SuiteResult:
    return _run_suite("l_set_linking_profile_exact", (
        (f"m={m}", witnesses.linking_profile(m) == witnesses.predicted_linking_profile(m))
        for m in m_range
    ))


def _suite_corner_avoidance(n_values: Iterable[int]) -> SuiteResult:
    def cases():
        for n in n_values:
            dg = pair_graph(cycle(n))
            corner = ((1, n),)
            yield f"n={n}", alpha_after_deleting_tokens(dg, corner) == formulas.pair_cycle(n)
    return _run_suite("alpha_unchanged_avoiding_corner_token", cases())


def _suite_dv_slice_deletion(m_range: Iterable[int]) -> SuiteResult:
    def cases():
        for m in m_range:
            dg = double_vertex(path(m))
            expect = formulas.dv_path(m - 1)
            for i in range(1, m + 1):
                yield f"m={m} i={i}", alpha_after_deleting_tokens(dg, witnesses.r_set_dv(m, i)) == expect
    return _run_suite("dv_path_token_slice_deletion_alpha", cases())


def _suite_dv_double_deletion(m_range: Iterable[int]) -> SuiteResult:
    def cases():
        for m in m_range:
            dg = double_vertex(path(m))
            expect = formulas.dv_path(m - 1)
            for i in range(1, m + 1):
                for j in range(i + 2, m + 1):
                    pairs = witnesses.r_set_dv(m, i) + witnesses.r_set_dv(m, j)
                    yield f"m={m} S=({i},{j})", alpha_after_deleting_tokens(dg, set(pairs)) < expect
    return _run_suite("dv_path_nonconsecutive_double_deletion_strict", cases())


def _suite_pair_slice_deletion(m_range: Iterable[int]) -> SuiteResult:
    def cases():
        for m in m_range:
            dg = pair_graph(path(m))
            bound = formulas.dv_path(m) + 1
            for i in range(1, m + 1):
                yield f"m={m} i={i}", alpha_after_deleting_tokens(dg, witnesses.r_set_pair(m, i)) <= bound
    return _run_suite("pair_path_token_slice_deletion_bound", cases())


def run_property_suites(seed: int = 0, sizes: Sequence[int] = (5, 6, 7),
                        trials: int = 5) -> list[SuiteResult]:
    """Run every property suite with reproducible randomness."""
    sizes = tuple(sizes)
    if not sizes:
        raise ValueError("sizes must be non-empty")
    if any(n < 2 for n in sizes):
        raise ValueError("sizes must be >= 2 (token graphs need two base vertices)")
    if any(n > 16 for n in sizes):
        raise ValueError("sizes above 16 are not supported by the randomized suites")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    return [
        _suite_monotonicity(rng, sizes, trials),
        _suite_component_decomposition(rng, max(1, trials // 2)),
        _suite_token_deletion(rng, sizes, trials),
        _suite_slice_dichotomy(range(3, 13)),
        _suite_linking_profile(range(4, 13)),
        _suite_corner_avoidance((5, 7, 9, 11)),
        _suite_dv_slice_deletion(range(4, 9)),
        _suite_dv_double_deletion(range(4, 9)),
        _suite_pair_slice_deletion(range(4, 9)),
    ]


def suites_report(results: Sequence[SuiteResult]) -> str:
    lines = []
    for s in results:
        verdict = "ok" if s.ok else f"FAIL ({len(s.failures)} failures)"
        lines.append(f"suite {s.name}: {s.cases} cases, {verdict}")
        for failure in s.failures[:10]:
            lines.append(f"  failed: {failure}")
    total = sum(s.cases for s in results)
    bad = sum(len(s.failures) for s in results)
    lines.append(
        f"{len(results)} suites, {total} cases, "
        + ("all passed" if bad == 0 else f"{bad} FAILURES")
    )
    return "\n".join(lines) + "\n"

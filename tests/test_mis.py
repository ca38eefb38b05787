import random
import sys
import time
from types import SimpleNamespace

import pytest

from tokengraphs import mis
from tokengraphs.graphs import Graph, complete, cycle, disjoint_union, fan, induced_subgraph, path, wheel
from tokengraphs.mis import (
    SolveAborted,
    _cycle_cover_bound,
    _greedy_incumbent,
    alpha,
    brute_force_alpha,
    is_independent,
)
from tokengraphs.operators import double_vertex, index_of, indices_of, k_token, multiset_token, pair_graph
from tokengraphs.verify import FAMILIES, random_graph
from tokengraphs.witnesses import b_set_dv, dv_wheel_witness

from .oracles import exhaustive_alpha


def test_is_independent_basic():
    assert is_independent(path(4), {1, 3})
    assert not is_independent(cycle(4), {1, 2})
    assert is_independent(path(4), set())


def test_is_independent_range_check():
    for bad in (0, 5):
        with pytest.raises(ValueError, match="out of range 1..4"):
            is_independent(path(4), {1, bad})


def test_is_independent_on_pair_cycle_slice_union():
    from tokengraphs.operators import indices_of
    from tokengraphs.witnesses import l_set

    dg = pair_graph(cycle(4))
    members = indices_of(dg, l_set(4, 2) + l_set(4, 4))
    assert is_independent(dg.graph, members)
    neighbour = dg.graph.adjacency_masks[min(members) - 1].bit_length()
    assert not is_independent(dg.graph, members | {neighbour})


def test_brute_force_small_families():
    assert brute_force_alpha(path(5)).alpha == 3
    assert brute_force_alpha(cycle(7)).alpha == 3
    assert brute_force_alpha(complete(4)).alpha == 1


def test_brute_force_wheel3_double_vertex():
    assert brute_force_alpha(double_vertex(wheel(3)).graph).alpha == 2


def test_brute_force_pair_cycle3():
    assert brute_force_alpha(pair_graph(cycle(3)).graph).alpha == 3


def test_brute_force_cap():
    big = path(27)
    with pytest.raises(ValueError, match="alpha"):
        brute_force_alpha(big)
    assert brute_force_alpha(big, cap=27).alpha == 14


def test_brute_force_rejects_empty():
    with pytest.raises(ValueError):
        brute_force_alpha(Graph(0))


def test_brute_witness_is_valid():
    for g in (path(6), cycle(5), double_vertex(fan(4)).graph):
        result = brute_force_alpha(g)
        assert len(result.witness.members) == result.alpha
        assert is_independent(g, result.witness.members)


def test_alpha_small_families():
    assert alpha(cycle(7)).alpha == 3
    assert alpha(double_vertex(fan(4)).graph).alpha == 4
    assert alpha(pair_graph(cycle(4)).graph).alpha == 6


def test_alpha_rejects_empty():
    with pytest.raises(ValueError):
        alpha(Graph(0))


def test_alpha_witness_valid_and_deterministic():
    g = pair_graph(cycle(6)).graph
    first = alpha(g)
    second = alpha(g)
    assert first.alpha == second.alpha
    assert first.witness == second.witness
    assert is_independent(g, first.witness.members)
    assert len(first.witness.members) == first.alpha


def test_alpha_matches_brute_force_on_random_graphs():
    rng = random.Random(12)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 12))
        assert alpha(g).alpha == brute_force_alpha(g).alpha


def test_brute_force_matches_exhaustive_oracle():
    rng = random.Random(34)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 9))
        assert brute_force_alpha(g).alpha == exhaustive_alpha(g)


def test_alpha_additive_over_disjoint_union():
    rng = random.Random(56)
    for _ in range(15):
        g = random_graph(rng, rng.randint(2, 8))
        h = random_graph(rng, rng.randint(2, 8))
        assert alpha(disjoint_union(g, h)).alpha == alpha(g).alpha + alpha(h).alpha


def test_alpha_monotone_under_induced_subgraph():
    rng = random.Random(78)
    for _ in range(15):
        g = random_graph(rng, rng.randint(3, 10))
        keep = [v for v in g.vertices if rng.random() < 0.5] or [1]
        h, _ = induced_subgraph(g, keep)
        assert alpha(h).alpha <= alpha(g).alpha


def test_alpha_avoiding_middle_of_path():
    result = alpha(path(3), avoid=[2])
    assert result.alpha == 2
    assert result.witness.members == frozenset({1, 3})


def test_alpha_avoiding_on_complete_graph():
    assert alpha(complete(3), avoid=[1]).alpha == 1


def test_alpha_avoiding_out_of_range():
    with pytest.raises(ValueError, match="vertex 4 out of range 1..3"):
        alpha(path(3), avoid=[4])


def test_alpha_avoiding_corner_token_keeps_value():
    dg = pair_graph(cycle(5))
    corner = index_of(dg, multiset_token(1, 5))
    full = alpha(dg.graph).alpha
    avoiding = alpha(dg.graph, avoid=[corner])
    assert avoiding.alpha == full
    assert corner not in avoiding.witness.members
    assert is_independent(dg.graph, avoiding.witness.members)


@pytest.mark.parametrize("m", range(4, 10))
def test_alpha_avoiding_apex_tokens_is_the_dv_wheel_witness(m):
    dg = double_vertex(wheel(m))
    apex = indices_of(dg, b_set_dv(m))
    result = alpha(dg.graph, avoid=apex)
    witness = dv_wheel_witness(m)
    assert result.witness == witness
    assert result.alpha == len(witness)
    assert not set(apex) & result.witness.members


def test_alpha_avoiding_every_vertex():
    g = cycle(5)
    result = alpha(g, avoid=g.vertices)
    assert result.alpha == 0
    assert result.witness.order == 5
    assert result.witness.members == frozenset()
    assert result.nodes == 1  # the empty root is still a search node


def test_alpha_budget_aborts():
    g = double_vertex(wheel(10)).graph
    with pytest.raises(SolveAborted):
        alpha(g, budget_ms=1e-7)


def test_alpha_budget_bounds_the_greedy_incumbent():
    # 3240 vertices: the incumbent alone takes about 10 ms, so a 2 ms budget
    # can only be honoured by a deadline check inside the incumbent loop
    g = pair_graph(cycle(80)).graph
    g.adjacency_masks
    start = time.perf_counter()
    with pytest.raises(SolveAborted, match="greedy incumbent"):
        alpha(g, budget_ms=2)
    assert time.perf_counter() - start < 0.5


def test_alpha_budget_covers_the_adjacency_build(monkeypatch):
    # the clock starts before alpha reads the bitmasks, so a mask build that
    # outlasts the budget fails the first deadline check
    clock = [0.0]
    monkeypatch.setattr(mis, "time", SimpleNamespace(perf_counter=lambda: clock[0]))

    class SlowMasks(Graph):
        @property
        def adjacency_masks(self):
            clock[0] += 1.0
            return super().adjacency_masks

    with pytest.raises(SolveAborted, match="greedy incumbent"):
        alpha(SlowMasks(5, cycle(5).edges), budget_ms=50)


def test_alpha_closes_big_pair_cycle_at_the_root_within_budget():
    g = pair_graph(cycle(80)).graph
    result = alpha(g, budget_ms=1000)
    assert (g.order, result.alpha, result.nodes) == (3240, 1640, 1)


def test_alpha_budget_holds_inside_the_cycle_cover_matching():
    g = k_token(cycle(15), 3).graph
    start = time.perf_counter()
    with pytest.raises(SolveAborted):
        alpha(g, budget_ms=50)
    assert time.perf_counter() - start < 0.5
    # on a path of three the greedy start leaves vertex 3 free, so the
    # augmenting loop runs and sees the passed deadline
    no_arcs = [-1] * 3
    with pytest.raises(SolveAborted, match="cycle-cover"):
        _cycle_cover_bound(path(3).adjacency_masks, 0b111, (no_arcs, no_arcs, 0, 0),
                           time.perf_counter() - 1)


def test_cycle_cover_bound_on_a_big_graph_does_not_recurse():
    # 3240 vertices: a recursive augmenting search would hit the
    # interpreter's recursion limit on long alternating paths
    g = pair_graph(cycle(80)).graph
    no_arcs = [-1] * g.order
    bound, _ = _cycle_cover_bound(g.adjacency_masks, (1 << g.order) - 1,
                                  (no_arcs, no_arcs, 0, 0), None)
    assert bound == 1640


def test_alpha_counts_which_bound_closed_nodes():
    # triangle-free: the clique cover stalls at n/2, odd cycles close nodes
    result = alpha(k_token(cycle(11), 3).graph)
    assert result.cover_prunes > 0
    assert result.clique_prunes + result.cover_prunes < result.nodes
    big = alpha(pair_graph(cycle(80)).graph)
    assert (big.nodes, big.cover_prunes) == (1, 0)


@pytest.mark.slow
def test_alpha_solves_f3_c15():
    # the standing gate for the exact search: about 8 s on a 2-vCPU Xeon
    assert alpha(k_token(cycle(15), 3).graph, budget_ms=120_000).alpha == 213


@pytest.mark.parametrize("budget", [float("nan"), 0, -5.0])
def test_alpha_rejects_non_positive_budget(budget):
    # a NaN deadline never passes, so the solve would ignore its budget
    with pytest.raises(ValueError, match="budget"):
        alpha(path(3), budget_ms=budget)
    with pytest.raises(ValueError, match="budget"):
        alpha(path(3), budget_ms=budget, avoid=[2])


def _quadratic_greedy_incumbent(adj, mask):
    # reference: rescan every remaining vertex of the mask for the minimum
    # degree, lowest index on ties, then delete its closed neighbourhood
    chosen = 0
    rem = mask
    while rem:
        remaining = [v for v in range(len(adj)) if rem >> v & 1]
        v = min(remaining, key=lambda u: ((adj[u] & rem).bit_count(), u))
        chosen |= 1 << v
        rem &= ~(adj[v] | 1 << v)
    return chosen


def _incumbent_corpus():
    for fam in FAMILIES.values():
        for m in range(max(3, fam.min_m), 16):
            yield fam.derive(fam.base(m)).graph
    for m in range(5, 11):
        yield k_token(cycle(m), 3).graph
        yield k_token(cycle(m), 4).graph
    rng = random.Random(90)
    for n in range(1, 41):
        yield random_graph(rng, n)
        yield random_graph(rng, rng.randint(1, 40))
        yield Graph(n, frozenset())


def test_greedy_incumbent_matches_quadratic_reference():
    rng = random.Random(91)
    for g in _incumbent_corpus():
        adj = g.adjacency_masks
        for mask in ((1 << g.order) - 1, rng.getrandbits(g.order), 0):
            assert _greedy_incumbent(adj, mask, None) == _quadratic_greedy_incumbent(adj, mask)


def _bridged_f3_c7_pair():
    # two F3(C7) copies and a vertex u adjacent to 1 and 36 with a pendant w:
    # connected until the root reduction takes w and deletes u
    two = disjoint_union(*[k_token(cycle(7), 3).graph] * 2)
    u = two.order + 1
    return Graph(u + 1, two.edges | {(1, u), (36, u), (u, u + 1)})


@pytest.mark.parametrize("build, expected", [
    (lambda: k_token(cycle(9), 3).graph, (84, 38, 31)),
    (lambda: k_token(cycle(9), 4).graph, (126, 56, 129)),
    (lambda: disjoint_union(*[k_token(cycle(7), 3).graph] * 2), (70, 30, 15)),
    (lambda: disjoint_union(*[k_token(cycle(9), 3).graph] * 2), (168, 76, 63)),
    (_bridged_f3_c7_pair, (72, 31, 15)),
    (lambda: double_vertex(wheel(9)).graph, (45, 18, 17)),
    (lambda: pair_graph(cycle(11)).graph, (66, 33, 1)),
    (lambda: k_token(cycle(13), 3).graph, (286, 132, 1597)),
    (lambda: double_vertex(wheel(23)).graph, (276, 126, 47)),
    (lambda: pair_graph(wheel(23)).graph, (300, 139, 41)),
    (lambda: double_vertex(path(40)).graph, (780, 400, 1)),
], ids=["F3(C9)", "F4(C9)", "2xF3(C7)", "2xF3(C9)", "bridge", "F2(W9)",
        "C(C11)", "F3(C13)", "F2(W23)", "C(W23)", "F2(P40)"])
def test_alpha_search_is_pinned(build, expected):
    # order, alpha and node count of the branch and bound; a change to the
    # branching rule, the bounds (clique cover, cycle cover and the matching
    # it starts from), the reductions or the component split moves the
    # node count
    g = build()
    result = alpha(g)
    assert (g.order, result.alpha, result.nodes) == expected


@pytest.mark.parametrize("build, expected", [
    (lambda: k_token(cycle(11), 3).graph, (414, 15)),
    (lambda: double_vertex(wheel(23)).graph, (463, 23)),
    (lambda: double_vertex(path(40)).graph, (400, 0)),  # the pendant rule takes all
], ids=["F3(C11)", "F2(W23)", "F2(P40)"])
def test_alpha_counts_reductions_and_depth(build, expected):
    result = alpha(build())
    assert (result.reductions, result.max_depth) == expected


def test_alpha_reductions_keep_the_full_pass_order():
    # a vertex whose degree drops ahead of the reduction cursor is looked at
    # in the same pass, as a rescan of every vertex would; deferring it to
    # the next pass takes vertex 12 instead of 10 here
    g = Graph(12, frozenset({(1, 5), (1, 8), (1, 9), (1, 11), (1, 12), (2, 4), (2, 9), (3, 7),
                             (3, 8), (4, 11), (5, 6), (6, 8), (6, 10), (8, 11), (10, 12)}))
    assert sorted(alpha(g).witness.members) == [4, 5, 7, 8, 9, 10]


def _frame_depth() -> int:
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_alpha_search_depth_needs_no_interpreter_frames():
    # the search runs 23 branchings deep; with a frame per branching it
    # would overrun a recursion limit 15 frames above the caller
    g = double_vertex(wheel(23)).graph
    g.adjacency_masks
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 15)
    try:
        result = alpha(g)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.alpha, result.nodes) == (126, 47)
    assert result.max_depth > 15


def test_alpha_single_vertex():
    result = alpha(path(1))
    assert result.alpha == 1 and result.witness.members == frozenset({1})

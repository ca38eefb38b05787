import math
import random
import sys
import time
from dataclasses import replace
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace

import pytest

from tokengraphs import mis
from tokengraphs.graphs import (
    Graph, complete, cycle, delete_vertices, disjoint_union, fan, induced_subgraph, join, path,
    wheel,
)
from tokengraphs.mis import (
    SolveAborted,
    _branch_vertex,
    _clique_cover_bound,
    _cycle_cover_bound,
    _greedy_incumbent,
    _triangle_cover_bound,
    alpha,
    brute_force_alpha,
    is_independent,
)
from tokengraphs.operators import double_vertex, index_of, indices_of, k_token, pair_graph
from tokengraphs.verify import FAMILIES, certify, random_graph
from tokengraphs.witnesses import dv_cycle_witness_pairs, pair_cycle_witness_pairs, r_set_dv

from .oracles import double_cover_matching_size, exhaustive_alpha, greedy_clique_cover_size


def test_is_independent_basic():
    assert is_independent(path(4), {1, 3})
    assert not is_independent(cycle(4), {1, 2})
    assert is_independent(path(4), set())


def test_is_independent_range_check():
    for bad in (0, 5):
        with pytest.raises(ValueError, match="out of range 1..4"):
            is_independent(path(4), {1, bad})


def test_is_independent_reads_a_one_shot_iterator_with_duplicates():
    assert is_independent(path(4), iter([1, 3, 1, 3]))
    assert not is_independent(path(4), iter([2, 1, 2]))


def test_is_independent_on_pair_cycle_slice_union():
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


def test_branch_vertex_prefers_top_degree_neighbours():
    # a star centred at 1 and a K4 on 5..8: every centre and K4 vertex has
    # degree 3, but only the K4's see top-degree neighbours, so the lowest
    # of them (vertex 5, index 4) wins over the lower-labelled centre
    g = Graph(8, frozenset({(1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (5, 8), (6, 7), (6, 8),
                            (7, 8)}))
    adj = g.adjacency_masks
    assert _branch_vertex(adj, [3, 1, 1, 1, 3, 3, 3, 3]) == 4
    # with vertex 5 gone the K4 is a triangle of degree 2 and the centre is
    # the one top-degree vertex
    assert _branch_vertex(adj, [3, 1, 1, 1, -1, 2, 2, 2]) == 0
    # with the leaves gone the top degree is 2 and the triangle's vertices
    # tie on their two top-degree neighbours: the lowest index wins
    assert _branch_vertex(adj, [0, -1, -1, -1, -1, 2, 2, 2]) == 5


@pytest.mark.parametrize("build", [
    lambda: k_token(cycle(6), 2).graph,
    lambda: k_token(cycle(7), 2).graph,
    lambda: k_token(wheel(5), 2).graph,
    lambda: k_token(cycle(6), 3).graph,
    lambda: pair_graph(cycle(5)).graph,
], ids=["F2(C6)", "F2(C7)", "F2(W5)", "F3(C6)", "C(C5)"])
def test_alpha_matches_brute_force_on_relabelled_token_graphs(build):
    # nearly regular graphs, so most branchings pick among tied top-degree
    # vertices, and the relabellings move which one the rule takes; the
    # empty incumbent makes the search branch more before it closes
    g = build()
    rng = random.Random(g.order)
    for _ in range(10):
        p = rng.sample(g.vertices, g.order)
        h = Graph(g.order, frozenset((p[u - 1], p[v - 1]) for u, v in g.edges))
        want = brute_force_alpha(h).alpha
        for result in (alpha(h), alpha(h, incumbent=())):
            assert result.alpha == want == len(result.witness)
            assert is_independent(h, result.witness.members)


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
    corner = index_of(dg, (1, 5))
    full = alpha(dg.graph).alpha
    avoiding = alpha(dg.graph, avoid=[corner])
    assert avoiding.alpha == full
    assert corner not in avoiding.witness.members
    assert is_independent(dg.graph, avoiding.witness.members)


@pytest.mark.parametrize("m", range(4, 10))
def test_alpha_avoiding_apex_tokens_finds_the_dv_cycle_witness(m):
    dg = double_vertex(wheel(m))
    apex = indices_of(dg, r_set_dv(m + 1, m + 1))
    result = alpha(dg.graph, avoid=apex)
    construction = indices_of(dg, dv_cycle_witness_pairs(m))
    assert result.witness.members == construction
    assert result.alpha == len(construction)
    assert not set(apex) & result.witness.members


def test_alpha_avoiding_reads_a_generator_once():
    # the hub outranks every vertex of F3(C9) in degree; a second pass over
    # a spent generator would leave it in the degree table, and the search
    # (which branches here) would pick it first
    g = join(k_token(cycle(9), 3).graph, complete(1))
    hub = g.order
    from_tuple = alpha(g, avoid=(hub,))
    from_generator = alpha(g, avoid=(v for v in (hub,)))
    assert from_tuple.nodes > 1 and hub not in from_tuple.witness.members
    assert replace(from_generator, elapsed=0) == replace(from_tuple, elapsed=0)


def test_alpha_avoiding_every_vertex():
    g = cycle(5)
    result = alpha(g, avoid=g.vertices)
    assert result.alpha == 0
    assert result.witness.order == 5
    assert result.witness.members == frozenset()
    assert result.nodes == 1  # the empty root is still a search node


def _avoid_corpus():
    """(graph, avoid) pairs: 400 random graphs of order 2..16 and 25 draws
    each on F3(C9), F2(W9) and P(C11), every avoid set leaving a vertex."""
    rng = random.Random(41)
    graphs = [random_graph(rng, rng.randint(2, 16)) for _ in range(400)]
    for g in (k_token(cycle(9), 3).graph, double_vertex(wheel(9)).graph,
              pair_graph(cycle(11)).graph):
        graphs += [g] * 25
    for g in graphs:
        p = rng.uniform(0, 0.5)
        yield g, [v for v in g.vertices if rng.random() < p][:g.order - 1]


def _counters(result):
    return (result.alpha, result.nodes, result.clique_prunes, result.cover_prunes,
            result.triangle_prunes, result.reductions, result.max_depth)


def test_alpha_avoiding_searches_like_the_deleted_graph():
    # the degree table counts each vertex's neighbours outside the avoided
    # vertices, so the search is the one the deleted graph gets. (The
    # triangle guards read g, so deleting every triangle could move a prune
    # between the clique and the cycle cover; no case here does.)
    for g, avoid in _avoid_corpus():
        result = alpha(g, avoid=avoid)
        h, relabel = delete_vertices(g, avoid)
        expected = alpha(h)
        assert _counters(result) == _counters(expected), (g, avoid)
        assert {relabel[v] for v in result.witness.members} == expected.witness.members


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


def test_alpha_budget_bounds_the_solver_set_up():
    # 20100 vertices: the degree table and the incumbent's bucket fill take
    # tens of ms between them, so a 1 ms budget can only be honoured by
    # deadline checks inside those set-up loops
    g = pair_graph(cycle(200)).graph
    start = time.perf_counter()
    with pytest.raises(SolveAborted, match="^budget exceeded while (building the degree table"
                                           "|filling the greedy incumbent's buckets)$"):
        alpha(g, budget_ms=1)
    assert time.perf_counter() - start < 0.015


def test_alpha_budget_covers_the_avoid_read(monkeypatch):
    # the clock reads 0.0 at the start and 1.0 ever after, so the first
    # deadline check must come before any avoided vertex is read
    clock = chain([0.0], repeat(1.0))
    monkeypatch.setattr(mis, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    with pytest.raises(SolveAborted, match="^budget exceeded while reading the avoided vertices$"):
        alpha(path(3), budget_ms=1, avoid=[2])


def test_alpha_budget_bounds_the_avoid_read():
    # 20100 vertices: reading all of them into a mask takes about 10 ms,
    # so a 1 ms budget can only be honoured by checks inside that read
    g = pair_graph(cycle(200)).graph
    start = time.perf_counter()
    with pytest.raises(SolveAborted, match="reading the avoided vertices"):
        alpha(g, budget_ms=1, avoid=g.vertices)
    assert time.perf_counter() - start < 0.015


@pytest.mark.parametrize("avoid, seed, message", [
    ((), [4, 1, 2], "^incumbent vertex 1 has a neighbour in the incumbent$"),
    ((), [1, 6], "^vertex 6 out of range 1..5$"),
    ((), [0], "^vertex 0 out of range 1..5$"),
    ([3], [1, 3], "^incumbent vertex 3 is avoided$"),
])
def test_alpha_rejects_a_bad_incumbent(avoid, seed, message):
    with pytest.raises(ValueError, match=message):
        alpha(path(5), avoid=avoid, incumbent=seed)


def test_alpha_from_an_empty_or_small_incumbent_is_exact():
    rng = random.Random(90)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 14))
        want = brute_force_alpha(g)
        # one vertex short of a maximum set, so the search must improve on it
        short = sorted(want.witness.members)[1:]
        for seed in ((), short):
            result = alpha(g, incumbent=seed)
            assert result.alpha == want.alpha
            assert is_independent(g, result.witness.members)


def test_both_incumbent_forms_search_alike():
    # a plain incumbent is read and checked, a _CheckedSet is trusted as it
    # stands; past that the two must run the same search
    def pairs():
        for fam in FAMILIES.values():
            for m in range(max(3, fam.min_m), 25):
                derived, _, members, _ = certify(fam, m)
                yield derived.graph, (), members
        rng = random.Random(36)
        for i in range(100):
            g = random_graph(rng, rng.randint(2, 14))
            avoid = [v for v in g.vertices if rng.random() < 0.2][:g.order - 1] if i % 2 else []
            best = sorted(alpha(g, avoid=avoid).witness.members)
            # all of a maximum set, or some of it, so some searches improve on it
            yield g, avoid, [v for v in best if rng.random() < 0.7] if i % 3 else best

    for g, avoid, seed in pairs():
        plain = alpha(g, avoid=avoid, incumbent=seed)
        checked = alpha(g, avoid=avoid, incumbent=mis._checked(g, frozenset(seed)))
        assert replace(plain, elapsed=0) == replace(checked, elapsed=0), (g, avoid, seed)


def test_alpha_budget_covers_the_incumbent_read(monkeypatch):
    # as for the avoid read; vertex 9 is out of range, so reading it before
    # the first deadline check would raise ValueError instead
    clock = chain([0.0], repeat(1.0))
    monkeypatch.setattr(mis, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    with pytest.raises(SolveAborted, match="^budget exceeded while reading the incumbent$"):
        alpha(path(3), budget_ms=1, incumbent=[9])


def test_alpha_budget_bounds_the_incumbent_read():
    # 20100 vertices and a 10100-member seed: reading and checking it takes
    # milliseconds, so a 1 ms budget can only be honoured by checks inside
    dg = pair_graph(cycle(200))
    seed = indices_of(dg, pair_cycle_witness_pairs(200))
    assert len(seed) == 10100
    start = time.perf_counter()
    with pytest.raises(SolveAborted, match="^budget exceeded while reading the incumbent$"):
        alpha(dg.graph, budget_ms=1, incumbent=seed)
    assert time.perf_counter() - start < 0.015


def test_graph_from_edges_arrives_with_its_masks():
    # the constructor fills the bitmasks alpha reads, so no mask build
    # can fall inside a solve's clock; the edge view waits for output
    g = Graph(5, cycle(5).edges)
    assert "adjacency_masks" in vars(g)
    assert "edges" not in vars(g)


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


def test_alpha_budget_holds_inside_the_early_clique_cover(monkeypatch):
    # 20100 vertices and a checked 10100-member seed: the whole-graph clique
    # cover runs before any other set-up and alone takes tens of ms, so a
    # 1 ms budget holds only through the cover's own deadline checks
    dg = pair_graph(cycle(200))
    seed = mis._checked(dg.graph, indices_of(dg, pair_cycle_witness_pairs(200)))
    start = time.perf_counter()
    with pytest.raises(SolveAborted, match="^budget exceeded while building the clique cover$"):
        alpha(dg.graph, budget_ms=1, incumbent=seed)
    assert time.perf_counter() - start < 0.015
    # with a deadline already past, the check before the first clique fires
    with pytest.raises(SolveAborted, match="clique cover"):
        _clique_cover_bound(path(3).adjacency_masks, 0b111, time.perf_counter() - 1)
    # the next check comes after _BLOCK cliques: the clock below reads 0.0
    # once and 1.0 once, so a third read would raise StopIteration
    g = pair_graph(cycle(80)).graph  # 1640 cliques
    clock = iter([0.0, 1.0])
    monkeypatch.setattr(mis, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
    with pytest.raises(SolveAborted, match="clique cover"):
        _clique_cover_bound(g.adjacency_masks, (1 << g.order) - 1, 0.5)


def test_independent_set_range_checks_all_but_the_solvers_own_sets(monkeypatch):
    with pytest.raises(ValueError, match="^member 4 out of range 1..3$"):
        mis.IndependentSet(3, frozenset({1, 4}))
    with pytest.raises(ValueError, match="^member 0 out of range 1..3$"):
        mis.IndependentSet(3, frozenset({0}))

    def refuse(self):
        raise AssertionError("a solver range-checked a set it built")

    # the solvers build their witnesses in range, so they skip the check
    monkeypatch.setattr(mis.IndependentSet, "__post_init__", refuse)
    dg, small = pair_graph(cycle(7)), path(6)
    g, seed = dg.graph, indices_of(dg, pair_cycle_witness_pairs(7))
    for h, result in ((g, alpha(g)), (g, alpha(g, incumbent=seed)), (g, alpha(g, avoid=[1])),
                      (g, alpha(g, incumbent=mis._checked(g, seed))),
                      (small, brute_force_alpha(small))):
        assert is_independent(h, result.witness.members)
    with pytest.raises(AssertionError, match="range-checked"):
        mis.IndependentSet(3, frozenset({1}))


def test_cycle_cover_bound_on_a_big_graph_does_not_recurse():
    # 3240 vertices: a recursive augmenting search would hit the
    # interpreter's recursion limit on long alternating paths
    g = pair_graph(cycle(80)).graph
    no_arcs = [-1] * g.order
    bound, _ = _cycle_cover_bound(g.adjacency_masks, (1 << g.order) - 1,
                                  (no_arcs, no_arcs, 0, 0), math.inf)
    assert bound == 1640


def test_alpha_counts_which_bound_closed_nodes():
    # triangle-free: the clique cover stalls at n/2, odd cycles close nodes
    result = alpha(k_token(cycle(11), 3).graph)
    assert result.cover_prunes > 0
    assert result.clique_prunes + result.cover_prunes < result.nodes
    assert result.triangle_prunes == 0  # F3(C11) has no triangle
    big = alpha(pair_graph(cycle(80)).graph)
    assert (big.nodes, big.cover_prunes) == (1, 0)
    # the apex triangles of an odd wheel's double vertex graph close its root
    wheel_result = alpha(double_vertex(wheel(23)).graph)
    assert (wheel_result.nodes, wheel_result.triangle_prunes) == (1, 1)


def test_alpha_skips_the_triangle_cover_on_triangle_free_graphs(monkeypatch):
    def refuse(*args):
        raise AssertionError("the triangle cover ran on a triangle-free graph")

    monkeypatch.setattr(mis, "_triangle_cover_bound", refuse)
    g = k_token(cycle(11), 3).graph
    assert alpha(g).alpha == 75
    assert alpha(g, avoid=range(1, 40)).alpha == 62  # the guard holds for subsets


def test_triangle_cover_bound_is_an_upper_bound():
    # cold and warm matchings on random graphs and vertex subsets
    rng = random.Random(17)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 14))
        adj = g.adjacency_masks
        keep = [v for v in g.vertices if rng.random() < 0.8] or [1]
        mask = sum(1 << (v - 1) for v in keep)
        deg = [(nb & mask).bit_count() if mask >> v & 1 else -1 for v, nb in enumerate(adj)]
        expected = brute_force_alpha(induced_subgraph(g, keep)[0]).alpha
        no_arcs = [-1] * g.order
        cold = (no_arcs, no_arcs, 0, 0)
        _, warm = _cycle_cover_bound(adj, mask, cold, math.inf)
        for start in (cold, warm):
            assert _triangle_cover_bound(adj, mask, deg, start, math.inf) >= expected


def _random_bipartite(rng, n):
    left = {v for v in range(1, n + 1) if rng.random() < 0.5}
    p = rng.uniform(0.2, 0.8)
    return Graph(n, frozenset(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
        if (u in left) != (v in left) and rng.random() < p
    ))


def _subset_and_starts(rng, g):
    """A random vertex subset of g, its mask, and two matchings to start the
    cycle cover from: none, and the whole graph's, as a search node starts
    from its parent's."""
    keep = [v for v in g.vertices if rng.random() < 0.8] or [1]
    no_arcs = [-1] * g.order
    cold = (no_arcs, no_arcs, 0, 0)
    _, warm = _cycle_cover_bound(g.adjacency_masks, (1 << g.order) - 1, cold, math.inf)
    return keep, sum(1 << (v - 1) for v in keep), (cold, warm)


def test_cycle_cover_matching_is_maximum():
    # the bound, and the clique cover's skip below the root, need a maximum
    # matching of the double cover, and every arc must be an edge inside mask
    rng = random.Random(23)
    for i in range(300):
        n = rng.randint(1, 14)
        g = _random_bipartite(rng, n) if i % 2 else random_graph(rng, n)
        adj = g.adjacency_masks
        keep, mask, starts = _subset_and_starts(rng, g)
        expected = double_cover_matching_size(g, keep)
        for start in starts:
            _, (out, inn, tails, heads) = _cycle_cover_bound(adj, mask, start, math.inf)
            assert heads.bit_count() == tails.bit_count() == expected
            assert not (tails | heads) & ~mask
            for u in range(g.order):
                if tails >> u & 1:
                    v = out[u]
                    assert heads >> v & 1 and adj[u] >> v & 1 and inn[v] == u


def test_cycle_cover_bound_is_at_most_the_clique_cover_on_triangle_free_graphs():
    # why alpha runs the clique cover only at the root of a triangle-free g:
    # its cliques are edges and vertices, a matching that the double cover's
    # maximum matching at least doubles, so the cycle cover is never looser
    rng = random.Random(29)
    tried = 0
    while tried < 300:
        g = (_random_bipartite(rng, rng.randint(1, 24)) if tried % 2
             else random_graph(rng, rng.randint(1, 12)))
        if g.has_triangle:
            continue
        tried += 1
        adj = g.adjacency_masks
        _, mask, starts = _subset_and_starts(rng, g)
        for start in starts:
            bound, _ = _cycle_cover_bound(adj, mask, start, math.inf)
            assert bound <= _clique_cover_bound(adj, mask)


def test_clique_cover_bound_matches_greedy_reference():
    # the count is the greedy cover's, whatever the bitmask bookkeeping
    rng = random.Random(31)
    corpus = [random_graph(rng, rng.randint(1, 14)) for _ in range(300)]
    corpus.append(pair_graph(cycle(40)).graph)
    for g in corpus:
        keep = [v for v in g.vertices if rng.random() < 0.8] or [1]
        for part in (keep, g.vertices):
            expected = greedy_clique_cover_size(g, part)
            assert _clique_cover_bound(g.adjacency_masks, g._vertex_mask(part)) == expected


@pytest.mark.parametrize("build, calls", [
    (lambda: k_token(cycle(11), 3).graph, 1),  # triangle-free: the root only
    (lambda: disjoint_union(*[k_token(cycle(9), 3).graph] * 2), 3),  # and each component's
    (lambda: k_token(wheel(9), 3).graph, 6670),  # every node the reductions leave non-empty
], ids=["F3(C11)", "2xF3(C9)", "F3(W9)"])
def test_alpha_runs_the_clique_cover_below_the_root_only_with_triangles(monkeypatch, build,
                                                                         calls):
    counted = []
    clique_cover = mis._clique_cover_bound

    def counting(*args):
        counted.append(args)
        return clique_cover(*args)

    monkeypatch.setattr(mis, "_clique_cover_bound", counting)
    alpha(build())
    assert len(counted) == calls


@pytest.mark.parametrize("build, nodes, closing, stopped", [
    (lambda: k_token(cycle(11), 3).graph, 127, 63, 48),
    (lambda: k_token(cycle(9), 4).graph, 67, 31, 23),
    (lambda: disjoint_union(*[k_token(cycle(9), 3).graph] * 2), 59, 24, 22),
    (lambda: k_token(wheel(9), 3).graph, 6679, 2114, 1831),  # the triangle cover's calls too
], ids=["F3(C11)", "F4(C9)", "2xF3(C9)", "F3(W9)"])
def test_cycle_cover_early_stop_changes_no_prune(monkeypatch, build, nodes, closing, stopped):
    # every call of the search is run twice, with and without its target:
    # both fall on the same side of the target, a call that does not stop
    # is the full call, and one that stops returns the half-integral bound
    # of the matching it has, no lower than the full call's
    cycle_cover = mis._cycle_cover_bound
    calls = []

    def both_ways(adj, mask, matching, deadline, target=-1):
        full = cycle_cover(adj, mask, matching, deadline)
        early = cycle_cover(adj, mask, matching, deadline, target)
        size, arcs = mask.bit_count(), early[1][2].bit_count()
        stops = (2 * size - arcs) // 2 <= target
        if stops:
            assert early[0] == (2 * size - arcs) // 2 >= full[0]
        else:
            assert early == full
        assert (early[0] <= target) == (full[0] <= target)
        calls.append((full[0] <= target, stops))
        return early

    monkeypatch.setattr(mis, "_cycle_cover_bound", both_ways)
    assert alpha(build()).nodes == nodes
    assert [sum(column) for column in zip(*calls)] == [closing, stopped]


def test_alpha_budget_holds_inside_the_triangle_cover():
    # about 1.5 s unbudgeted, with the triangle cover at most open nodes
    g = k_token(wheel(9), 3).graph
    start = time.perf_counter()
    with pytest.raises(SolveAborted):
        alpha(g, budget_ms=50)
    assert time.perf_counter() - start < 0.5


@pytest.mark.slow
def test_alpha_solves_f3_c15():
    # the standing gate for the exact search: about 1.5 s on a 2-vCPU Xeon
    result = alpha(k_token(cycle(15), 3).graph, budget_ms=120_000)
    assert (result.alpha, result.nodes) == (213, 5731)


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
            deg = [(nb & mask).bit_count() if mask >> v & 1 else -1 for v, nb in enumerate(adj)]
            greedy = _greedy_incumbent(adj, mask, deg, math.inf)
            assert greedy == _quadratic_greedy_incumbent(adj, mask)


def _bridged_f3_c7_pair():
    # two F3(C7) copies and a vertex u adjacent to 1 and 36 with a pendant w:
    # connected until the root reduction takes w and deletes u
    two = disjoint_union(*[k_token(cycle(7), 3).graph] * 2)
    u = two.order + 1
    return Graph(u + 1, two.edges | {(1, u), (36, u), (u, u + 1)})


@pytest.mark.parametrize("build, expected", [
    (lambda: k_token(cycle(9), 3).graph, (84, 38, 29)),
    (lambda: k_token(cycle(9), 4).graph, (126, 56, 67)),
    (lambda: disjoint_union(*[k_token(cycle(7), 3).graph] * 2), (70, 30, 15)),
    (lambda: disjoint_union(*[k_token(cycle(9), 3).graph] * 2), (168, 76, 59)),
    (_bridged_f3_c7_pair, (72, 31, 15)),
    (lambda: double_vertex(wheel(9)).graph, (45, 18, 1)),
    (lambda: pair_graph(cycle(11)).graph, (66, 33, 1)),
    (lambda: k_token(cycle(13), 3).graph, (286, 132, 781)),
    (lambda: double_vertex(wheel(23)).graph, (276, 126, 1)),
    (lambda: pair_graph(wheel(23)).graph, (300, 139, 1)),
    (lambda: double_vertex(path(40)).graph, (780, 400, 1)),
    (lambda: k_token(wheel(9), 3).graph, (120, 38, 6679)),
], ids=["F3(C9)", "F4(C9)", "2xF3(C7)", "2xF3(C9)", "bridge", "F2(W9)",
        "C(C11)", "F3(C13)", "F2(W23)", "C(W23)", "F2(P40)", "F3(W9)"])
def test_alpha_search_is_pinned(build, expected):
    # order, alpha and node count of the branch and bound; a change to the
    # branching rule, the bounds (clique cover, cycle cover and the matching
    # it starts from, triangle cover), the reductions or the component split
    # moves the node count. F3(W9) has triangles and still branches, so it
    # pins what the triangle cover does inside the search.
    g = build()
    result = alpha(g)
    assert (g.order, result.alpha, result.nodes) == expected


@pytest.mark.parametrize("build, counters, witness", [
    (lambda: k_token(cycle(13), 3).graph, (781, 0, 389, 0, 328, 19),
     0x252b552a55ab4492a4ca56d4914aaa9292ab5556ab612aa5554aaaa515aab5556a8a954a),
    (lambda: k_token(wheel(9), 3).graph, (6679, 1217, 520, 1594, 4955, 39),
     0x1089508924a08a084aa95209452a29),
], ids=["F3(C13)", "F3(W9)"])
def test_alpha_result_is_pinned(build, counters, witness):
    # the whole MisResult of two searches that branch, one through the
    # cycle cover alone and one through all three bounds: every counter
    # and the witness, as a mask with bit v - 1 for vertex v. The
    # cycle-cover matching's early stop may change none of them.
    r = alpha(build())
    assert (r.nodes, r.clique_prunes, r.cover_prunes, r.triangle_prunes, r.reductions,
            r.max_depth) == counters
    assert sum(1 << (v - 1) for v in r.witness.members) == witness


SOLVER_COUNTS = Path(__file__).parent / "golden" / "solver_counts.txt"


def _solver_corpus():
    """(label, graph) pairs: every family row at m = 3..24 (from its min_m
    if larger), token graphs of odd cycles that branch, two F3(C9) copies,
    and 100 random graphs of order 1..30 drawn from ``random.Random(0)``."""
    for fam in FAMILIES.values():
        for m in range(max(3, fam.min_m), 25):
            yield f"{fam.name}({m})", fam.derive(fam.base(m)).graph
    for k, m in ((3, 7), (3, 9), (3, 11), (4, 9)):
        yield f"F{k}(C{m})", k_token(cycle(m), k).graph
    yield "2F3(C9)", disjoint_union(*[k_token(cycle(9), 3).graph] * 2)
    rng = random.Random(0)
    for i in range(100):
        g = random_graph(rng, rng.randint(1, 30))
        yield f"random{i}(n={g.order})", g


def _solver_count_lines():
    """One line per corpus graph: its label, alpha and the solver's
    counters. ``PYTHONPATH=src python -m tests.test_mis`` prints them all,
    to regenerate the golden when a change moves the search tree."""
    for label, g in _solver_corpus():
        r = alpha(g)
        yield (f"{label} {r.alpha} {r.nodes} {r.reductions} {r.max_depth} "
               f"{r.clique_prunes} {r.cover_prunes} {r.triangle_prunes}\n")


def test_solver_counts_match_golden():
    # the search tree on 281 graphs: a change to the branching rule, the
    # bounds, the reductions or their order moves some count here; the
    # witness sets are left out, since no canonical output prints them
    expected = SOLVER_COUNTS.read_text().splitlines(keepends=True)
    assert list(_solver_count_lines()) == expected


@pytest.mark.parametrize("build, expected", [
    (lambda: k_token(cycle(11), 3).graph, (126, 13)),
    (lambda: double_vertex(wheel(23)).graph, (0, 0)),  # the triangle cover closes the root
    (lambda: double_vertex(path(40)).graph, (400, 0)),  # the pendant rule takes all
], ids=["F3(C11)", "F2(W23)", "F2(P40)"])
def test_alpha_counts_reductions_and_depth(build, expected):
    result = alpha(build())
    assert (result.reductions, result.max_depth) == expected


def test_alpha_reductions_take_the_lowest_dirty_vertex():
    # the reductions' worklist always looks at its lowest vertex, so one
    # whose degree drops above the vertex just taken comes before the dirty
    # vertices above it; looking at it only after them takes vertex 12
    # instead of 10 here
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
    # the search runs 16 branchings deep; with a frame per branching it
    # would overrun a recursion limit 15 frames above the caller
    g = k_token(wheel(7), 3).graph
    g.adjacency_masks
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 15)
    try:
        result = alpha(g)
    finally:
        sys.setrecursionlimit(limit)
    assert (result.alpha, result.nodes) == (17, 141)
    assert result.max_depth > 15


def test_alpha_single_vertex():
    result = alpha(path(1))
    assert result.alpha == 1 and result.witness.members == frozenset({1})


if __name__ == "__main__":
    sys.stdout.writelines(_solver_count_lines())

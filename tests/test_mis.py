import random
import time

import pytest

from tokengraphs.graphs import Graph, complete, cycle, disjoint_union, fan, induced_subgraph, path, wheel
from tokengraphs.mis import (
    SolveAborted,
    alpha,
    alpha_avoiding,
    brute_force_alpha,
    is_independent,
)
from tokengraphs.operators import double_vertex, index_of, k_token, multiset_token, pair_graph
from tokengraphs.verify import random_graph

from .oracles import exhaustive_alpha


def test_is_independent_basic():
    assert is_independent(path(4), {1, 3})
    assert not is_independent(cycle(4), {1, 2})
    assert is_independent(path(4), set())


def test_is_independent_range_check():
    with pytest.raises(ValueError):
        is_independent(path(4), {5})


def test_is_independent_on_pair_cycle_slice_union():
    from tokengraphs.operators import indices_of
    from tokengraphs.witnesses import l_set

    dg = pair_graph(cycle(4))
    members = indices_of(dg, l_set(4, 2) + l_set(4, 4))
    assert is_independent(dg.graph, members)


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
    result = alpha_avoiding(path(3), 2)
    assert result.alpha == 2
    assert result.witness.members == frozenset({1, 3})


def test_alpha_avoiding_on_complete_graph():
    assert alpha_avoiding(complete(3), 1).alpha == 1


def test_alpha_avoiding_out_of_range():
    with pytest.raises(ValueError):
        alpha_avoiding(path(3), 4)


def test_alpha_avoiding_corner_token_keeps_value():
    dg = pair_graph(cycle(5))
    corner = index_of(dg, multiset_token(1, 5))
    full = alpha(dg.graph).alpha
    avoiding = alpha_avoiding(dg.graph, corner)
    assert avoiding.alpha == full
    assert corner not in avoiding.witness.members
    assert is_independent(dg.graph, avoiding.witness.members)


def test_alpha_budget_aborts():
    g = double_vertex(wheel(10)).graph
    with pytest.raises(SolveAborted):
        alpha(g, budget_ms=1e-7)


def test_alpha_budget_bounds_the_greedy_incumbent():
    # 3240 vertices: the O(n^2) incumbent alone takes seconds, so the
    # deadline has to be checked inside it, not only per search node
    g = pair_graph(cycle(80)).graph
    g.adjacency_masks
    start = time.perf_counter()
    with pytest.raises(SolveAborted):
        alpha(g, budget_ms=50)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("build, expected", [
    (lambda: k_token(cycle(9), 3).graph, (84, 38, 113)),
    (lambda: k_token(cycle(9), 4).graph, (126, 56, 1103)),
    (lambda: disjoint_union(*[k_token(cycle(7), 3).graph] * 2), (70, 30, 269)),
    (lambda: double_vertex(wheel(9)).graph, (45, 18, 23)),
    (lambda: pair_graph(cycle(11)).graph, (66, 33, 9)),
], ids=["F3(C9)", "F4(C9)", "2xF3(C7)", "F2(W9)", "C(C11)"])
def test_alpha_search_is_pinned(build, expected):
    # order, alpha and node count of the branch and bound; a change to the
    # branching rule, the bound or the reductions moves the node count
    g = build()
    result = alpha(g)
    assert (g.order, result.alpha, result.nodes) == expected


def test_alpha_single_vertex():
    result = alpha(path(1))
    assert result.alpha == 1 and result.witness.members == frozenset({1})

import random
import re
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from tokengraphs import operators
from tokengraphs.formulas import pair_cycle
from tokengraphs.graphs import (
    Graph, complete, cycle, delete_vertices, disjoint_union, fan, induced_subgraph, is_isomorphic,
    path, wheel,
)
from tokengraphs.operators import (
    MULTISET,
    SUBSET,
    DerivedGraph,
    double_vertex,
    index_of,
    indices_of,
    k_token,
    pair_graph,
    token_label_of,
)
from tokengraphs.verify import random_graph
from tokengraphs.witnesses import pair_cycle_witness_pairs

from .oracles import naive_double_vertex_edges, naive_pair_graph_edges


def test_double_vertex_of_p3_is_p3():
    dg = double_vertex(path(3))
    assert dg.labels == ((1, 2), (1, 3), (2, 3))
    # {1,2}-{1,3} via edge {2,3}; {1,3}-{2,3} via edge {1,2}
    assert dg.graph.edges == frozenset({(1, 2), (2, 3)})


def test_double_vertex_of_k2_is_single_vertex():
    dg = double_vertex(complete(2))
    assert dg.graph.order == 1 and dg.graph.size == 0


def test_double_vertex_rejects_tiny_base():
    with pytest.raises(ValueError, match="double vertex graph needs base order >= 2, got 1"):
        double_vertex(path(1))


def test_double_vertex_fan4_has_apex_tokens():
    dg = double_vertex(fan(4))
    assert dg.graph.order == 10
    apex_tokens = [(a, 5) for a in (1, 2, 3, 4)]
    indices = indices_of(dg, apex_tokens)
    assert len(indices) == 4
    assert index_of(dg, (2, 5)) in indices


def _labelled_edges(dg):
    return {
        frozenset((dg.labels[u - 1], dg.labels[v - 1]))
        for u, v in dg.graph.edges
    }


@pytest.mark.parametrize("base", [path(4), cycle(5), fan(3), complete(4)])
def test_double_vertex_matches_share_one_element_formulation(base):
    dg = double_vertex(base)
    assert _labelled_edges(dg) == naive_double_vertex_edges(base)


@pytest.mark.parametrize("n", range(2, 8))
def test_vertex_counts(n):
    g = complete(n)
    assert double_vertex(g).graph.order == n * (n - 1) // 2
    assert pair_graph(g).graph.order == n * (n - 1) // 2 + n
    if n >= 3:
        assert k_token(g, 3).graph.order == n * (n - 1) * (n - 2) // 6


def _rank_table_bases():
    """Every family base at m <= 24 with at least two vertices, K_2, an
    edgeless graph and 40 seeded random graphs of order 2..12."""
    for build, least in ((path, 2), (cycle, 3), (fan, 1), (wheel, 3)):
        for m in range(least, 25):
            yield pytest.param(build(m), id=f"{build.__name__}{m}")
    yield pytest.param(complete(2), id="K2")
    yield pytest.param(Graph(5, frozenset()), id="edgeless5")
    rng = random.Random(24)
    for draw in range(40):
        yield pytest.param(random_graph(rng, rng.randint(2, 12)), id=f"random{draw}")


@pytest.mark.parametrize("base", _rank_table_bases())
def test_rank_table_builds_agree_with_k_token_and_oracle(base):
    dv = double_vertex(base)
    assert dv == k_token(base, 2)
    assert _labelled_edges(dv) == naive_double_vertex_edges(base)
    dg = pair_graph(base)
    assert _labelled_edges(dg) == naive_pair_graph_edges(base)


def test_k_token_1_is_base_graph():
    for g in (path(5), cycle(6), fan(4)):
        dg = k_token(g, 1)
        assert is_isomorphic(dg.graph, g)
        # labels are the singletons in order, so the match is exact
        assert dg.graph.edges == g.edges


def test_k_token_complement_identity():
    # k-token and (n-k)-token graphs of the same base are isomorphic
    assert is_isomorphic(k_token(path(5), 3).graph, double_vertex(path(5)).graph)
    assert is_isomorphic(k_token(path(4), 3).graph, path(4))
    assert is_isomorphic(k_token(cycle(5), 3).graph, double_vertex(cycle(5)).graph)


def test_derived_graph_repr_is_the_dataclass_repr():
    assert repr(k_token(cycle(7), 3)) == (
        "DerivedGraph(graph=Graph(order=35, size=70), kind='subset', k=3, base_order=7)")


def test_k_token_domain():
    with pytest.raises(ValueError):
        k_token(path(3), 0)
    with pytest.raises(ValueError):
        k_token(path(3), 4)


def test_pair_graph_of_p2_is_p3():
    dg = pair_graph(path(2))
    assert dg.labels == ((1, 1), (1, 2), (2, 2))
    assert dg.graph.edges == frozenset({(1, 2), (2, 3)})


def test_pair_graph_rejects_tiny_base():
    with pytest.raises(ValueError):
        pair_graph(path(1))


@pytest.mark.parametrize("n", range(2, 13))
def test_pair_graph_of_path_is_double_vertex_of_longer_path(n):
    assert pair_graph(path(n)).graph == double_vertex(path(n + 1)).graph


def test_pair_graph_cycle4_diagonals_nonadjacent():
    dg = pair_graph(cycle(4))
    assert dg.graph.order == 10
    diagonals = [index_of(dg, (i, i)) for i in range(1, 5)]
    for i, u in enumerate(diagonals):
        for v in diagonals[i + 1:]:
            assert not dg.graph.has_edge(u, v)


@pytest.mark.parametrize("base", [path(4), cycle(5), complete(4), fan(3)])
def test_pair_graph_matches_shared_element_formulation(base):
    dg = pair_graph(base)
    assert _labelled_edges(dg) == naive_pair_graph_edges(base)


@pytest.mark.parametrize("base", [path(4), cycle(5), complete(4)])
def test_pair_graph_contains_double_vertex_as_subset_restriction(base):
    dg = pair_graph(base)
    # the 2-subsets {a, b}, a < b, are the labels off the diagonal
    off_diagonal = [i for i, tok in enumerate(dg.labels, start=1) if tok[0] < tok[1]]
    restricted, _ = induced_subgraph(dg.graph, off_diagonal)
    assert restricted == double_vertex(base).graph


def test_label_round_trip():
    dg = double_vertex(path(4))
    for i in range(1, dg.graph.order + 1):
        assert index_of(dg, token_label_of(dg, i)) == i


@pytest.mark.parametrize("derive, bad", [
    (double_vertex, (0, 2)),  # below range
    (double_vertex, (2, 6)),  # above range
    (double_vertex, (3, 2)),  # a > b
    (double_vertex, (2, 2)),  # a == b, not a 2-subset
    (double_vertex, (1, 2, 3)),  # wrong k
    (double_vertex, ()),
    (pair_graph, (0, 0)),
    (pair_graph, (1, 6)),
    (pair_graph, (4, 3)),
    (pair_graph, (1,)),
    (lambda g: k_token(g, 3), (1, 2)),
    (lambda g: k_token(g, 3), (1, 3, 3)),
    (lambda g: k_token(g, 3), (2, 4, 6)),
])
def test_indices_of_rejects_a_later_token_by_name(derive, bad):
    dg = derive(path(5))
    good = [(1, 2), (3, 4), (1, 5)] if dg.k == 2 else [(1, 2, 3), (3, 4, 5), (1, 2, 5)]
    message = "^" + re.escape(f"token {bad} is not a vertex label of this {dg.kind} graph "
                              f"(k = {dg.k}, base order 5)") + "$"
    with pytest.raises(ValueError, match=message):
        indices_of(dg, good + [bad])
    with pytest.raises(ValueError, match=message):
        indices_of(dg, iter(good[:1] + [bad] + good[1:]))
    with pytest.raises(ValueError, match=message):
        index_of(dg, bad)
    assert "labels" not in vars(dg)


@pytest.mark.parametrize("derive", [double_vertex, pair_graph])
def test_indices_of_names_a_rejected_pair_where_the_rank_table_finds_it(monkeypatch, derive):
    # a k = 2 batch stops at its first bad token and names it there, with
    # no combinatorial ranking of the batch from the start
    dg = derive(path(5))

    def refuse(*args):
        raise AssertionError("a k = 2 batch was ranked by binomials")

    monkeypatch.setattr(operators, "comb", refuse)
    bads = [(2, 6), (3, 2) if dg.kind == SUBSET else (4, 3), (1, 2, 3)]
    for first, *rest in permutations(bads):
        message = "^" + re.escape(f"token {first} is not a vertex label of this {dg.kind} graph "
                                  f"(k = 2, base order 5)") + "$"
        with pytest.raises(ValueError, match=message):
            indices_of(dg, [(1, 2), (2, 5), first, *rest, (3, 4)])


# every double vertex and pair graph of a path, cycle, fan or wheel base of order <= 12
PAIR_GRAPHS = [pytest.param(derive(base(m)), id=f"{derive.__name__}({base.__name__}({m}))")
               for derive in (double_vertex, pair_graph)
               for base, first in ((path, 2), (cycle, 3), (fan, 1), (wheel, 3))
               for m in range(first, 13) if base(m).order <= 12]


@pytest.mark.parametrize("dg", PAIR_GRAPHS)
def test_indices_of_ranks_every_pair_from_the_table(dg):
    # k = 2 ranks come from the rank table that fills the k = 2 move tables, with no label built
    choose = combinations if dg.kind == SUBSET else combinations_with_replacement
    pairs = list(choose(range(1, dg.base_order + 1), 2))
    assert [index_of(dg, p) for p in pairs] == list(range(1, dg.graph.order + 1))
    assert indices_of(dg, pairs) == frozenset(range(1, dg.graph.order + 1))
    assert "labels" not in vars(dg)


def test_unknown_label_rejected():
    dg = double_vertex(path(4))
    with pytest.raises(ValueError):
        index_of(dg, (1, 1))  # a multiset token on a subset-kind graph
    with pytest.raises(ValueError):
        index_of(dg, (1, 9))
    with pytest.raises(ValueError):
        token_label_of(dg, 0)
    with pytest.raises(ValueError):
        token_label_of(dg, 7)


def test_component_decomposition_of_disjoint_union():
    from tokengraphs.graphs import cartesian_product, components

    g1, g2 = path(3), path(4)
    derived = double_vertex(disjoint_union(g1, g2))
    parts = [c for c, _ in components(derived.graph)]
    assert len(parts) == 3
    targets = [double_vertex(g1).graph, double_vertex(g2).graph, cartesian_product(g1, g2)]
    for target in targets:
        assert any(is_isomorphic(part, target) for part in parts)


def test_token_deletion_commutes_with_construction():
    g = fan(4)
    victims = {2}
    reduced, _ = delete_vertices(g, victims)
    direct = double_vertex(reduced).graph
    dg = double_vertex(g)
    keep = [i for i, tok in enumerate(dg.labels, start=1) if 2 not in tok]
    from tokengraphs.graphs import induced_subgraph

    inside, _ = induced_subgraph(dg.graph, keep)
    assert is_isomorphic(direct, inside)


def test_derived_graph_validation():
    with pytest.raises(ValueError):
        DerivedGraph(path(4), SUBSET, 2, 3)  # graph order 4, but 3 two-subsets of 1..3
    with pytest.raises(ValueError):
        DerivedGraph(path(3), "bag", 2, 3)  # unknown kind
    with pytest.raises(ValueError):
        DerivedGraph(path(1), SUBSET, 0, 3)  # k = 0
    assert DerivedGraph(path(6), MULTISET, 2, 3).kind == MULTISET


def test_witness_lookup_leaves_labels_unbuilt():
    dg = pair_graph(cycle(40))
    assert len(indices_of(dg, pair_cycle_witness_pairs(40))) == pair_cycle(40)
    assert "labels" not in vars(dg)

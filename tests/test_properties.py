"""Invariant checks on randomized inputs."""

import random

from hypothesis import given, settings, strategies as st

from tokengraphs.graphs import (
    Graph,
    cartesian_product,
    components,
    delete_vertices,
    disjoint_union,
    induced_subgraph,
    is_isomorphic,
    join,
)
from tokengraphs.mis import alpha, brute_force_alpha, is_independent
from tokengraphs.operators import double_vertex, pair_graph, subset_restriction
from tokengraphs.verify import check_token_deletion_commutes

from .oracles import exhaustive_alpha, naive_double_vertex_edges, naive_pair_graph_edges


@st.composite
def graphs(draw, min_order=1, max_order=8):
    n = draw(st.integers(min_value=min_order, max_value=max_order))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picked = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, frozenset(picked))


@st.composite
def permuted_copies(draw, min_order=1, max_order=8):
    g = draw(graphs(min_order=min_order, max_order=max_order))
    perm = draw(st.permutations(list(g.vertices)))
    mapping = {v: perm[v - 1] for v in g.vertices}
    h = Graph(g.order, frozenset((mapping[u], mapping[v]) for u, v in g.edges))
    return g, h


@given(graphs(), graphs())
def test_join_edge_count(g, h):
    assert join(g, h).size == g.size + h.size + g.order * h.order


@given(graphs(), graphs())
def test_cartesian_product_edge_count(g, h):
    assert cartesian_product(g, h).size == g.order * h.size + h.order * g.size


@given(graphs(min_order=2), st.data())
def test_delete_then_components_counts_are_consistent(g, data):
    victims = data.draw(st.sets(st.integers(min_value=1, max_value=g.order), max_size=g.order - 1))
    reduced, relabel = delete_vertices(g, victims)
    assert reduced.order == g.order - len(victims)
    assert sorted(relabel.values()) == list(range(1, reduced.order + 1))
    if reduced.order:
        assert sum(c.order for c, _ in components(reduced)) == reduced.order


@given(graphs())
def test_isomorphism_is_reflexive(g):
    assert is_isomorphic(g, g)


@given(permuted_copies())
def test_isomorphism_finds_relabelings_and_is_symmetric(pair):
    g, h = pair
    assert is_isomorphic(g, h)
    assert is_isomorphic(h, g)


@given(graphs(min_order=2, max_order=8))
def test_double_vertex_matches_naive_formulation(g):
    dg = double_vertex(g)
    got = {
        frozenset((dg.labels[u - 1].elements, dg.labels[v - 1].elements))
        for u, v in dg.graph.edges
    }
    assert got == naive_double_vertex_edges(g)


@given(graphs(min_order=2, max_order=6))
def test_pair_graph_matches_naive_formulation(g):
    dg = pair_graph(g)
    got = {
        frozenset((dg.labels[u - 1].elements, dg.labels[v - 1].elements))
        for u, v in dg.graph.edges
    }
    assert got == naive_pair_graph_edges(g)


@given(graphs(min_order=2, max_order=8))
def test_pair_graph_restricts_to_double_vertex(g):
    restricted, _ = subset_restriction(pair_graph(g))
    assert restricted == double_vertex(g).graph


@given(graphs(min_order=2, max_order=8))
def test_pair_graph_diagonal_is_independent(g):
    dg = pair_graph(g)
    diagonal = {
        i for i, tok in enumerate(dg.labels, start=1) if tok.elements[0] == tok.elements[-1]
    }
    assert is_independent(dg.graph, diagonal)


@settings(max_examples=40)
@given(graphs(min_order=1, max_order=9))
def test_solvers_agree_with_exhaustive_oracle(g):
    expected = exhaustive_alpha(g)
    assert brute_force_alpha(g).alpha == expected
    assert alpha(g).alpha == expected


@settings(max_examples=40)
@given(graphs(min_order=1, max_order=9), st.data())
def test_alpha_monotone_under_induced_subgraphs(g, data):
    keep = data.draw(
        st.sets(st.integers(min_value=1, max_value=g.order), min_size=1, max_size=g.order)
    )
    h, _ = induced_subgraph(g, keep)
    assert alpha(h).alpha <= alpha(g).alpha


@settings(max_examples=30)
@given(graphs(min_order=1, max_order=6), graphs(min_order=1, max_order=6))
def test_alpha_additive_over_disjoint_union(g, h):
    assert alpha(disjoint_union(g, h)).alpha == alpha(g).alpha + alpha(h).alpha


@st.composite
def five_cycles(draw):
    order = draw(st.permutations(range(1, 6)))
    return Graph(5, frozenset((order[i - 1], order[i]) for i in range(5)))


@st.composite
def bridged_unions(draw):
    """Disjoint union of 2-3 graphs of order <= 5, each random or a
    relabeled 5-cycle; a 5-cycle keeps the clique-cover bound from closing
    the root, so the search reaches the component split. Some neighbouring
    parts are joined by a new vertex u adjacent to one vertex on each side,
    with a pendant w on u: the graph only falls apart once a reduction
    takes w and deletes u."""
    part = st.one_of(graphs(min_order=1, max_order=5), five_cycles())
    parts = draw(st.lists(part, min_size=2, max_size=3))
    g = parts[0]
    for h in parts[1:]:
        left = draw(st.integers(min_value=1, max_value=g.order))
        right = g.order + draw(st.integers(min_value=1, max_value=h.order))
        g = disjoint_union(g, h)
        if draw(st.booleans()):
            u = g.order + 1
            g = Graph(u + 1, g.edges | {(left, u), (right, u), (u, u + 1)})
    return g


@settings(max_examples=40, deadline=None)
@given(bridged_unions())
def test_alpha_on_disjoint_unions_matches_exhaustive_oracle(g):
    result = alpha(g)
    assert result.alpha == exhaustive_alpha(g)
    assert len(result.witness.members) == result.alpha
    assert is_independent(g, result.witness.members)


@given(graphs(min_order=1, max_order=8))
def test_alpha_witness_certifies_itself(g):
    result = alpha(g)
    assert len(result.witness.members) == result.alpha
    assert is_independent(g, result.witness.members)


@settings(max_examples=25)
@given(graphs(min_order=2, max_order=6), st.data())
def test_token_deletion_commutes(g, data):
    k = data.draw(st.sampled_from([2, 3]))
    if k > g.order:
        k = 2
    victims = data.draw(
        st.sets(st.integers(min_value=1, max_value=g.order), max_size=g.order - k)
    )
    assert check_token_deletion_commutes(g, victims, k)


@given(st.integers(min_value=0, max_value=300))
def test_quarter_square_identities(n):
    from tokengraphs.formulas import a002620

    assert a002620(n) == (n // 2) * ((n + 1) // 2)
    if n >= 1:
        assert a002620(n) == a002620(n - 1) + n // 2
    if n >= 2:
        assert a002620(n) == a002620(n - 2) + n - 1


def test_double_vertex_degree_sum_equals_movable_edge_incidences():
    # in the double vertex graph every edge corresponds to one (edge,
    # third-vertex) choice of the base, so the size is |E| * (n - 2)
    rng = random.Random(5)
    from tokengraphs.verify import random_graph

    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 8))
        assert double_vertex(g).graph.size == g.size * (g.order - 2)

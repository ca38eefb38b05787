import random
import sys
from itertools import permutations

import pytest

from tokengraphs.graphs import (
    Graph,
    _mask_to_set,
    cartesian_product,
    complete,
    components,
    cycle,
    delete_vertices,
    disjoint_union,
    fan,
    induced_subgraph,
    is_isomorphic,
    join,
    path,
    wheel,
)

from tokengraphs.mis import alpha, is_independent
from tokengraphs.operators import k_token
from tokengraphs.verify import random_graph

from .oracles import triple_has_triangle
from .test_mis import _frame_depth


def test_graph_rejects_loops():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 2)}))


def test_graph_rejects_out_of_range_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 4)}))


def test_graph_normalizes_edge_orientation():
    g = Graph(3, frozenset({(3, 1)}))
    assert g.edges == frozenset({(1, 3)})
    assert g.has_edge(1, 3) and g.has_edge(3, 1)


@pytest.mark.parametrize("edges", [
    frozenset({(2, 1), (3, 2)}),  # reversed, inside a frozenset
    {(1, 2), (3, 2)},  # a set
    [(2, 1), (2, 3), (1, 2)],  # a list, with a repeat
    frozenset({frozenset({1, 2}), frozenset({3, 2})}),  # pairs that are not tuples
])
def test_graph_normalizes_any_edge_collection(edges):
    g = Graph(3, edges)
    assert type(g.edges) is frozenset
    assert g.edges == frozenset({(1, 2), (2, 3)})
    assert {type(e) for e in g.edges} == {tuple}


def test_graph_keeps_a_normalized_frozenset():
    edges = frozenset({(1, 2), (2, 3)})
    assert Graph(3, edges).edges == edges


@pytest.mark.parametrize("edges, message", [
    (frozenset({(1, 2), (1, 2, 3)}), r"^too many values to unpack \(expected 2\)$"),
    (frozenset({(1, 2), (1,)}), r"^not enough values to unpack \(expected 2, got 1\)$"),
    (frozenset({(1, 2), (2, 2)}), r"^loop edge \(2, 2\) is not allowed$"),
    ([(1, 2), (3, 3)], r"^loop edge \(3, 3\) is not allowed$"),
    ([(1, 9), (2, 2)], r"^loop edge \(2, 2\) is not allowed$"),  # a loop outranks range
    (frozenset({(1, 2), (2, 5)}), r"^edge \(2, 5\) out of range 1..4$"),
    (frozenset({(0, 1), (1, 2)}), r"^edge \(0, 1\) out of range 1..4$"),
    (frozenset({(5, 2)}), r"^edge \(2, 5\) out of range 1..4$"),
])
def test_graph_rejections_and_messages(edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(4, edges)


def test_empty_graph_is_representable():
    g = Graph(0)
    assert g.order == 0 and g.size == 0


@pytest.mark.parametrize("m", range(1, 9))
def test_path_counts(m):
    g = path(m)
    assert g.order == m
    assert g.size == m - 1


def test_path_4_edges():
    assert path(4).edges == frozenset({(1, 2), (2, 3), (3, 4)})


def test_path_1_degenerate():
    g = path(1)
    assert g.order == 1 and g.size == 0


def test_path_2_single_edge():
    assert path(2).edges == frozenset({(1, 2)})


@pytest.mark.parametrize("m", range(3, 9))
def test_cycle_counts_and_regularity(m):
    g = cycle(m)
    assert g.order == m and g.size == m
    assert all(nb.bit_count() == 2 for nb in g.adjacency_masks)


def test_cycle_4_edges():
    assert cycle(4).edges == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})


def test_cycle_3_is_triangle():
    assert is_isomorphic(cycle(3), complete(3))


@pytest.mark.parametrize("bad_builder,arg", [(path, 0), (cycle, 2), (complete, 0), (fan, 0), (wheel, 2)])
def test_family_domain_errors(bad_builder, arg):
    with pytest.raises(ValueError):
        bad_builder(arg)


def test_complete_counts():
    assert complete(1).size == 0
    assert complete(2).size == 1
    assert complete(4).size == 6


def test_join_edge_count_formula():
    g, h = path(3), cycle(4)
    assert join(g, h).size == g.size + h.size + g.order * h.order


def test_join_of_two_singletons_is_k2():
    assert is_isomorphic(join(complete(1), complete(1)), complete(2))


def test_fan_is_path_plus_apex():
    g = fan(4)
    assert g.order == 5 and g.size == 7
    # apex m+1 is adjacent to everything
    assert all(g.has_edge(5, v) for v in range(1, 5))
    assert is_isomorphic(fan(1), complete(2))


def test_wheel_is_cycle_plus_apex():
    g = wheel(4)
    assert g.order == 5 and g.size == 8
    assert all(g.has_edge(5, v) for v in range(1, 5))
    assert is_isomorphic(wheel(3), complete(4))


@pytest.mark.parametrize("build, expected", [
    (lambda: cycle(3), True),
    (lambda: cycle(4), False),
    (lambda: wheel(5), True),
    (lambda: k_token(cycle(9), 3).graph, False),
    (lambda: k_token(wheel(5), 3).graph, True),
], ids=["C3", "C4", "W5", "F3(C9)", "F3(W5)"])
def test_has_triangle_named_cases(build, expected):
    g = build()
    assert g.has_triangle == triple_has_triangle(g) == expected


def test_has_triangle_matches_the_triple_check():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 12))
        sparse = Graph(g.order, frozenset(e for e in g.edges if rng.random() < 0.3))
        assert g.has_triangle == triple_has_triangle(g)
        assert sparse.has_triangle == triple_has_triangle(sparse)


def test_cartesian_product_counts():
    g, h = path(3), path(3)
    prod = cartesian_product(g, h)
    assert prod.order == 9
    assert prod.size == g.order * h.size + h.order * g.size == 12


def test_cartesian_product_2x2_is_c4():
    assert is_isomorphic(cartesian_product(path(2), path(2)), cycle(4))


def test_cartesian_product_labeling():
    # (a, b) -> (a-1)*h.order + b: vertex (2, 1) of P2 x P3 is label 4
    prod = cartesian_product(path(2), path(3))
    assert prod.has_edge(1, 4)  # (1,1) ~ (2,1)
    assert prod.has_edge(1, 2)  # (1,1) ~ (1,2)
    assert not prod.has_edge(1, 5)


def test_disjoint_union_counts():
    g = disjoint_union(path(2), path(2))
    assert g.order == 4 and g.size == 2
    assert len(components(g)) == 2


def test_disjoint_union_of_singletons():
    g = disjoint_union(complete(1), complete(1))
    assert g.order == 2 and g.size == 0


def test_delete_vertices_splits_path():
    g, relabel = delete_vertices(path(5), {3})
    assert g.order == 4
    comps = [c for c, _ in components(g)]
    assert len(comps) == 2
    assert all(is_isomorphic(c, path(2)) for c in comps)
    assert relabel == {1: 1, 2: 2, 4: 3, 5: 4}


def test_delete_vertex_from_cycle_gives_path():
    g, _ = delete_vertices(cycle(5), {5})
    assert is_isomorphic(g, path(4))


def test_delete_apex_from_fan_gives_path():
    g, _ = delete_vertices(fan(4), {5})
    assert is_isomorphic(g, path(4))


def test_delete_all_vertices_gives_empty_graph():
    g, relabel = delete_vertices(path(3), {1, 2, 3})
    assert g.order == 0 and relabel == {}


def test_delete_vertices_out_of_range():
    with pytest.raises(ValueError):
        delete_vertices(path(3), {4})


@pytest.mark.parametrize("read", [
    delete_vertices,
    induced_subgraph,
    lambda g, vertices: alpha(g, avoid=vertices),
    is_independent,
], ids=["delete_vertices", "induced_subgraph", "alpha_avoid", "is_independent"])
@pytest.mark.parametrize("bad", [0, 5])
def test_vertex_set_readers_share_one_range_check(read, bad):
    with pytest.raises(ValueError, match=rf"^vertex {bad} out of range 1\.\.4$"):
        read(path(4), [1, bad])


@pytest.mark.parametrize("order", [1, 64, 3240, 20100])
def test_mask_to_set_round_trips_a_vertex_set(order):
    rng = random.Random(order)
    g = Graph(order)
    # an empty, a one-member, a top-bit, a sparse, a dense and a full mask
    for members in (set(), {1}, {order}, set(rng.sample(g.vertices, order // 64)),
                    set(rng.sample(g.vertices, order // 2)), set(g.vertices)):
        mask = g._vertex_mask(members)
        assert mask == sum(1 << (v - 1) for v in members)
        assert _mask_to_set(mask) == members


def test_induced_subgraph_complements_delete():
    g = cycle(6)
    kept, map_a = induced_subgraph(g, {1, 2, 3})
    dropped, map_b = delete_vertices(g, {4, 5, 6})
    assert kept == dropped and map_a == map_b
    assert is_isomorphic(kept, path(3))


def test_components_single():
    comps = components(path(4))
    assert len(comps) == 1
    assert comps[0][0] == path(4)


def test_components_after_split_count_consistency():
    g, _ = delete_vertices(path(6), {3})
    comps = components(g)
    assert len(comps) == 2
    assert sum(c.order for c, _ in comps) == 5


def test_components_label_maps_translate_back():
    g = disjoint_union(path(3), cycle(3))
    comps = components(g)
    assert len(comps) == 2
    # second component's map points back into 4..6
    _, relabel = comps[1]
    assert set(relabel) == {4, 5, 6}


def test_components_rejects_empty_graph():
    with pytest.raises(ValueError):
        components(Graph(0))


def test_is_isomorphic_positive_relabeling():
    g = Graph(4, frozenset({(1, 2), (2, 3), (3, 4)}))
    h = Graph(4, frozenset({(4, 3), (3, 1), (1, 2)}))
    assert is_isomorphic(g, h)


def test_is_isomorphic_negative_same_counts():
    # same order and size, different structure: triangle+isolated vs path
    g = Graph(4, frozenset({(1, 2), (2, 3), (1, 3)}))
    h = path(4)
    assert g.size == h.size
    assert not is_isomorphic(g, h)


def test_is_isomorphic_path_vs_cycle():
    assert not is_isomorphic(path(4), cycle(4))


def test_is_isomorphic_many_isolated_vertices():
    assert is_isomorphic(Graph(12), Graph(12))
    assert not is_isomorphic(Graph(12), Graph(12, frozenset({(1, 2)})))


def test_is_isomorphic_regular_but_different():
    # identical degree sequences and refinement colors; only the
    # backtracking itself can tell these apart
    assert not is_isomorphic(cycle(6), disjoint_union(cycle(3), cycle(3)))
    k33 = Graph(6, frozenset({(1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)}))
    prism = Graph(6, frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)}))
    assert not is_isomorphic(k33, prism)


def test_is_isomorphic_backtracks_on_every_relabelled_prism():
    # one color class; some labellings send the first choices into a dead
    # end, so the search must undo placements and still find the map
    prism = Graph(6, frozenset({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (1, 4), (2, 5), (3, 6)}))
    for p in permutations(range(1, 7)):
        relabelled = Graph(6, frozenset((p[u - 1], p[v - 1]) for u, v in prism.edges))
        assert is_isomorphic(prism, relabelled), p


def test_isomorphism_search_depth_needs_no_interpreter_frames():
    # the search places one vertex per level, 40 levels deep; with a frame
    # per level it would overrun a recursion limit 15 frames above the caller
    g, h = path(40), path(40)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 15)
    try:
        result = is_isomorphic(g, h)
    finally:
        sys.setrecursionlimit(limit)
    assert result

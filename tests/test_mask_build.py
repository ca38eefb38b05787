"""Derived graphs and the parts of a dissection are built straight into
neighbour bitmasks, with no edge set and no validation on the way. These
tests hold every such graph to the first-principles edge sets in
``oracles`` and to its twin built from edges by the public constructor."""

import random

import pytest

from tokengraphs import graphs
from tokengraphs.graphs import (
    Graph,
    complete,
    components,
    cycle,
    delete_vertices,
    fan,
    induced_subgraph,
    path,
    wheel,
)
from tokengraphs.operators import double_vertex, k_token, pair_graph
from tokengraphs.verify import FAMILIES, STATUS_OK, random_graph, verify_one

from .oracles import naive_double_vertex_edges, naive_k_token_edges, naive_pair_graph_edges

BASES = (
    [path(m) for m in range(2, 9)]
    + [cycle(m) for m in range(3, 9)]
    + [fan(m) for m in range(1, 8)]
    + [wheel(m) for m in range(3, 8)]
    + [complete(n) for n in range(2, 9)]
    + [random_graph(random.Random(seed), 2 + seed % 7) for seed in range(8)]
)


def _assert_valid_masks(g: Graph) -> None:
    """Every mask is in range, loop-free and agrees with its neighbours'."""
    adj = g.adjacency_masks
    assert len(adj) == g.order
    for v, nb in enumerate(adj, start=1):
        assert nb >> g.order == 0 and not nb >> (v - 1) & 1
        assert all(adj[w - 1] >> (v - 1) & 1 for w in graphs._mask_to_set(nb))


def _assert_matches_edge_twin(g: Graph) -> None:
    _assert_valid_masks(g)
    assert g.size == len(g.edges)
    twin = Graph(g.order, g.edges)
    assert g == twin and hash(g) == hash(twin)


def _derived(base: Graph):
    """(derived graph, oracle edge set over token tuples) for every operator."""
    yield double_vertex(base), naive_double_vertex_edges(base)
    yield pair_graph(base), naive_pair_graph_edges(base)
    for k in range(1, min(4, base.order) + 1):
        yield k_token(base, k), naive_k_token_edges(base, k)


def _induced_edges(g: Graph, relabel: dict[int, int]) -> frozenset:
    return frozenset(
        (relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel
    )


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_mask_built_derived_graphs_match_the_oracles(base):
    for dg, expected in _derived(base):
        g = dg.graph
        _assert_matches_edge_twin(g)
        labels = [tok.elements for tok in dg.labels]
        assert {frozenset((labels[u - 1], labels[v - 1])) for u, v in g.edges} == expected


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_dissections_of_mask_built_graphs_match_the_edge_built_twin(base):
    rng = random.Random(base.order * 1000 + base.size)
    for dg, _ in _derived(base):
        g = dg.graph
        twin = Graph(g.order, g.edges)
        parts = components(g)
        assert parts == components(twin)
        for part, relabel in parts:
            _assert_matches_edge_twin(part)
            assert part.edges == _induced_edges(g, relabel)
        victims = rng.sample(range(1, g.order + 1), rng.randint(0, g.order))
        for cut in (delete_vertices, induced_subgraph):
            sub, relabel = cut(g, victims)
            assert (sub, relabel) == cut(twin, victims)
            _assert_matches_edge_twin(sub)
            assert sub.edges == _induced_edges(g, relabel)


def test_graphs_are_immutable():
    for g in (path(3), double_vertex(path(3)).graph):
        with pytest.raises(AttributeError):
            g.order = 5
        with pytest.raises(AttributeError):
            g.edges = frozenset()
        with pytest.raises(AttributeError):
            del g.order


def test_paper_rows_never_round_trip_through_edges(monkeypatch):
    # A row works on its derived graph through the bitmasks alone: no edge
    # view is read off a mask-built graph, and the public constructor
    # builds only the base graphs (order m or m + 1), never a derived one.
    views = []
    orders = []
    edges_of = graphs._edges_of
    init = Graph.__init__

    def counting_edges_of(adj):
        views.append(len(adj))
        return edges_of(adj)

    def recording_init(self, order, edges=frozenset()):
        orders.append(order)
        init(self, order, edges)

    monkeypatch.setattr(graphs, "_edges_of", counting_edges_of)
    monkeypatch.setattr(Graph, "__init__", recording_init)
    m = 9
    for fam in FAMILIES.values():
        assert verify_one(fam, m).status == STATUS_OK
    assert views == []
    assert orders and max(orders) <= m + 1

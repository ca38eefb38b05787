"""Derived graphs, joins, unions, products and the parts of a dissection
are built straight into neighbour bitmasks, with no edge set and no
validation on the way. These tests hold every such graph to a
first-principles edge set and to its twin built from edges by the
public constructor, and check that no operator reads its base's edges."""

import random
from pathlib import Path

import pytest

from tokengraphs import graphs, operators, verify
from tokengraphs.cli import main
from tokengraphs.graphs import (
    Graph,
    cartesian_product,
    complete,
    components,
    cycle,
    delete_vertices,
    disjoint_union,
    fan,
    induced_subgraph,
    join,
    path,
    wheel,
)
from tokengraphs.operators import MULTISET, SUBSET, double_vertex, k_token, pair_graph
from tokengraphs.verify import FAMILIES, STATUS_OK, random_graph, verify_one

from .oracles import (
    bitmask_index_k_token_masks, naive_double_vertex_edges, naive_k_token_edges,
    naive_pair_graph_edges,
)

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
        labels = dg.labels
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


def _pairs_where(order: int, adjacent) -> frozenset:
    """Every (u, v), 1 <= u < v <= order, that ``adjacent`` accepts."""
    return frozenset(
        (u, v) for u in range(1, order + 1) for v in range(u + 1, order + 1) if adjacent(u, v)
    )


def _adjacent_in(g: Graph):
    return lambda u, v: (min(u, v), max(u, v)) in g.edges


@pytest.mark.parametrize("seed", range(20))
def test_mask_built_builders_match_their_definitions(seed):
    rng = random.Random(seed)
    g, h = random_graph(rng, rng.randint(1, 6)), random_graph(rng, rng.randint(1, 6))
    n = g.order
    in_g, in_h = _adjacent_in(g), _adjacent_in(h)

    def same_side(u, v):
        # both in g, or both in h (labels n+1 .. n+h.order)
        return in_g(u, v) if v <= n else u > n and in_h(u - n, v - n)

    union = disjoint_union(g, h)
    assert union.edges == _pairs_where(n + h.order, same_side)
    joined = join(g, h)
    assert joined.edges == _pairs_where(n + h.order, lambda u, v: same_side(u, v) or u <= n < v)

    def pair(x):  # product label x is the pair (a, b)
        return (x - 1) // h.order + 1, (x - 1) % h.order + 1

    def product_adjacent(x, y):
        (a, b), (c, d) = pair(x), pair(y)
        return (a == c and in_h(b, d)) or (b == d and in_g(a, c))

    product = cartesian_product(g, h)
    assert product.edges == _pairs_where(n * h.order, product_adjacent)
    for built in (union, joined, product):
        _assert_matches_edge_twin(built)


def test_operators_and_builders_never_read_edge_views(monkeypatch):
    # operators and builders walk their inputs' masks: neither a
    # mask-built base (a deletion's result) nor a run of every property
    # suite (the token-deletion suite derives from such bases, and the
    # linking profile walks a pair graph's edges) builds an edge view
    views = []
    edges_of = graphs._edges_of

    def counting_edges_of(adj):
        views.append(len(adj))
        return edges_of(adj)

    monkeypatch.setattr(graphs, "_edges_of", counting_edges_of)
    for base in BASES:
        if base.order >= 3:
            reduced, _ = delete_vertices(base, [1])
            k_token(reduced, 2)
            pair_graph(reduced)
            join(reduced, reduced)
            disjoint_union(reduced, reduced)
            cartesian_product(reduced, reduced)
    assert all(s.ok for s in verify.run_property_suites(0, sizes=(5, 6, 7, 8), trials=40))
    assert views == []


def _token_edges(dg) -> set[frozenset]:
    labels = dg.labels
    return {frozenset((labels[u - 1], labels[v - 1])) for u, v in dg.graph.edges}


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_k_token_builds_alike_from_a_cold_or_a_shared_move_table(base):
    # a move table depends on (n, k) alone: filled by this base from
    # nothing, or by every other base of its order first, it gives the
    # same graph
    others = [b for b in BASES if b.order == base.order and b is not base]
    for k in range(1, min(4, base.order) + 1):
        expected = naive_k_token_edges(base, k)
        operators._move_table.cache_clear()
        cold = k_token(base, k)
        assert _token_edges(cold) == expected
        for other in others:
            k_token(other, k)
        warm = k_token(base, k)
        assert _token_edges(warm) == expected
        assert warm.graph == cold.graph


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_pair_builders_build_alike_from_a_cold_or_a_shared_move_table(base):
    # double_vertex, pair_graph and k_token(., 2) read one move table per
    # (n, kind): filled by this base from nothing, or by every other base
    # of its order through all three builders first, it gives the same graph
    others = [b for b in BASES if b.order == base.order and b is not base]
    for build, oracle in ((double_vertex, naive_double_vertex_edges),
                          (pair_graph, naive_pair_graph_edges)):
        expected = oracle(base)
        operators._move_table.cache_clear()
        cold = build(base)
        assert _token_edges(cold) == expected
        for other in others:
            double_vertex(other)
            pair_graph(other)
            k_token(other, 2)
        warm = build(base)
        assert _token_edges(warm) == expected
        assert warm == cold
    assert k_token(base, 2) == double_vertex(base)


def test_the_paper_sweep_keeps_one_move_table_per_order_and_kind():
    # 218 builds over 23 orders at each kind: every (n, kind) of the sweep
    # fits the bound, so each table is made once
    operators._move_table.cache_clear()
    verify.run_sweep(verify.RunConfig(tuple(FAMILIES), (3, 24)))
    info = operators._move_table.cache_info()
    assert info.misses == info.currsize == 46
    assert info.hits == 172


def test_move_tables_shared_across_builders_survive_eviction(capsys):
    # the sweep fills a move table per (n, kind) that double_vertex,
    # pair_graph and k_token share, props and the k = 1, 3 builds then push
    # past the 64 kept, and the sweep runs again on refilled tables; both
    # sweeps must match the golden
    golden = (Path(__file__).parent / "golden" / "verify_paper.csv").read_text()
    sweep = ["verify", "--families", "all", "--m", "3..24", "--format", "csv"]
    props = ["props", "--seed", "5", "--sizes", "9,10,11,12,13,14,15,16", "--trials", "20"]
    # props alone leaves 61 of the 64 tables in use; these builds evict some of the sweep's
    builds = [["build", "cycle", str(m), "--op", f"token:{k}", "--format", "json"]
              for k in (1, 3) for m in range(3, 26)]
    operators._move_table.cache_clear()
    failed = []
    for args in (sweep, props, *builds, sweep):
        made = operators._move_table.cache_info().misses
        code = main(args)
        out = capsys.readouterr().out
        if code:
            failed.append(f"{' '.join(args)}: exit {code}")
        elif args is sweep and out != golden:
            failed.append("verify differs from tests/golden/verify_paper.csv")
    refilled = operators._move_table.cache_info().misses - made
    if not refilled:
        failed.append("the second sweep found every move table kept")
    assert not failed


def test_property_suite_builds_match_the_bitmask_index_builder(monkeypatch):
    # the suites are where all three builders share the move tables
    builds = []
    pair_builds = []

    def recording_k_token(g, k):
        dg = k_token(g, k)
        builds.append((g, k, dg.graph.adjacency_masks))
        return dg

    def recording(build, oracle):
        def record(g):
            dg = build(g)
            pair_builds.append((dg, oracle(g)))
            return dg
        return record

    monkeypatch.setattr(verify, "k_token", recording_k_token)
    monkeypatch.setattr(verify, "double_vertex", recording(double_vertex, naive_double_vertex_edges))
    monkeypatch.setattr(verify, "pair_graph", recording(pair_graph, naive_pair_graph_edges))
    assert all(s.ok for s in verify.run_property_suites(0, sizes=(5, 6, 7, 8), trials=40))
    assert len(builds) == 640 and len({(g.order, k) for g, k, _ in builds}) == 13
    for g, k, masks in builds:
        assert masks == bitmask_index_k_token_masks(g, k)
    assert len(pair_builds) == 98 and {dg.kind for dg, _ in pair_builds} == {SUBSET, MULTISET}
    for dg, expected in pair_builds:
        assert _token_edges(dg) == expected


def test_k_token_keeps_at_most_its_bound_of_move_tables():
    # one table per (n, k), the least recently used dropped past
    # _MOVE_TABLES
    operators._move_table.cache_clear()
    asked = [(n, k) for n in range(1, 24) for k in (1, 2, 3) if k <= n]
    for n, k in asked:
        k_token(path(n), k)
    info = operators._move_table.cache_info()
    assert len(asked) > operators._MOVE_TABLES
    assert info.maxsize == info.currsize == operators._MOVE_TABLES

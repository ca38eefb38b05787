"""Invariant checks on randomized inputs."""

import random
import re
import subprocess
import sys
from dataclasses import replace
from functools import reduce
from itertools import combinations, combinations_with_replacement
from math import comb, inf
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from tokengraphs.graphs import (
    Graph,
    cartesian_product,
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
from tokengraphs.mis import IndependentSet, _cycle_cover_bound, alpha, brute_force_alpha, is_independent
from tokengraphs.operators import (
    MULTISET,
    SUBSET,
    DerivedGraph,
    double_vertex,
    index_of,
    indices_of,
    k_token,
    pair_graph,
)
from tokengraphs.verify import check_token_deletion_commutes

from .oracles import (
    double_cover_matching_size,
    exhaustive_alpha,
    naive_double_vertex_edges,
    naive_k_token_edges,
    naive_pair_graph_edges,
    union_find_components,
)


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


@settings(deadline=None)  # one induced_subgraph per part scans every edge: O(c * m)
@given(graphs())
@example(Graph(2000))
@example(reduce(disjoint_union, [cycle(3), cycle(4), cycle(5)] * 100))
def test_components_match_union_find_oracle(g):
    comps = components(g)
    parts = [frozenset(relabel) for _, relabel in comps]
    # the oracle orders its parts by smallest vertex, so this checks the
    # partition and the order
    assert parts == union_find_components(g)
    for (comp, relabel), part in zip(comps, parts):
        assert (comp, relabel) == induced_subgraph(g, part)


@given(graphs())
def test_isomorphism_is_reflexive(g):
    assert is_isomorphic(g, g)


@given(permuted_copies())
def test_isomorphism_finds_relabelings_and_is_symmetric(pair):
    g, h = pair
    assert is_isomorphic(g, h)
    assert is_isomorphic(h, g)


def _labelled_edges(dg):
    return {
        frozenset((dg.labels[u - 1], dg.labels[v - 1]))
        for u, v in dg.graph.edges
    }


@settings(max_examples=60, deadline=None)
@given(graphs(min_order=1, max_order=9))
def test_k_token_and_pair_graph_match_first_principles(g):
    # labels in lexicographic order, edges against the oracles' definitions
    for k in range(1, min(4, g.order) + 1):
        dg = k_token(g, k)
        assert list(dg.labels) == list(combinations(g.vertices, k))
        assert dg.kind == SUBSET
        assert dg.graph.order == len(dg.labels)
        assert _labelled_edges(dg) == naive_k_token_edges(g, k)
    if g.order >= 2:
        dg = pair_graph(g)
        assert list(dg.labels) == list(combinations_with_replacement(g.vertices, 2))
        assert dg.kind == MULTISET
        assert dg.graph.order == len(dg.labels)
        assert _labelled_edges(dg) == naive_pair_graph_edges(g)


@settings(max_examples=60, deadline=None)
@given(graphs(min_order=4, max_order=8), st.sampled_from([2, 3]))
def test_k_token_has_a_triangle_iff_its_base_does(g, k):
    # three token sets pairwise one move apart differ by one token moving
    # among three mutually adjacent vertices of g; conversely, for k < n a
    # triangle of g gives one (F_k(g) is isomorphic to F_(n-k)(g))
    assert k_token(g, k).graph.has_triangle == g.has_triangle


# every path, cycle, fan and wheel base of order <= 12
NAMED_BASES = [pytest.param(base(m), id=f"{base.__name__}({m})")
               for base, first in ((path, 1), (cycle, 3), (fan, 1), (wheel, 3))
               for m in range(first, 13) if base(m).order <= 12]


@pytest.mark.parametrize("g", NAMED_BASES)
def test_index_of_ranks_every_label_and_rejects_others(g):
    n = g.order
    derived = [k_token(g, k) for k in range(1, min(4, n) + 1)]
    if n >= 2:
        derived += [double_vertex(g), pair_graph(g)]
    # no operator builds k-multisets for k != 2, so rank them on edgeless graphs
    derived += [DerivedGraph(Graph(comb(n + k - 1, k), frozenset()), MULTISET, k, n)
                for k in (1, 3, 4)]
    for dg in derived:
        labels = dg.labels
        for i, tok in enumerate(labels, start=1):
            assert index_of(dg, tok) == i
        assert indices_of(dg, labels) == frozenset(range(1, len(labels) + 1))
        # tuples that are not labels here, each failing one check: the
        # length, an element 0 or n + 1, the order, a repeat in a subset
        first, last = labels[0], labels[-1]
        misses = [(), first[1:], first + last[-1:], (0,) + first[1:], last[:-1] + (n + 1,)]
        misses += [tok[::-1] for tok in labels if tok[0] < tok[-1]][:1]
        if dg.kind == SUBSET and dg.k >= 2:
            misses.append(first[:1] + first[:-1])
        for bad in misses:
            with pytest.raises(ValueError, match="^" + re.escape(f"token {bad} is not a vertex label")):
                index_of(dg, bad)


@given(graphs(min_order=2, max_order=8))
def test_double_vertex_matches_naive_formulation(g):
    dg = double_vertex(g)
    got = {
        frozenset((dg.labels[u - 1], dg.labels[v - 1]))
        for u, v in dg.graph.edges
    }
    assert got == naive_double_vertex_edges(g)


@given(graphs(min_order=2, max_order=6))
def test_pair_graph_matches_naive_formulation(g):
    dg = pair_graph(g)
    got = {
        frozenset((dg.labels[u - 1], dg.labels[v - 1]))
        for u, v in dg.graph.edges
    }
    assert got == naive_pair_graph_edges(g)


@given(graphs(min_order=2, max_order=8))
def test_pair_graph_restricts_to_double_vertex(g):
    dg = pair_graph(g)
    # the 2-subsets {a, b}, a < b, are the labels off the diagonal
    off_diagonal = [i for i, tok in enumerate(dg.labels, start=1) if tok[0] < tok[1]]
    restricted, _ = induced_subgraph(dg.graph, off_diagonal)
    assert restricted == double_vertex(g).graph


@given(graphs(min_order=2, max_order=8))
def test_pair_graph_diagonal_is_independent(g):
    dg = pair_graph(g)
    diagonal = {
        i for i, tok in enumerate(dg.labels, start=1) if tok[0] == tok[-1]
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
def relabeled_cycles(draw, lengths=(3, 5, 7, 9, 11)):
    n = draw(st.sampled_from(lengths))
    order = draw(st.permutations(range(1, n + 1)))
    return Graph(n, frozenset((order[i - 1], order[i]) for i in range(n)))


def with_apex(g):
    apex = g.order + 1
    return Graph(apex, g.edges | {(v, apex) for v in g.vertices})


@st.composite
def bridged_unions(draw):
    """Disjoint union of 2-3 graphs of order <= 6 (at most 16 vertices in
    all), each random of order <= 5 or a relabeled 5-wheel. Every graph of
    order <= 5 closes at the root, but a 5-wheel keeps both bounds at 3
    against an alpha of 2, so the search reaches the component split. Some
    neighbouring parts are joined by a new vertex u adjacent to one vertex
    on each side, with a pendant w on u: the graph only falls apart once a
    reduction takes w and deletes u."""
    part = st.one_of(graphs(min_order=1, max_order=5), relabeled_cycles((5,)).map(with_apex))
    parts = draw(st.lists(part, min_size=2, max_size=3).filter(
        lambda ps: sum(p.order for p in ps) <= 16))
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
    # also from an empty incumbent and from a maximum set less its lowest
    # vertex, so each component root must start from its own part of the
    # incumbent and no more
    expected = exhaustive_alpha(g)
    maximum = sorted(alpha(g).witness.members)
    for incumbent in (None, (), maximum[1:]):
        result = alpha(g, incumbent=incumbent)
        assert result.alpha == expected
        assert len(result.witness.members) == result.alpha
        assert is_independent(g, result.witness.members)


@settings(max_examples=80, deadline=None)
@given(st.one_of(graphs(), bridged_unions(), relabeled_cycles()), st.data())
def test_alpha_avoiding_vertices_matches_solving_the_copy(g, data):
    # reference: delete the vertices, solve the smaller graph and map its
    # witness back. Deletion keeps the vertex order, so every tie-break and
    # counter agrees; only the elapsed time may differ. At most three
    # vertices are avoided, so most bridged unions keep a part that branches
    # and the search often reaches the component split.
    avoid = data.draw(st.sets(st.integers(min_value=1, max_value=g.order),
                              max_size=min(3, g.order - 1)))
    reduced, relabel = delete_vertices(g, avoid)
    copy = alpha(reduced)
    back = {new: old for old, new in relabel.items()}
    witness = IndependentSet(g.order, frozenset(back[w] for w in copy.witness.members))
    expected = replace(copy, witness=witness, elapsed=0.0)
    assert replace(alpha(g, avoid=avoid), elapsed=0.0) == expected


def _random_matching(g, rng):
    """A random matching of g's double cover, not necessarily maximal or
    maximum, in the solver's ``(out, inn, tails, heads)`` form with
    0-based vertices; list entries off the matching hold junk."""
    out = [rng.randrange(g.order) for _ in range(g.order)]
    inn = [rng.randrange(g.order) for _ in range(g.order)]
    tails = heads = 0
    arcs = [(a - 1, b - 1) for u, v in sorted(g.edges) for a, b in ((u, v), (v, u))]
    rng.shuffle(arcs)
    for u, v in arcs:
        if rng.random() < 0.7 and not (tails >> u & 1 or heads >> v & 1):
            out[u], inn[v] = v, u
            tails, heads = tails | 1 << u, heads | 1 << v
    return out, inn, tails, heads


def _bound_of_pieces(g, mask, matching):
    """Check that the arcs u -> out[u] split ``mask`` into paths and cycles
    of g, and return the sum of ceil(L/2) over the paths and floor(L/2)
    over the cycles."""
    out, inn, tails, heads = matching
    vertices = [v for v in range(g.order) if mask >> v & 1]
    assert not (tails | heads) & ~mask
    arcs = {u: out[u] for u in vertices if tails >> u & 1}
    assert sorted(arcs.values()) == [v for v in vertices if heads >> v & 1]
    for u, v in arcs.items():
        assert g.has_edge(u + 1, v + 1) and inn[v] == u
    unseen = set(vertices)
    bound = 0
    for start in [v for v in vertices if not heads >> v & 1]:
        length, u = 1, start
        unseen.remove(u)
        while u in arcs:
            u = arcs[u]
            unseen.remove(u)
            length += 1
        bound += (length + 1) // 2
    while unseen:
        start = u = min(unseen)
        length = 0
        while True:
            unseen.remove(u)
            length += 1
            u = arcs[u]
            if u == start:
                break
        bound += length // 2
    return bound


@settings(max_examples=60, deadline=None)
@given(st.one_of(bridged_unions(), relabeled_cycles()), st.data())
def test_cycle_cover_bound_from_cold_and_stale_matchings(g, data):
    keep = data.draw(st.one_of(
        st.just(set(g.vertices)),
        st.sets(st.integers(min_value=1, max_value=g.order), min_size=1),
    ))
    mask = sum(1 << (v - 1) for v in keep)
    expected_alpha = exhaustive_alpha(induced_subgraph(g, keep)[0])
    expected_size = double_cover_matching_size(g, keep)
    no_arcs = [-1] * g.order
    stale = _random_matching(g, data.draw(st.randoms(use_true_random=False)))
    for start in ((no_arcs, no_arcs, 0, 0), stale):
        kept = (start[0][:], start[1][:], start[2], start[3])
        bound, matching = _cycle_cover_bound(g.adjacency_masks, mask, start, inf)
        assert start == kept
        assert bound >= expected_alpha
        assert matching[2].bit_count() == expected_size
        assert bound == _bound_of_pieces(g, mask, matching)


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


PLANTED_FAILURE = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10))
def test_planted(n):
    assert n < 3
"""


def test_failing_property_reports_its_falsifying_example(tmp_path):
    # under the repo's warning filters a failing @given test must show its
    # assertion and example, not end the run in INTERNALERROR
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_planted.py").write_text(PLANTED_FAILURE)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider",
         "test_planted.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out

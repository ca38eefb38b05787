"""Derived graphs whose vertices are small subsets or multisets of a base
graph's vertices.

Three operators are provided:

* ``double_vertex(g)``: vertices are the 2-subsets of V(g); two subsets
  are adjacent when their symmetric difference is an edge of g.
* ``k_token(g, k)``: the same idea on k-subsets; adjacency when the
  symmetric difference is exactly one edge of g.
* ``pair_graph(g)``: vertices are the 2-multisets of V(g); two distinct
  multisets {a, x} and {a, y} sharing the element a (counted with
  multiplicity) are adjacent when {x, y} is an edge of g.  In particular
  {x, x} ~ {x, y} exactly when xy is an edge, and two distinct diagonal
  vertices {x, x}, {y, y} are never adjacent.

F2(g) is the pair graph of g without its diagonal tokens {x, x}, so
``double_vertex`` and ``pair_graph`` are built by one rank-table
builder, which lists for each base vertex x the ranks of its tokens
{s, x} and joins the lists of x and y for each edge xy.
``k_token(g, 2)`` builds the same graph as ``double_vertex(g)`` the
general way. Its moves along a base edge xy, S + x ~ S + y, depend only
on the base order n, k, x and y, so ``k_token`` keeps a move table per
(n, k), for the last ``_MOVE_TABLES`` (n, k) used: the ranks of the
k-subsets holding each vertex, and for each pair xy met as an edge so
far the two rank lists to zip. Later builds of that order and k, on any
graph, reuse it.

Vertex i of a derived graph is the i-th k-subset or k-multiset of
1..n in lexicographic order, so a derived graph stores only its kind, k
and n. A token is a sorted tuple of ints, strictly increasing on a
subset graph and non-decreasing on a multiset graph. ``indices_of``
ranks tokens of any k by arithmetic (``index_of`` is its one-token
case), and the ``labels`` tuple is built only when something iterates
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb

from .graphs import Graph, _edge_pairs

SUBSET = "subset"
MULTISET = "multiset"

# how many (n, k) move tables ``k_token`` keeps; the property suites use 13
# at orders <= 8 and 29 at orders <= 16, the most ``props`` allows. A
# process that sweeps many large (n, k) pays for it in memory: F3(C30)'s
# table alone holds 1.29 MB.
_MOVE_TABLES = 32


@dataclass(frozen=True)
class DerivedGraph:
    """A graph on the k-subsets (``SUBSET``) or k-multisets (``MULTISET``)
    of 1..base_order, vertex i being the i-th of them in lexicographic
    order. The token labels are derived from that order on demand."""

    graph: Graph
    kind: str
    k: int
    base_order: int

    def __post_init__(self) -> None:
        if self.kind not in (SUBSET, MULTISET):
            raise ValueError(f"unknown token kind {self.kind!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        # a k-multiset of 1..n is a k-subset of 1..n+k-1 (add i to its i-th element)
        pool = self.base_order + (self.k - 1 if self.kind == MULTISET else 0)
        if self.graph.order != comb(pool, self.k):
            raise ValueError("label count must match graph order")

    @cached_property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        choose = combinations if self.kind == SUBSET else combinations_with_replacement
        return tuple(choose(range(1, self.base_order + 1), self.k))


def token_label_of(dg: DerivedGraph, index: int) -> tuple[int, ...]:
    """Token label of a vertex index (1-based)."""
    if not (1 <= index <= dg.graph.order):
        raise ValueError(f"vertex index {index} out of range 1..{dg.graph.order}")
    return dg.labels[index - 1]


def index_of(dg: DerivedGraph, token) -> int:
    """Vertex index (1-based) of a token label, its lexicographic rank;
    tokens that are not labels here are rejected."""
    (rank,) = indices_of(dg, (token,))
    return rank


def indices_of(dg: DerivedGraph, tokens) -> frozenset[int]:
    """Vertex indices (1-based) of the tokens in ``tokens``, each its
    lexicographic rank. A token that is not a label here (wrong length,
    an element outside 1..n, or out of order for the graph's kind) is
    rejected by name."""
    n, k = dg.base_order, dg.k
    multiset = dg.kind == MULTISET
    tokens = tuple(tokens)
    if k == 2:
        # the rank table the builders use; 1 <= a < b <= n for a subset,
        # 1 <= a <= b <= n for a multiset
        start = _pair_starts(n, multiset)
        ranks = []
        try:
            for a, b in tokens:
                if not 1 <= a < b + multiset <= n + multiset:
                    break
                ranks.append(start[a] + b + 1)
            else:
                return frozenset(ranks)
        except ValueError:  # a token of another length
            pass
        # some token is not a label: the loop below finds it and names it
    # combinatorial number system: the k-subsets after e are those that
    # first exceed it at some position i, comb(n - e_i, k - i) for each i.
    # A k-multiset is the k-subset e_i + i of 1..n+k-1, so there the pool
    # top n+k-1 and the shift i together shrink n - e_i by one per position.
    top = n + multiset * (k - 1)
    last = comb(top, k)
    step = not multiset  # the next element may repeat the last only in a multiset
    ranks = []
    for token in tokens:
        if len(token) != k:
            raise _not_a_label(token, dg)
        rank, pool, j, low = last, top, k, 1
        for x in token:
            if not low <= x <= n:
                raise _not_a_label(token, dg)
            rank -= comb(pool - x, j)
            pool -= multiset
            j -= 1
            low = x + step
        ranks.append(rank)
    return frozenset(ranks)


def _not_a_label(token, dg: DerivedGraph) -> ValueError:
    return ValueError(f"token {token} is not a vertex label of this {dg.kind} graph "
                      f"(k = {dg.k}, base order {dg.base_order})")


# ---------------------------------------------------------------------------
# constructions


def double_vertex(g: Graph) -> DerivedGraph:
    """Graph on all 2-subsets of V(g); {x,y} ~ {u,v} iff the symmetric
    difference is an edge of g. Needs g.order >= 2."""
    if g.order < 2:
        raise ValueError(f"double vertex graph needs base order >= 2, got {g.order}")
    return _pair_tokens(g, SUBSET)


def k_token(g: Graph, k: int) -> DerivedGraph:
    """Graph on all k-subsets of V(g); adjacency when the symmetric
    difference of the two subsets is exactly one edge of g.

    The moves along a base edge xy, S + x ~ S + y for each (k-1)-subset S
    of V(g) minus {x, y}, depend only on the order n, k, x and y, so every
    build of one order and k reads them from one move table
    (``_move_table``, kept for the last ``_MOVE_TABLES`` (n, k)): an edge
    met before is a zip of two stored rank lists, and a new one fills its
    lists from two set differences."""
    if not (1 <= k <= g.order):
        raise ValueError(f"k must satisfy 1 <= k <= {g.order}, got {k}")
    holders, moves = _move_table(g.order, k)
    masks = [0] * comb(g.order, k)
    for x, y in _edge_pairs(g.adjacency_masks):
        pair = moves.get((x, y))
        if pair is None:
            # hx - hy ranks the tokens S + x and hy - hx the tokens S + y;
            # adding x (or y) to each S keeps the lexicographic order of
            # the S, so the two sorted lists pair up S by S
            hx, hy = holders[x - 1], holders[y - 1]
            pair = moves[x, y] = (sorted(hx - hy), sorted(hy - hx))
        for i, j in zip(*pair):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return DerivedGraph(Graph._from_masks(masks), SUBSET, k, g.order)


@lru_cache(maxsize=_MOVE_TABLES)
def _move_table(n: int, k: int) -> tuple[list[set[int]], dict[tuple[int, int], tuple]]:
    """The move table of the k-subsets of 1..n, one of the last
    ``_MOVE_TABLES`` (n, k) asked for: for each vertex x, the set of
    0-based ranks of the k-subsets holding x, and, for each pair x < y
    that a build has met as an edge, the sorted ranks of the k-subsets
    holding x but not y and of those holding y but not x. It depends on
    n and k alone, never on a graph, so it outlives the builds."""
    holders = [set() for _ in range(n)]
    for rank, token in enumerate(combinations(holders, k)):
        for holder in token:
            holder.add(rank)
    return holders, {}


def pair_graph(g: Graph) -> DerivedGraph:
    """Graph on all 2-multisets of V(g); {a,x} ~ {a,y} iff xy is an edge
    of g. Needs g.order >= 2."""
    if g.order < 2:
        raise ValueError(f"pair graph needs base order >= 2, got {g.order}")
    return _pair_tokens(g, MULTISET)


def _pair_starts(n: int, diagonal: bool) -> list[int]:
    """The rank table of the 2-multisets (``diagonal``) or 2-subsets of
    1..n that ``_pair_tokens`` and ``indices_of`` share: {a, b} with
    a <= b is vertex ``start[a] + b``, 0-based."""
    # As a multiset, the (a - 1)(2n + 2 - a) / 2 multisets {a', .} with
    # a' < a come first, then {a, a} .. {a, b}. As a subset (a < b) it
    # loses the a diagonal vertices {1, 1} .. {a, a} before it:
    # (a - 1)(2n - a) / 2 + b - a - 1.
    return [(a - 1) * (2 * n - a) // 2 - 1 - (0 if diagonal else a) for a in range(n + 1)]


def _pair_tokens(g: Graph, kind: str) -> DerivedGraph:
    """The graph on the 2-multisets (``MULTISET``) or 2-subsets
    (``SUBSET``) of V(g) with {s,x} ~ {s,y} for each edge xy of g and
    each shared s; subsets leave out the diagonal s = x or s = y."""
    n = g.order
    diagonal = kind == MULTISET
    start = _pair_starts(n, diagonal)
    # ranks[x - 1] lists the vertices {s, x} in order of s = 1..n, s = x
    # only with the diagonal
    ranks = [[start[s] + x for s in range(1, x + diagonal)] + [start[x] + s for s in range(x + 1, n + 1)]
             for x in g.vertices]
    masks = [0] * comb(n + diagonal, 2)
    for x, y in _edge_pairs(g.adjacency_masks):
        ax, ay = ranks[x - 1], ranks[y - 1]
        if not diagonal:
            # x < y: x's list holds {x, y} at s = y, y's holds it at s = x
            ax, ay = ax[:y - 2] + ax[y - 1:], ay[:x - 1] + ay[x:]
        # {s, x} ~ {s, y} for every shared s
        for i, j in zip(ax, ay):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return DerivedGraph(Graph._from_masks(masks), kind, 2, n)

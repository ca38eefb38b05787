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

All three are one builder. A move along a base edge xy, S + x ~ S + y,
depends only on the base order n, k, the token kind, x and y, so the
builder keeps a move table per (n, k, kind), for the last
``_MOVE_TABLES`` used: for each pair xy met as an edge so far, the ranks
of the tokens S + x and S + y as two lists to zip. Later builds of that
order, k and kind, on any graph, reuse it. At k = 2 the lists are the
ranks of the tokens {s, x} and {s, y} in order of s, read off one rank
table; F2(g) is the pair graph of g without its diagonal tokens {x, x},
so on subsets both lists leave out s = x and s = y. At other k they are
the sorted differences of the sets of k-subsets holding x and holding y.
So ``k_token(g, 2)`` and ``double_vertex(g)`` share one table.

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
from typing import Callable

from .graphs import Graph, _edge_pairs

SUBSET = "subset"
MULTISET = "multiset"

# how many (n, k, kind) move tables the builders keep; it must fit the 46
# (n, kind) of ``verify --families all --m 3..24`` (orders 3..25, both
# kinds, k = 2) and the 29 (n, k) of ``props`` at orders <= 16, the most it
# allows: 61 tables when one process runs both. A process that sweeps many
# large (n, k) pays for it in memory: F3(C30)'s table alone holds 1.29 MB.
_MOVE_TABLES = 64


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
        # every token before it ranked
        raise _not_a_label(tokens[len(ranks)], dg)
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
    return _build(g, 2, SUBSET)


def k_token(g: Graph, k: int) -> DerivedGraph:
    """Graph on all k-subsets of V(g); adjacency when the symmetric
    difference of the two subsets is exactly one edge of g. At k = 2 it
    is ``double_vertex(g)``, built from the same move table."""
    if not (1 <= k <= g.order):
        raise ValueError(f"k must satisfy 1 <= k <= {g.order}, got {k}")
    return _build(g, k, SUBSET)


def pair_graph(g: Graph) -> DerivedGraph:
    """Graph on all 2-multisets of V(g); {a,x} ~ {a,y} iff xy is an edge
    of g. Needs g.order >= 2."""
    if g.order < 2:
        raise ValueError(f"pair graph needs base order >= 2, got {g.order}")
    return _build(g, 2, MULTISET)


def _build(g: Graph, k: int, kind: str) -> DerivedGraph:
    """The graph on the k-subsets (``SUBSET``) or k-multisets
    (``MULTISET``) of V(g) with S + x ~ S + y for each edge xy of g: each
    edge zips its two rank lists from the move table of (n, k, kind),
    which fills them the first time any build meets that edge."""
    n = g.order
    fill, moves = _move_table(n, k, kind)
    masks = [0] * comb(n + (k - 1 if kind == MULTISET else 0), k)
    for x, y in _edge_pairs(g.adjacency_masks):
        pair = moves.get((x, y))
        if pair is None:
            pair = moves[x, y] = fill(x, y)
        for i, j in zip(*pair):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return DerivedGraph(Graph._from_masks(masks), kind, k, n)


@lru_cache(maxsize=_MOVE_TABLES)
def _move_table(n: int, k: int, kind: str) -> tuple[Callable, dict[tuple[int, int], tuple]]:
    """The move table of the k-subsets (``SUBSET``) or, at k = 2, the
    2-multisets (``MULTISET``) of 1..n, one of the last ``_MOVE_TABLES``
    (n, k, kind) asked for: a fill that gives, for a pair x < y, the
    0-based ranks of the tokens S + x and of the tokens S + y, paired S by
    S over the (k-1)-tokens S that both x and y can join, and the dict of
    the pairs filled so far. It depends on n, k and the kind alone, never on
    a graph, so it outlives the builds."""
    if k == 2:
        diagonal = kind == MULTISET
        start = _pair_starts(n, diagonal)
        # ranks[x - 1] lists the tokens {s, x} in order of s = 1..n, s = x
        # only with the diagonal
        ranks = [[start[s] + x for s in range(1, x + diagonal)] + [start[x] + s for s in range(x + 1, n + 1)]
                 for x in range(1, n + 1)]

        def fill(x: int, y: int) -> tuple[list[int], list[int]]:
            ax, ay = ranks[x - 1], ranks[y - 1]
            if diagonal:
                return ax, ay
            # x < y: x's list holds {x, y} at s = y, y's holds it at s = x
            return ax[:y - 2] + ax[y - 1:], ay[:x - 1] + ay[x:]
    else:
        # holders[x - 1] is the set of ranks of the k-subsets holding x
        holders = [set() for _ in range(n)]
        for rank, token in enumerate(combinations(holders, k)):
            for holder in token:
                holder.add(rank)

        def fill(x: int, y: int) -> tuple[list[int], list[int]]:
            # hx - hy ranks the tokens S + x and hy - hx the tokens S + y;
            # adding x (or y) to each S keeps the lexicographic order of
            # the S, so the two sorted lists pair up S by S
            hx, hy = holders[x - 1], holders[y - 1]
            return sorted(hx - hy), sorted(hy - hx)
    return fill, {}


def _pair_starts(n: int, diagonal: bool) -> list[int]:
    """The rank table of the 2-multisets (``diagonal``) or 2-subsets of
    1..n that ``_move_table`` and ``indices_of`` share: {a, b} with
    a <= b is vertex ``start[a] + b``, 0-based."""
    # As a multiset, the (a - 1)(2n + 2 - a) / 2 multisets {a', .} with
    # a' < a come first, then {a, a} .. {a, b}. As a subset (a < b) it
    # loses the a diagonal vertices {1, 1} .. {a, a} before it:
    # (a - 1)(2n - a) / 2 + b - a - 1.
    return [(a - 1) * (2 * n - a) // 2 - 1 - (0 if diagonal else a) for a in range(n + 1)]

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
general way.

Vertex i of a derived graph is the i-th k-subset or k-multiset of
1..n in lexicographic order, so a derived graph stores only its kind, k
and n. ``indices_of`` ranks tokens arithmetically (``index_of`` is its
one-token case) and the ``labels`` tuple is built only when something
iterates it; vertex sets move between the index and token views
through these. ``pair_ranks`` ranks plain ``(a, b)`` pairs on a double
vertex or pair graph from the rank table its builder uses, so a set of
2-element tokens can be ranked without building a ``TokenVertex``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb
from operator import ge, gt

from .graphs import Graph, _edge_pairs

SUBSET = "subset"
MULTISET = "multiset"


@dataclass(frozen=True, slots=True)
class TokenVertex:
    """A sorted tuple of base-graph vertices used as a vertex label.

    ``subset`` kind requires strictly increasing elements; ``multiset``
    allows repeats. Double vertex and pair graphs label with pairs, but
    k-token labels of any size are supported.
    """

    kind: str
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in (SUBSET, MULTISET):
            raise ValueError(f"unknown token kind {self.kind!r}")
        if not self.elements:
            raise ValueError("token needs at least one element")
        elements = self.elements
        if type(elements) is not tuple:
            elements = tuple(elements)
            object.__setattr__(self, "elements", elements)
        # subset elements strictly increase, multiset elements never decrease
        if any(map(ge if self.kind == SUBSET else gt, elements, elements[1:])):
            raise ValueError(f"elements {elements} invalid for {self.kind} token")

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements) + "}"


def subset_token(*elements: int) -> TokenVertex:
    return TokenVertex(SUBSET, tuple(sorted(elements)))


def multiset_token(*elements: int) -> TokenVertex:
    return TokenVertex(MULTISET, tuple(sorted(elements)))


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
    def labels(self) -> tuple[TokenVertex, ...]:
        choose = combinations if self.kind == SUBSET else combinations_with_replacement
        return tuple(
            TokenVertex(self.kind, combo)
            for combo in choose(range(1, self.base_order + 1), self.k)
        )

    def __repr__(self) -> str:
        return f"DerivedGraph(order={self.graph.order}, base_order={self.base_order}, kind={self.kind})"


def token_label_of(dg: DerivedGraph, index: int) -> TokenVertex:
    """Token label of a vertex index (1-based)."""
    if not (1 <= index <= dg.graph.order):
        raise ValueError(f"vertex index {index} out of range 1..{dg.graph.order}")
    return dg.labels[index - 1]


def index_of(dg: DerivedGraph, token: TokenVertex) -> int:
    """Vertex index (1-based) of a token label, its lexicographic rank;
    tokens that are not labels here are rejected."""
    (rank,) = indices_of(dg, (token,))
    return rank


def indices_of(dg: DerivedGraph, tokens) -> frozenset[int]:
    """Vertex indices (1-based) of the token labels in ``tokens``, each
    ranked as ``index_of`` ranks it; a token that is not a label here is
    rejected."""
    n, k, kind = dg.base_order, dg.k, dg.kind
    # combinatorial number system: the k-subsets after e are those that
    # first exceed it at some position i, comb(n - e_i, k - i) for each i.
    # A k-multiset is the k-subset e_i + i of 1..n+k-1, so there the pool
    # top n+k-1 and the shift i together shrink n - e_i by one per position.
    shrink = kind == MULTISET
    top = n + shrink * (k - 1)
    last = comb(top, k)
    ranks = []
    for token in tokens:
        e = token.elements
        if token.kind != kind or len(e) != k or e[0] < 1 or e[-1] > n:
            raise ValueError(f"token {token} ({token.kind}) is not a vertex label here")
        rank, pool, j = last, top, k
        for x in e:
            rank -= comb(pool - x, j)
            pool -= shrink
            j -= 1
        ranks.append(rank)
    return frozenset(ranks)


def pair_ranks(dg: DerivedGraph, pairs) -> frozenset[int]:
    """Vertex indices (1-based) of the pairs ``(a, b)`` in ``pairs``, the
    tokens {a, b} of a double vertex or pair graph, ranked as
    ``indices_of`` ranks them, with no token built. A pair that is not a
    label here, and any graph with k != 2, is rejected."""
    if dg.k != 2:
        raise ValueError(f"pair_ranks needs a graph on 2-element tokens, got k = {dg.k}")
    n, kind = dg.base_order, dg.kind
    diagonal = kind == MULTISET
    start = _pair_starts(n, diagonal)
    ranks = []
    for a, b in pairs:
        # 1 <= a < b <= n for a subset, 1 <= a <= b <= n for a multiset
        if not 1 <= a < b + diagonal <= n + diagonal:
            raise ValueError(f"pair {(a, b)} is not a {kind} vertex label here")
        ranks.append(start[a] + b + 1)
    return frozenset(ranks)


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
    difference of the two subsets is exactly one edge of g."""
    if not (1 <= k <= g.order):
        raise ValueError(f"k must satisfy 1 <= k <= {g.order}, got {k}")
    # a k-subset is indexed by its bitmask, bit x-1 standing for vertex x,
    # so a move x -> y is two ORs and a lookup
    bits = [1 << x for x in range(g.order)]
    index = {sum(combo): i for i, combo in enumerate(combinations(bits, k))}
    masks = [0] * len(index)
    for x, y in _edge_pairs(g.adjacency_masks):
        bx, by = bits[x - 1], bits[y - 1]
        movable = [b for b in bits if b != bx and b != by]
        for stay in map(sum, combinations(movable, k - 1)):
            i, j = index[stay | bx], index[stay | by]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return DerivedGraph(Graph._from_masks(masks), SUBSET, k, g.order)


def pair_graph(g: Graph) -> DerivedGraph:
    """Graph on all 2-multisets of V(g); {a,x} ~ {a,y} iff xy is an edge
    of g. Needs g.order >= 2."""
    if g.order < 2:
        raise ValueError(f"pair graph needs base order >= 2, got {g.order}")
    return _pair_tokens(g, MULTISET)


def _pair_starts(n: int, diagonal: bool) -> list[int]:
    """The rank table of the 2-multisets (``diagonal``) or 2-subsets of
    1..n that ``_pair_tokens`` and ``pair_ranks`` share: {a, b} with
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

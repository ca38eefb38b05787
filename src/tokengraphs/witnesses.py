"""Explicit structured vertex sets and independent-set constructions for
the derived graphs of paths, cycles, fans and wheels.

The building blocks:

* ``l_set(m, q)``: the q multiset vertices {j, m-(q-j)} of the cycle pair
  graph; the m slices partition its vertex set and all but one of them
  are independent.
* ``r_set_dv`` / ``r_set_pair``: all tokens containing a fixed base
  vertex; deleting such a slice realizes base-vertex deletion at the
  token level. The apex tokens of a fan or wheel on m base vertices are
  the slice through its apex, ``r_set_*(m + 1, m + 1)``.
* parity witnesses: odd-coordinate-sum token sets for path double vertex
  graphs, even-sum multiset sets for path pair graphs, unions of
  alternating l_set slices for cycle pair graphs, and their
  apex-augmented fan/wheel variants.
* ``phi``: the index shift {i, j} -> {i, j+1} that carries the pair graph
  of P_n onto the double vertex graph of P_{n+1}. The path pair witness
  is built directly; a test checks that it is the path double vertex
  witness on m+1 vertices pulled back through ``phi_inverse``.

Every set here is a plain ``tuple[TokenVertex, ...]``; ``indices_of``
turns one into vertex indices of a derived graph. Each ``*_witness_tokens``
function takes every m its family's formula accepts, raises ``ValueError``
at exactly the m the formula rejects, and returns a set independent in
the derived graph and sized exactly at the closed form. Only
``dv_wheel_witness_tokens`` is not a pure construction: from m = 4 it
reads the tokens of ``dv_wheel_witness``, the solver's ``IndependentSet``
of the apex-free part of the graph, found by ``mis.alpha`` with the apex
tokens ``r_set_dv(m + 1, m + 1)`` avoided.
"""

from __future__ import annotations

from .graphs import _edge_pairs, _require, cycle, path, wheel
from .mis import IndependentSet, alpha
from .operators import (
    MULTISET,
    SUBSET,
    TokenVertex,
    double_vertex,
    index_of,
    indices_of,
    multiset_token,
    pair_graph,
    subset_token,
)

# ---------------------------------------------------------------------------
# structured slices


def _check_l_args(m: int, q: int) -> None:
    _require("l_set", m, 3)
    if not (1 <= q <= m):
        raise ValueError(f"l_set needs 1 <= q <= {m}, got {q}")


def l_set(m: int, q: int) -> tuple[TokenVertex, ...]:
    """Slice q of the cycle pair graph on base C_m: the multisets
    {j, m-(q-j)} for j = 1..q. Slice q has q members; the m slices
    partition all 2-multisets of 1..m."""
    _check_l_args(m, q)
    return tuple(multiset_token(j, m - (q - j)) for j in range(1, q + 1))


def l_is_independent_expected(m: int, q: int) -> bool:
    """Predicted independence of l_set(m, q): the only dependent slice
    is q = (m+1)/2 for odd m (equivalently m = 2q-1, 2 <= q <= m-1)."""
    _check_l_args(m, q)
    return not (m == 2 * q - 1 and 2 <= q <= m - 1)


def r_set_dv(m: int, q: int) -> tuple[TokenVertex, ...]:
    """All 2-subsets of 1..m containing q (m-1 tokens). Deleting them
    from the double vertex graph of P_m realizes deleting q from P_m."""
    _require("r_set_dv", m, 2)
    if not (1 <= q <= m):
        raise ValueError(f"r_set_dv needs 1 <= q <= {m}, got {q}")
    return tuple(subset_token(q, i) for i in range(1, m + 1) if i != q)


def r_set_pair(m: int, i: int) -> tuple[TokenVertex, ...]:
    """All 2-multisets {i, j} with j = 1..m (m tokens, diagonal included)."""
    _require("r_set_pair", m, 1)
    if not (1 <= i <= m):
        raise ValueError(f"r_set_pair needs 1 <= i <= {m}, got {i}")
    return tuple(multiset_token(i, j) for j in range(1, m + 1))


# ---------------------------------------------------------------------------
# linking


def linking_profile(m: int) -> frozenset[tuple[int, int]]:
    """All pairs (i, j), i <= j, with an edge of the cycle pair graph
    between l_set slice i and slice j. A pair (q, q) records a slice
    that is not independent."""
    dg = pair_graph(cycle(m))
    slice_of = {}
    for q in range(1, m + 1):
        for tok in l_set(m, q):
            slice_of[index_of(dg, tok)] = q
    pairs = set()
    for u, v in _edge_pairs(dg.graph.adjacency_masks):
        i, j = slice_of[u], slice_of[v]
        pairs.add((i, j) if i <= j else (j, i))
    return frozenset(pairs)


def predicted_linking_profile(m: int) -> frozenset[tuple[int, int]]:
    """The closed-form linking pattern: consecutive slices, plus the
    mirror pairs (i, m-i+1) for i = 1..m-1."""
    pairs = {(i, i + 1) for i in range(1, m)}
    for i in range(1, m):
        j = m - i + 1
        pairs.add((i, j) if i <= j else (j, i))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# witness constructions


def pair_cycle_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Union of alternating l_set slices achieving alpha on the cycle
    pair graph: the even slices for even m; for odd m = 2k+1, the even
    slices up to k and the odd ones from k+2, which skips the dependent
    middle slice k+1."""
    _require("pair_cycle_witness", m, 3)
    if m % 2 == 0:
        picks = range(2, m + 1, 2)
    else:
        k = m // 2
        picks = [*range(2, k + 1, 2), *(q for q in range(k + 2, m + 1) if q % 2)]
    tokens: list[TokenVertex] = []
    for q in picks:
        tokens.extend(l_set(m, q))
    return tuple(tokens)


def dv_path_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """All 2-subsets {i, j} of 1..m with i + j odd. Moving one token
    along a path edge flips the parity of the sum, so the set is
    independent in the double vertex graph; its size is floor(m^2/4)."""
    _require("dv_path_witness", m, 2)
    return tuple(
        subset_token(i, j)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
        if (i + j) % 2 == 1
    )


def dv_fan_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Odd-sum 2-subsets of the base path inside the fan double vertex
    graph. The degenerate m = 1 fan is a single token {1, 2}."""
    _require("dv_fan_witness", m, 1)
    if m == 1:
        return (subset_token(1, 2),)
    return dv_path_witness_tokens(m)


def pair_path_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """All 2-multisets {i, j} of 1..m with i + j even, the image of the
    odd-sum witness of the path double vertex graph on m+1 vertices
    under phi_inverse, in the same order (a test checks the pull-back).
    Moving one token along a path edge flips the parity of the sum."""
    _require("pair_path_witness", m, 1)
    return tuple(TokenVertex(MULTISET, (i, j)) for i in range(1, m + 1) for j in range(i, m + 1, 2))


def pair_fan_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Path pair witness plus the apex diagonal {m+1, m+1}, which shares
    no element with any base-only token."""
    _require("pair_fan_witness", m, 1)
    return pair_path_witness_tokens(m) + (multiset_token(m + 1, m + 1),)


def pair_wheel_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Cycle pair witness plus the apex diagonal {m+1, m+1}."""
    _require("pair_wheel_witness", m, 3)
    return pair_cycle_witness_tokens(m) + (multiset_token(m + 1, m + 1),)


def dv_wheel_witness(m: int) -> IndependentSet:
    """Solver-extracted maximum independent set of the apex-free part of
    the wheel double vertex graph: ``alpha`` avoiding the apex tokens
    ``r_set_dv(m + 1, m + 1)``, in the labels of the whole graph (no
    closed-form construction is available for cycle double vertex graphs
    here).

    For m >= 4 its size equals the wheel closed form. For m = 3 the
    apex-free part is a triangle, so the witness has size 1 while the
    full graph reaches 2; ``dv_wheel_witness_tokens`` covers that m.
    """
    _require("dv_wheel_witness", m, 3)
    dg = double_vertex(wheel(m))
    return alpha(dg.graph, avoid=indices_of(dg, r_set_dv(m + 1, m + 1))).witness


def dv_wheel_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """A maximum independent set of the wheel double vertex graph, sized
    at ``formulas.dv_wheel(m)`` for every m >= 3: {1,2}, {3,4} at m = 3,
    the tokens of ``dv_wheel_witness`` from m = 4."""
    _require("dv_wheel_witness", m, 3)
    if m == 3:
        # F2(W_3) = F2(K_4), where two disjoint 2-subsets are non-adjacent
        return (subset_token(1, 2), subset_token(3, 4))
    dg = double_vertex(wheel(m))
    witness = dv_wheel_witness(m)
    return tuple(dg.labels[v - 1] for v in sorted(witness.members))


# ---------------------------------------------------------------------------
# the path shift isomorphism


def phi(token: TokenVertex) -> TokenVertex:
    """Shift the larger element up by one: multiset {i, j} with i <= j
    maps to the 2-subset {i, j+1}."""
    if token.kind != MULTISET or len(token.elements) != 2:
        raise ValueError(f"phi expects a 2-multiset token, got {token}")
    i, j = token.elements
    return subset_token(i, j + 1)


def phi_inverse(token: TokenVertex) -> TokenVertex:
    """Shift the larger element down by one: 2-subset {a, b} with a < b
    maps back to the multiset {a, b-1}."""
    if token.kind != SUBSET or len(token.elements) != 2:
        raise ValueError(f"phi_inverse expects a 2-subset token, got {token}")
    a, b = token.elements
    return multiset_token(a, b - 1)


def phi_edge_image(m: int) -> tuple[frozenset, frozenset]:
    """Image of the pair graph edges of P_m under phi, next to the edge
    set of the double vertex graph of P_{m+1}, both as sets of index
    pairs of the target graph. Equality certifies the isomorphism."""
    source = pair_graph(path(m))
    target = double_vertex(path(m + 1))
    mapped = set()
    for u, v in source.graph.edges:
        a = index_of(target, phi(source.labels[u - 1]))
        b = index_of(target, phi(source.labels[v - 1]))
        mapped.add((a, b) if a < b else (b, a))
    return frozenset(mapped), frozenset(target.graph.edges)

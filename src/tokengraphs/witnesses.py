"""Explicit structured vertex sets and independent-set constructions for
the derived graphs of paths, cycles, fans and wheels.

The building blocks:

* ``l_set(m, q)``: the q multiset vertices {j, m-(q-j)} of the cycle pair
  graph; the m slices partition its vertex set and all but one of them
  are independent.
* ``r_set_dv`` / ``r_set_pair``: all tokens containing a fixed base
  vertex; deleting such a slice realizes base-vertex deletion at the
  token level.
* ``b_set_dv`` / ``b_set_pair``: the tokens containing the apex of a fan
  or wheel.
* parity witnesses: odd-coordinate-sum token sets for path double vertex
  graphs, unions of alternating l_set slices for cycle pair graphs, and
  their apex-augmented fan/wheel variants.
* ``phi``: the index shift {i, j} -> {i, j+1} that carries the pair graph
  of P_n onto the double vertex graph of P_{n+1}.

Every set here is a plain ``tuple[TokenVertex, ...]``; ``indices_of``
turns one into vertex indices of a derived graph. Each ``*_witness_tokens``
construction is independent in the derived graph of its family and sized
exactly at the matching closed form. The one exception is
``dv_wheel_witness``: no construction is known for it, so it returns the
solver's ``IndependentSet`` of the apex-free part of the graph, found by
``mis.alpha`` with the apex tokens ``b_set_dv`` avoided.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import Graph, cycle, path, wheel
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


def l_set(m: int, q: int) -> tuple[TokenVertex, ...]:
    """Slice q of the cycle pair graph on base C_m: the multisets
    {j, m-(q-j)} for j = 1..q. Slice q has q members; the m slices
    partition all 2-multisets of 1..m."""
    if m < 3:
        raise ValueError(f"l_set needs m >= 3, got {m}")
    if not (1 <= q <= m):
        raise ValueError(f"l_set needs 1 <= q <= {m}, got {q}")
    return tuple(multiset_token(j, m - (q - j)) for j in range(1, q + 1))


def l_is_independent_expected(m: int, q: int) -> bool:
    """Predicted independence of l_set(m, q): the only dependent slice
    is q = (m+1)/2 for odd m (equivalently m = 2q-1, 2 <= q <= m-1)."""
    if m < 3:
        raise ValueError(f"l_set needs m >= 3, got {m}")
    if not (1 <= q <= m):
        raise ValueError(f"l_set needs 1 <= q <= {m}, got {q}")
    return not (m == 2 * q - 1 and 2 <= q <= m - 1)


def r_set_dv(m: int, q: int) -> tuple[TokenVertex, ...]:
    """All 2-subsets of 1..m containing q (m-1 tokens). Deleting them
    from the double vertex graph of P_m realizes deleting q from P_m."""
    if m < 2:
        raise ValueError(f"r_set_dv needs m >= 2, got {m}")
    if not (1 <= q <= m):
        raise ValueError(f"r_set_dv needs 1 <= q <= {m}, got {q}")
    return tuple(subset_token(q, i) for i in range(1, m + 1) if i != q)


def r_set_pair(m: int, i: int) -> tuple[TokenVertex, ...]:
    """All 2-multisets {i, j} with j = 1..m (m tokens, diagonal included)."""
    if m < 1:
        raise ValueError(f"r_set_pair needs m >= 1, got {m}")
    if not (1 <= i <= m):
        raise ValueError(f"r_set_pair needs 1 <= i <= {m}, got {i}")
    return tuple(multiset_token(i, j) for j in range(1, m + 1))


def b_set_dv(m: int) -> tuple[TokenVertex, ...]:
    """The apex tokens {a, m+1} of the double vertex graph of a fan or
    wheel on base vertices 1..m with apex m+1."""
    if m < 1:
        raise ValueError(f"b_set_dv needs m >= 1, got {m}")
    return tuple(subset_token(a, m + 1) for a in range(1, m + 1))


def b_set_pair(m: int) -> tuple[TokenVertex, ...]:
    """The apex tokens {i, m+1}, i = 1..m+1, of the pair graph of a fan
    or wheel (the apex diagonal {m+1, m+1} included)."""
    if m < 1:
        raise ValueError(f"b_set_pair needs m >= 1, got {m}")
    return tuple(multiset_token(i, m + 1) for i in range(1, m + 2))


# ---------------------------------------------------------------------------
# linking


def linked(g: Graph, a: Iterable[int], b: Iterable[int]) -> bool:
    """True iff some edge of g joins a vertex of a to a vertex of b."""
    set_a = set(a)
    set_b = set(b)
    return any(
        (u in set_a and v in set_b) or (u in set_b and v in set_a)
        for u, v in g.edges
    )


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
    for u, v in dg.graph.edges:
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
    pair graph. Even m uses every even slice. Odd m = 2k+1 skips the
    dependent middle slice: for odd k the union is slices 2, 4, ..,
    k-1, k+2, k+4, .., 2k+1; for even k it is 2, 4, .., k, k+3, .., 2k+1;
    and m = 3 degenerates to the diagonal slice alone."""
    if m < 3:
        raise ValueError(f"pair_cycle_witness needs m >= 3, got {m}")
    if m == 3:
        picks = [3]
    elif m % 2 == 0:
        picks = list(range(2, m + 1, 2))
    else:
        k = m // 2
        if k % 2 == 1:
            picks = list(range(2, k, 2)) + list(range(k + 2, m + 1, 2))
        else:
            picks = list(range(2, k + 1, 2)) + list(range(k + 3, m + 1, 2))
    tokens: list[TokenVertex] = []
    for q in picks:
        tokens.extend(l_set(m, q))
    return tuple(tokens)


def dv_path_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """All 2-subsets {i, j} of 1..m with i + j odd. Moving one token
    along a path edge flips the parity of the sum, so the set is
    independent in the double vertex graph; its size is floor(m^2/4)."""
    if m < 2:
        raise ValueError(f"dv_path_witness needs m >= 2, got {m}")
    return tuple(
        subset_token(i, j)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
        if (i + j) % 2 == 1
    )


def dv_fan_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Odd-sum 2-subsets of the base path inside the fan double vertex
    graph. The degenerate m = 1 fan is a single token {1, 2}."""
    if m < 1:
        raise ValueError(f"dv_fan_witness needs m >= 1, got {m}")
    if m == 1:
        return (subset_token(1, 2),)
    return dv_path_witness_tokens(m)


def pair_path_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """The odd-sum witness of the path double vertex graph on m+1
    vertices pulled back through phi_inverse."""
    if m < 1:
        raise ValueError(f"pair_path_witness needs m >= 1, got {m}")
    return tuple(phi_inverse(tok) for tok in dv_path_witness_tokens(m + 1))


def pair_fan_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Path pair witness plus the apex diagonal {m+1, m+1}, which shares
    no element with any base-only token."""
    if m < 1:
        raise ValueError(f"pair_fan_witness needs m >= 1, got {m}")
    return pair_path_witness_tokens(m) + (multiset_token(m + 1, m + 1),)


def pair_wheel_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
    """Cycle pair witness plus the apex diagonal {m+1, m+1}."""
    if m < 3:
        raise ValueError(f"pair_wheel_witness needs m >= 3, got {m}")
    return pair_cycle_witness_tokens(m) + (multiset_token(m + 1, m + 1),)


def dv_wheel_witness(m: int) -> IndependentSet:
    """Solver-extracted maximum independent set of the apex-free part of
    the wheel double vertex graph: ``alpha`` avoiding every apex token
    of ``b_set_dv(m)``, in the labels of the whole graph (no closed-form
    construction is available for cycle double vertex graphs here).

    For m >= 4 its size equals the wheel closed form. For m = 3 the
    apex-free part is a triangle, so the witness has size 1 while the
    full graph reaches 2 through an apex token; callers wanting the full
    value should solve the whole graph.
    """
    if m < 3:
        raise ValueError(f"dv_wheel_witness needs m >= 3, got {m}")
    dg = double_vertex(wheel(m))
    return alpha(dg.graph, avoid=indices_of(dg, b_set_dv(m))).witness


def dv_wheel_witness_tokens(m: int) -> tuple[TokenVertex, ...]:
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

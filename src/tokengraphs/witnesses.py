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
* the cycle double vertex witness: the tokens at odd cyclic distance
  below floor(m/2), plus half of the top distance class when floor(m/2)
  is odd. It uses no apex token, so it serves the wheel too.
* ``phi``: the index shift a_i -> a_i + (i - 1) from k-multisets to
  k-subsets; at k = 2 it is {i, j} -> {i, j+1}, which carries the pair
  graph of P_n onto the double vertex graph of P_{n+1} keeping every
  vertex index. The path pair witness is built directly; a test checks
  that it is the path double vertex witness on m+1 vertices pulled back
  through ``phi_inverse``.

Every set here is a plain tuple of ``(a, b)`` int pairs with a <= b
(a < b for 2-subsets), the token {a, b}; ``operators.indices_of`` turns
one into vertex indices of a derived graph by arithmetic. Each
``*_witness_pairs`` function takes every m its family's formula
accepts, raises ``ValueError`` at exactly the m the formula rejects,
and returns a set independent in the derived graph and sized exactly at
the closed form. From m = 4
``dv_wheel_witness_pairs`` returns the cycle witness, yet it still
builds the wheel double vertex graph and runs ``dv_wheel_witness``, a
solve of its apex-free part that starts from that witness and closes
at the root; ``bench/test_bench.py`` pins that build and that solve.
"""

from __future__ import annotations

from operator import ge, gt

from .graphs import _edge_pairs, _require, cycle, path, wheel
from .mis import IndependentSet, alpha
from .operators import double_vertex, indices_of, pair_graph

Pairs = tuple[tuple[int, int], ...]  # tokens {a, b} as (a, b), a <= b

# ---------------------------------------------------------------------------
# structured slices


def _check_l_args(m: int, q: int) -> None:
    _require("l_set", m, 3)
    if not (1 <= q <= m):
        raise ValueError(f"l_set needs 1 <= q <= {m}, got {q}")


def l_set(m: int, q: int) -> Pairs:
    """Slice q of the cycle pair graph on base C_m: the multisets
    {j, m-(q-j)} for j = 1..q. Slice q has q members; the m slices
    partition all 2-multisets of 1..m."""
    _check_l_args(m, q)
    return tuple((j, m - (q - j)) for j in range(1, q + 1))


def l_is_independent_expected(m: int, q: int) -> bool:
    """Predicted independence of l_set(m, q): the only dependent slice
    is q = (m+1)/2 for odd m (equivalently m = 2q-1, 2 <= q <= m-1)."""
    _check_l_args(m, q)
    return not (m == 2 * q - 1 and 2 <= q <= m - 1)


def r_set_dv(m: int, q: int) -> Pairs:
    """All 2-subsets of 1..m containing q (m-1 tokens). Deleting them
    from the double vertex graph of P_m realizes deleting q from P_m."""
    _require("r_set_dv", m, 2)
    if not (1 <= q <= m):
        raise ValueError(f"r_set_dv needs 1 <= q <= {m}, got {q}")
    return (*((i, q) for i in range(1, q)), *((q, i) for i in range(q + 1, m + 1)))


def r_set_pair(m: int, i: int) -> Pairs:
    """All 2-multisets {i, j} with j = 1..m (m tokens, diagonal included)."""
    _require("r_set_pair", m, 1)
    if not (1 <= i <= m):
        raise ValueError(f"r_set_pair needs 1 <= i <= {m}, got {i}")
    return (*((j, i) for j in range(1, i)), *((i, j) for j in range(i, m + 1)))


# ---------------------------------------------------------------------------
# linking


def linking_profile(m: int) -> frozenset[tuple[int, int]]:
    """All pairs (i, j), i <= j, with an edge of the cycle pair graph
    between l_set slice i and slice j. A pair (q, q) records a slice
    that is not independent."""
    dg = pair_graph(cycle(m))
    slice_of = {}
    for q in range(1, m + 1):
        for v in indices_of(dg, l_set(m, q)):
            slice_of[v] = q
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


def pair_cycle_witness_pairs(m: int) -> Pairs:
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
    pairs: list[tuple[int, int]] = []
    for q in picks:
        pairs.extend(l_set(m, q))
    return tuple(pairs)


def dv_path_witness_pairs(m: int) -> Pairs:
    """All 2-subsets {i, j} of 1..m with i + j odd. Moving one token
    along a path edge flips the parity of the sum, so the set is
    independent in the double vertex graph; its size is floor(m^2/4)."""
    _require("dv_path_witness", m, 2)
    return tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1, 2))


def dv_fan_witness_pairs(m: int) -> Pairs:
    """Odd-sum 2-subsets of the base path inside the fan double vertex
    graph. The degenerate m = 1 fan is a single token {1, 2}."""
    _require("dv_fan_witness", m, 1)
    if m == 1:
        return ((1, 2),)
    return dv_path_witness_pairs(m)


def pair_path_witness_pairs(m: int) -> Pairs:
    """All 2-multisets {i, j} of 1..m with i + j even, the image of the
    odd-sum witness of the path double vertex graph on m+1 vertices
    under phi_inverse, in the same order (a test checks the pull-back).
    Moving one token along a path edge flips the parity of the sum."""
    _require("pair_path_witness", m, 1)
    return tuple((i, j) for i in range(1, m + 1) for j in range(i, m + 1, 2))


def pair_fan_witness_pairs(m: int) -> Pairs:
    """Path pair witness plus the apex diagonal {m+1, m+1}, which shares
    no element with any base-only token."""
    _require("pair_fan_witness", m, 1)
    return pair_path_witness_pairs(m) + ((m + 1, m + 1),)


def pair_wheel_witness_pairs(m: int) -> Pairs:
    """Cycle pair witness plus the apex diagonal {m+1, m+1}."""
    _require("pair_wheel_witness", m, 3)
    return pair_cycle_witness_pairs(m) + ((m + 1, m + 1),)


def dv_cycle_witness_pairs(m: int) -> Pairs:
    """Every 2-subset {a, b} of 1..m at odd cyclic distance d < j, with
    j = floor(m/2), plus the j tokens {a, a + j}, a = 1..j, when j is
    odd; its size is floor(m * j / 2). Moving one token of a pair at
    distance d < j along a cycle edge changes d by exactly one, so two
    chosen pairs can be adjacent only if both lie at distance j. Those
    are m/2 disjoint pairs for even m; for odd m = 2j + 1 they form an
    m-cycle, and the j chosen ones are disjoint. The set uses no apex
    token, so it is independent in the wheel double vertex graph too,
    at size ``formulas.dv_wheel(m)`` from m = 4."""
    _require("dv_cycle_witness", m, 3)
    j = m // 2
    pairs: list[tuple[int, int]] = []
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            d = min(b - a, m - b + a)
            if (d % 2 and d < j) or (j % 2 and b - a == j and a <= j):
                pairs.append((a, b))
    return tuple(pairs)


def dv_wheel_witness(m: int) -> IndependentSet:
    """Maximum independent set of the apex-free part of the wheel double
    vertex graph: ``alpha`` avoiding the apex tokens
    ``r_set_dv(m + 1, m + 1)``, started from ``dv_cycle_witness_pairs(m)``
    as its incumbent, so its root closes at once, in the vertex indices
    of the whole graph.

    For m >= 4 its size equals the wheel closed form. For m = 3 the
    apex-free part is a triangle, so the witness has size 1 while the
    full graph reaches 2; ``dv_wheel_witness_pairs`` covers that m.
    """
    _require("dv_wheel_witness", m, 3)
    dg = double_vertex(wheel(m))
    return alpha(dg.graph, avoid=indices_of(dg, r_set_dv(m + 1, m + 1)),
                 incumbent=indices_of(dg, dv_cycle_witness_pairs(m))).witness


def dv_wheel_witness_pairs(m: int) -> Pairs:
    """A maximum independent set of the wheel double vertex graph, sized
    at ``formulas.dv_wheel(m)`` for every m >= 3: {1,2}, {3,4} at m = 3,
    ``dv_cycle_witness_pairs(m)`` from m = 4."""
    _require("dv_wheel_witness", m, 3)
    if m == 3:
        # F2(W_3) = F2(K_4), where two disjoint 2-subsets are non-adjacent
        return ((1, 2), (3, 4))
    # this build and the solve change nothing returned; they stay while
    # bench/test_bench.py pins them at dv_wheel(6)
    double_vertex(wheel(m))
    dv_wheel_witness(m)
    return dv_cycle_witness_pairs(m)


# ---------------------------------------------------------------------------
# the path shift isomorphism


def phi(token: tuple[int, ...]) -> tuple[int, ...]:
    """Shift the i-th element up by i - 1: the k-multiset a_1 <= .. <= a_k
    of 1..n maps to the k-subset {a_i + i - 1} of 1..n+k-1, keeping its
    lexicographic rank. At k = 2, {i, j} maps to {i, j+1}."""
    if any(map(gt, token, token[1:])):
        raise ValueError(f"phi expects a non-decreasing tuple, got {token}")
    return tuple(a + i for i, a in enumerate(token))


def phi_inverse(token: tuple[int, ...]) -> tuple[int, ...]:
    """Shift the i-th element down by i - 1: the k-subset a_1 < .. < a_k
    maps back to the k-multiset {a_i - i + 1}."""
    if any(map(ge, token, token[1:])):
        raise ValueError(f"phi_inverse expects a strictly increasing tuple, got {token}")
    return tuple(a - i for i, a in enumerate(token))


def phi_edge_image(m: int) -> tuple[frozenset, frozenset]:
    """Image of the pair graph edges of P_m under phi, next to the edge
    set of the double vertex graph of P_{m+1}, both as sets of index
    pairs of the target graph. Equality certifies the isomorphism.
    ``phi`` keeps each token's rank, so it maps vertex i to vertex i and
    the image is the source's own edge set."""
    source = pair_graph(path(m))
    target = double_vertex(path(m + 1))
    return frozenset(source.graph.edges), frozenset(target.graph.edges)

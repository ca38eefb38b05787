"""Exact maximum independent set computation.

Two independent routes are provided on purpose:

* ``brute_force_alpha``: plain recursive include/exclude enumeration in
  ascending vertex order with only the trivial remaining-vertices bound.
  It is the oracle; it stays simple so it can be trusted.
* ``alpha``: branch and bound. Branches on a maximum-degree vertex
  (lowest index on ties), include branch first, greedy clique cover as
  the upper bound, a minimum-degree greedy incumbent (bucket queue,
  lowest index on ties), isolated/pendant-vertex reductions between
  branchings, and connected components of the residual graph solved
  separately at the root of each search.

Both are exact and deterministic: repeated runs return the same size and
the same witness. All bookkeeping is done on Python-int bitmasks, bit i
standing for vertex i+1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import Graph, delete_vertices

BRUTE_FORCE_CAP = 26


class SolveAborted(RuntimeError):
    """Raised when a solve exceeds its optional time budget."""


@dataclass(frozen=True)
class IndependentSet:
    """A set of vertex indices claimed independent in some graph."""

    order: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        for v in self.members:
            if not (1 <= v <= self.order):
                raise ValueError(f"member {v} out of range 1..{self.order}")

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MisResult:
    alpha: int
    witness: IndependentSet
    nodes: int
    elapsed: float  # seconds


def is_independent(g: Graph, members) -> bool:
    """True iff no edge of g has both endpoints in ``members``."""
    member_set = set(members)
    for v in member_set:
        if not (1 <= v <= g.order):
            raise ValueError(f"vertex {v} out of range 1..{g.order}")
    return not any(u in member_set and v in member_set for u, v in g.edges)


def _mask_to_set(mask: int) -> frozenset[int]:
    members = set()
    while mask:
        bit = mask & -mask
        members.add(bit.bit_length())
        mask ^= bit
    return frozenset(members)


def brute_force_alpha(g: Graph, cap: int = BRUTE_FORCE_CAP) -> MisResult:
    """Exact alpha by exhaustive include/exclude enumeration.

    Rejects graphs above ``cap`` vertices; use ``alpha`` for those.
    """
    if g.order > cap:
        raise ValueError(
            f"order {g.order} exceeds the brute-force cap {cap}; use alpha() instead"
        )
    if g.order < 1:
        raise ValueError("brute_force_alpha needs a non-empty graph")
    adj = g.adjacency_masks
    start = time.perf_counter()
    best = 0
    best_mask = 0
    nodes = 0

    def explore(mask: int, chosen: int, size: int) -> None:
        nonlocal best, best_mask, nodes
        nodes += 1
        if size + mask.bit_count() <= best:
            return
        if mask == 0:
            best, best_mask = size, chosen
            return
        low = mask & -mask
        v = low.bit_length() - 1
        explore(mask & ~(adj[v] | low), chosen | low, size + 1)
        explore(mask ^ low, chosen, size)

    explore((1 << g.order) - 1, 0, 0)
    elapsed = time.perf_counter() - start
    return MisResult(best, IndependentSet(g.order, _mask_to_set(best_mask)), nodes, elapsed)


def _greedy_incumbent(adj: tuple[int, ...], deadline: float | None) -> int:
    """Greedy independent set of the whole graph: repeatedly take a
    minimum-degree vertex, lowest index on ties, and delete its closed
    neighbourhood. Degrees live in a bucket queue (Matula & Beck's
    smallest-last ordering): ``buckets[d]`` masks the remaining vertices
    of current degree d, so the whole run is O(n + m) bitmask updates.
    Raises ``SolveAborted`` once ``perf_counter()`` passes ``deadline``."""
    deg = [nb.bit_count() for nb in adj]
    buckets = [0] * (max(deg) + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    chosen = 0
    rem = (1 << len(adj)) - 1
    low = 0
    while rem:
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveAborted("budget exceeded while building the greedy incumbent")
        while not buckets[low]:
            low += 1
        bit = buckets[low] & -buckets[low]
        chosen |= bit
        removed = (adj[bit.bit_length() - 1] & rem) | bit
        rem ^= removed
        while removed:
            ubit = removed & -removed
            removed ^= ubit
            u = ubit.bit_length() - 1
            buckets[deg[u]] ^= ubit
            nb = adj[u] & rem
            while nb:
                wbit = nb & -nb
                nb ^= wbit
                w = wbit.bit_length() - 1
                d = deg[w]
                buckets[d] ^= wbit
                buckets[d - 1] |= wbit
                deg[w] = d - 1
                if d - 1 < low:
                    low = d - 1
    return chosen


def _clique_cover_bound(adj: tuple[int, ...], mask: int) -> int:
    """Number of cliques in a greedy clique cover of the residual graph;
    each clique holds at most one independent vertex."""
    count = 0
    rem = mask
    while rem:
        bit = rem & -rem
        rem ^= bit
        cand = adj[bit.bit_length() - 1] & rem
        while cand:
            ubit = cand & -cand
            rem ^= ubit
            cand = (cand ^ ubit) & adj[ubit.bit_length() - 1]
        count += 1
    return count


def _components(adj: tuple[int, ...], mask: int):
    """Yield the vertex masks of the connected components of the subgraph
    induced by ``mask``, in order of their lowest vertex (a flood fill on
    bitmasks)."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            bit = frontier & -frontier
            new = adj[bit.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier = (frontier ^ bit) | new
        mask ^= comp
        yield comp


def alpha(g: Graph, budget_ms: float | None = None) -> MisResult:
    """Exact alpha by branch and bound; no size limit, no default timeout.

    ``budget_ms`` aborts the solve with ``SolveAborted`` once exceeded so
    callers can report a distinguishable aborted status; it must be
    positive (a NaN deadline would never pass).
    """
    if g.order < 1:
        raise ValueError("alpha needs a non-empty graph")
    if budget_ms is not None and not budget_ms > 0:  # NaN included
        raise ValueError(f"budget must be positive, got {budget_ms}")
    adj = g.adjacency_masks
    full = (1 << g.order) - 1
    deadline = None if budget_ms is None else time.perf_counter() + budget_ms / 1000.0
    start = time.perf_counter()

    nodes = 0

    def search(mask: int, incumbent: int) -> int:
        """Maximum independent set of the subgraph induced by ``mask``;
        ``incumbent`` is an independent subset of ``mask`` to beat."""
        best_mask = incumbent
        best = incumbent.bit_count()

        def solve(mask: int, chosen: int, size: int, root: bool) -> None:
            nonlocal best, best_mask, nodes
            nodes += 1

            # Isolated and pendant vertices can always be taken; loop until
            # none are left since each take can create new ones. The pass that
            # takes nothing also picks the branching vertex: maximum degree,
            # lowest index on ties.
            reduced = True
            while reduced:
                if deadline is not None and time.perf_counter() > deadline:
                    raise SolveAborted(f"budget {budget_ms} ms exceeded after {nodes} nodes")
                reduced = False
                branch_v, branch_d = -1, -1
                scan = mask
                while scan:
                    bit = scan & -scan
                    scan ^= bit
                    if not mask & bit:
                        continue
                    v = bit.bit_length() - 1
                    nb = adj[v] & mask
                    d = nb.bit_count()
                    if d > branch_d:
                        branch_v, branch_d = v, d
                    if d == 0:
                        mask ^= bit
                        chosen |= bit
                        size += 1
                        reduced = True
                    elif d == 1:
                        mask &= ~(nb | bit)
                        chosen |= bit
                        size += 1
                        reduced = True

            if mask == 0:
                if size > best:
                    best, best_mask = size, chosen
                return
            if size + _clique_cover_bound(adj, mask) <= best:
                return

            # Split into components only at the root: a check at every node
            # found no split below the root on k-token graphs of cycles and
            # cost 13-17% per node.
            if root:
                comps = list(_components(adj, mask))
                if len(comps) > 1:
                    for comp in comps:
                        chosen |= search(comp, best_mask & comp)
                    # optimal: the reductions are safe and each component
                    # search returns a maximum set of its component
                    best_mask = chosen
                    return

            vbit = 1 << branch_v
            solve(mask & ~(adj[branch_v] | vbit), chosen | vbit, size + 1, False)
            solve(mask ^ vbit, chosen, size, False)

        solve(mask, 0, 0, True)
        return best_mask

    best_mask = search(full, _greedy_incumbent(adj, deadline))
    elapsed = time.perf_counter() - start
    return MisResult(
        best_mask.bit_count(), IndependentSet(g.order, _mask_to_set(best_mask)), nodes, elapsed
    )


def alpha_avoiding(g: Graph, v: int, budget_ms: float | None = None) -> MisResult:
    """Exact maximum independent set among those that exclude vertex v:
    delete v, solve, translate the witness back to g's labels."""
    g._check_vertex(v)
    reduced, old_to_new = delete_vertices(g, {v})
    if reduced.order == 0:
        return MisResult(0, IndependentSet(g.order, frozenset()), 0, 0.0)
    result = alpha(reduced, budget_ms=budget_ms)
    back = {new: old for old, new in old_to_new.items()}
    members = frozenset(back[w] for w in result.witness.members)
    return MisResult(result.alpha, IndependentSet(g.order, members), result.nodes, result.elapsed)

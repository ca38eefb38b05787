"""Exact maximum independent set computation.

Two independent routes are provided on purpose:

* ``brute_force_alpha``: plain recursive include/exclude enumeration in
  ascending vertex order with only the trivial remaining-vertices bound.
  It is the oracle; it stays simple so it can be trusted.
* ``alpha``: branch and bound. Branches on a maximum-degree vertex
  (lowest index on ties), include branch first, a minimum-degree greedy
  incumbent (bucket queue, lowest index on ties), isolated/pendant-vertex
  reductions between branchings, and connected components of the
  residual graph solved separately at the root of each search. Two upper
  bounds: a greedy clique cover, and where it fails to prune, a cycle
  cover read off a maximum matching of the bipartite double cover (the
  LP plus cycle-cover bound of Akiba & Iwata, TCS 2016), each node
  starting from its parent's matching. The cycle cover is exact on
  bipartite graphs; the clique cover is the tighter one on cliques.
  Each node inherits its vertex degrees from its parent, so the
  reductions revisit only the vertices whose degree dropped, and the
  search runs on an explicit stack, not on interpreter frames.
  ``alpha(g, avoid=...)`` searches from a vertex mask without the given
  vertices, so no smaller graph is built and the witness keeps g's labels.

Both are exact and deterministic: repeated runs return the same size and
the same witness. All bookkeeping is done on Python-int bitmasks, bit i
standing for vertex i+1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, _component_masks, _mask_to_set

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
    clique_prunes: int = 0  # nodes closed by the clique-cover bound
    cover_prunes: int = 0  # nodes closed by the cycle-cover bound
    reductions: int = 0  # vertices taken by the isolated/pendant rule
    max_depth: int = 0  # most branchings above any search node


def is_independent(g: Graph, members) -> bool:
    """True iff no edge of g has both endpoints in ``members``."""
    member_set = set(members)
    mask = 0
    for v in member_set:
        if not (1 <= v <= g.order):
            raise ValueError(f"vertex {v} out of range 1..{g.order}")
        mask |= 1 << (v - 1)
    adj = g.adjacency_masks
    return not any(adj[v - 1] & mask for v in member_set)


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


def _greedy_incumbent(adj: tuple[int, ...], mask: int, deadline: float | None) -> int:
    """Greedy independent set of the subgraph ``mask`` induces: repeatedly
    take a minimum-degree vertex, lowest index on ties, and delete its
    closed neighbourhood. Degrees live in a bucket queue (Matula & Beck's
    smallest-last ordering): ``buckets[d]`` masks the remaining vertices
    of current degree d, so the whole run is O(n + m) bitmask updates.
    Raises ``SolveAborted`` once ``perf_counter()`` passes ``deadline``."""
    deg = [(nb & mask).bit_count() for nb in adj]
    buckets = [0] * (max(deg) + 1)
    for v, d in enumerate(deg):
        buckets[d] |= 1 << v
    buckets = [b & mask for b in buckets]
    chosen = 0
    rem = mask
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


def _cycle_cover_bound(
    adj: tuple[int, ...], mask: int, matching: tuple, deadline: float | None
) -> tuple[int, tuple]:
    """Upper bound on alpha of the subgraph induced by ``mask`` from a
    maximum matching of its bipartite double cover, where u' sees v'' for
    each edge uv. Read as arcs u -> v, the matching gives every vertex at
    most one arc out and one in, so it splits ``mask`` into paths and
    cycles of the graph: a cycle of L vertices holds at most floor(L/2)
    independent vertices, a path (an unmatched vertex is a path of one) at
    most ceil(L/2).

    ``matching`` is ``(out, inn, tails, heads)``: ``out[u] == v`` and
    ``inn[v] == u`` for each arc u -> v, and the masks ``tails`` and
    ``heads`` hold the vertices with an arc out and an arc in; list entries
    outside them are stale. It may be a matching of a larger vertex set
    (the parent node's): arcs that touch vertices outside ``mask`` are
    dropped, the vertices left without an arc out get a free neighbour
    greedily, and the rest are augmented by depth-first Kuhn searches on
    an explicit stack. Returns ``(bound, matching)`` and leaves the given
    matching intact. Raises ``SolveAborted`` once ``perf_counter()``
    passes ``deadline``."""
    out, inn, tails, heads = matching
    out, inn = out[:], inn[:]
    gone = tails & ~mask
    while gone:
        bit = gone & -gone
        gone ^= bit
        heads &= ~(1 << out[bit.bit_length() - 1])
    gone = heads & ~mask
    while gone:
        bit = gone & -gone
        gone ^= bit
        tails &= ~(1 << inn[bit.bit_length() - 1])
    tails &= mask
    heads &= mask

    free_heads = mask & ~heads
    pending = mask & ~tails
    while pending:
        ubit = pending & -pending
        pending ^= ubit
        u = ubit.bit_length() - 1
        hit = adj[u] & free_heads
        if hit:
            vbit = hit & -hit
            v = vbit.bit_length() - 1
            out[u], inn[v] = v, u
            tails |= ubit
            free_heads ^= vbit
    # ``dead`` holds the heads that failed searches reached. Their mates see
    # only dead heads, so an alternating path that enters them never gets
    # out to a free head, before or after later augmentations.
    dead = 0
    pending = mask & ~tails
    while pending:
        if deadline is not None and time.perf_counter() > deadline:
            raise SolveAborted("budget exceeded while matching the cycle-cover bound")
        ubit = pending & -pending
        pending ^= ubit
        u = ubit.bit_length() - 1
        seen = dead
        stack = [u]
        while stack:
            x = stack[-1]
            cand = adj[x] & mask & ~seen
            hit = cand & free_heads
            if hit:
                vbit = hit & -hit
                free_heads ^= vbit
                tails |= ubit
                v = vbit.bit_length() - 1
                for x in reversed(stack):  # flip the alternating path
                    out[x], inn[v], v = v, x, out[x]
                break
            if cand:
                vbit = cand & -cand
                seen |= vbit
                stack.append(inn[vbit.bit_length() - 1])
            else:
                stack.pop()
        if not tails & ubit:
            dead = seen
    heads = mask & ~free_heads

    bound = 0
    rest = mask
    starts = mask & ~heads
    while starts:
        bit = starts & -starts
        starts ^= bit
        rest ^= bit
        u, length = bit.bit_length() - 1, 1
        while tails >> u & 1:
            u = out[u]
            rest ^= 1 << u
            length += 1
        bound += (length + 1) // 2
    while rest:
        bit = rest & -rest
        rest ^= bit
        first = bit.bit_length() - 1
        u, length = out[first], 1
        while u != first:
            rest ^= 1 << u
            u = out[u]
            length += 1
        bound += length // 2
    return bound, (out, inn, tails, heads)


def _drop(adj: tuple[int, ...], deg: list[int], mask: int, gone: int) -> int:
    """Take the vertices of ``gone`` out of the degree table ``deg`` of the
    subgraph that ``mask`` (already without them) induces: they get -1 and
    each survivor loses one per removed neighbour. Returns the mask of the
    survivors whose degree dropped."""
    dirty = 0
    while gone:
        bit = gone & -gone
        gone ^= bit
        x = bit.bit_length() - 1
        deg[x] = -1
        nb = adj[x] & mask
        dirty |= nb
        while nb:
            wbit = nb & -nb
            nb ^= wbit
            deg[wbit.bit_length() - 1] -= 1
    return dirty


def alpha(g: Graph, budget_ms: float | None = None, *, avoid: Iterable[int] = ()) -> MisResult:
    """Exact alpha by branch and bound; no size limit, no default timeout.

    ``avoid`` names vertices the set must leave out (all of them: alpha
    0). ``budget_ms`` aborts the solve with ``SolveAborted`` once exceeded
    so callers can report a distinguishable aborted status; it must be
    positive (a NaN deadline would never pass). Its clock starts before
    the adjacency bitmasks are built, a step it cannot interrupt.
    """
    if g.order < 1:
        raise ValueError("alpha needs a non-empty graph")
    if budget_ms is not None and not budget_ms > 0:  # NaN included
        raise ValueError(f"budget must be positive, got {budget_ms}")
    start = time.perf_counter()
    deadline = None if budget_ms is None else start + budget_ms / 1000.0
    avoid_mask = 0
    for v in avoid:
        g._check_vertex(v)
        avoid_mask |= 1 << (v - 1)
    adj = g.adjacency_masks
    n = g.order

    nodes = clique_prunes = cover_prunes = reductions = max_depth = 0

    def search(mask: int, incumbent: int, matching: tuple) -> int:
        """Maximum independent set of the subgraph induced by ``mask``;
        ``incumbent`` is an independent subset of ``mask`` to beat and
        ``matching`` a start for the cycle-cover bound."""
        nonlocal nodes, clique_prunes, cover_prunes, reductions, max_depth
        best_mask = incumbent
        best = incumbent.bit_count()

        # ``deg[v]`` is v's degree in the node's residual graph, -1 once v is
        # gone; ``dirty`` masks the vertices whose degree dropped since the
        # reductions last looked at them (all of them at the root).
        deg = [(nb & mask).bit_count() if mask >> v & 1 else -1 for v, nb in enumerate(adj)]
        # Frames are (mask, chosen, size, depth, deg, dirty, matching); the
        # exclude child is pushed under the include child, so nodes are
        # visited in the order a recursive search would visit them.
        stack = [(mask, 0, 0, 0, deg, mask, matching)]
        while stack:
            mask, chosen, size, depth, deg, dirty, matching = stack.pop()
            nodes += 1
            if depth > max_depth:
                max_depth = depth

            # Isolated and pendant vertices can always be taken. Each pass
            # visits the dirty vertices in index order, as a full pass over
            # the residual graph would (the others still have degree >= 2):
            # a vertex dirtied ahead of the cursor joins this pass, one
            # dirtied behind it waits for the next.
            while True:
                if deadline is not None and time.perf_counter() > deadline:
                    raise SolveAborted(f"budget {budget_ms} ms exceeded after {nodes} nodes")
                scan, dirty = dirty & mask, 0
                while scan:
                    bit = scan & -scan
                    scan ^= bit
                    v = bit.bit_length() - 1
                    d = deg[v]
                    if d > 1 or d < 0:  # still of degree >= 2, or gone
                        continue
                    # take v; a pendant's one neighbour goes with it
                    gone = (adj[v] & mask) | bit
                    mask ^= gone
                    chosen |= bit
                    size += 1
                    reductions += 1
                    new = _drop(adj, deg, mask, gone)
                    ahead = new & -(bit << 1)
                    scan |= ahead
                    dirty |= new ^ ahead
                if not dirty:
                    break

            if mask == 0:
                if size > best:
                    best, best_mask = size, chosen
                continue
            if size + _clique_cover_bound(adj, mask) <= best:
                clique_prunes += 1
                continue
            # the children start from this node's matching
            bound, matching = _cycle_cover_bound(adj, mask, matching, deadline)
            if size + bound <= best:
                cover_prunes += 1
                continue

            # Split into components only at the root: a check at every node
            # found no split below the root on k-token graphs of cycles and
            # cost 13-17% per node.
            if depth == 0:
                comps = list(_component_masks(adj, mask))
                if len(comps) > 1:
                    for comp in comps:
                        chosen |= search(comp, best_mask & comp, matching)
                    # optimal: the reductions are safe and each component
                    # search returns a maximum set of its component
                    return chosen

            # branch on a maximum-degree vertex, lowest index on ties
            v = deg.index(max(deg))
            vbit = 1 << v
            closed = (adj[v] & mask) | vbit
            include_deg = deg[:]
            include_dirty = _drop(adj, include_deg, mask & ~closed, closed)
            exclude_dirty = _drop(adj, deg, mask ^ vbit, vbit)
            stack.append((mask ^ vbit, chosen, size, depth + 1, deg, exclude_dirty, matching))
            stack.append((mask & ~closed, chosen | vbit, size + 1, depth + 1, include_deg,
                          include_dirty, matching))
        return best_mask

    mask = ((1 << n) - 1) ^ avoid_mask
    no_arcs = [-1] * n
    best_mask = search(mask, _greedy_incumbent(adj, mask, deadline), (no_arcs, no_arcs, 0, 0))
    elapsed = time.perf_counter() - start
    return MisResult(
        best_mask.bit_count(), IndependentSet(n, _mask_to_set(best_mask)), nodes, elapsed,
        clique_prunes, cover_prunes, reductions, max_depth,
    )


"""Exact maximum independent set computation.

Two independent routes are provided on purpose:

* ``brute_force_alpha``: include/exclude enumeration in ascending vertex
  order with only the trivial remaining-vertices bound, run on an explicit
  stack, so a raised ``cap`` cannot overrun the recursion limit. It is the
  oracle; it stays simple so it can be trusted.
* ``alpha``: branch and bound. Branches on a maximum-degree vertex,
  among those the one with the most neighbours of that same degree
  (lowest index on ties), include branch first, a minimum-degree greedy
  incumbent (bucket queue, lowest index on ties) unless the caller
  passes an independent set to start from, isolated/pendant-vertex
  reductions between branchings, and connected components of the
  root's residual graph searched one by one, each as its own root. Three
  upper bounds, each tried only where the ones before it fail to prune: a
  greedy clique cover; a cycle cover read off a maximum matching of the
  bipartite double cover (the LP plus cycle-cover bound of Akiba & Iwata,
  TCS 2016), each node starting from its parent's matching, which it
  leaves intact, and stopping as soon as its matching is large enough to
  prove the node closed (so a matching short of maximum comes back only
  from a node it closes, whose children are never searched); and
  vertex-disjoint triangles around the high-degree vertices with a cycle
  cover of the rest, started from the node's own matching. The cycle
  cover is exact on bipartite graphs, the clique cover is the tighter one
  on cliques, and the triangle cover closes the odd wheels' double vertex
  and pair graphs at the root. The clique cover runs below the root, and
  the triangle cover at all, only when g has a triangle
  (``Graph.has_triangle``, cached on the graph): a triangle-free g has
  none in any vertex subset, so its clique cover counts n - |M| for a
  matching M of the n vertices left, and the cycle cover, at most that
  from a maximum matching, closes every node it would. A k-token graph
  has a triangle only when its base does, so on F_k(C_m), m >= 4, neither
  runs below the root. The triangle cover returns at once, without
  placing a triangle, at a node that a third of its vertices, rounded up,
  already leaves open: the cover never counts less.
  Each node inherits its vertex degrees from its parent, and its
  reductions work through one worklist of the vertices whose degree
  dropped, lowest index first, so they revisit no other vertex. The
  root's degree table counts each vertex's neighbours outside the
  avoided vertices. The root's worklist starts from the vertices of
  degree <= 1, read off the degree table as it is built, and a
  component root's from none: the root's reductions leave no vertex of
  degree <= 1 behind. Either way the next take is the lowest vertex of
  degree <= 1, so the takes and the search tree are those of a scan over
  every vertex. The search is one loop over an explicit stack, not
  interpreter frames; each component root is a depth-0 frame of it, like
  g's own root, and starts from its part of the incumbent.
  ``alpha(g, avoid=...)`` reads the given vertices into a mask, a block
  at a time under the budget, and searches from the mask without them,
  so no smaller graph is built and the witness keeps g's labels.
  ``alpha(g, incumbent=...)`` reads its set the same way and checks it
  independent. A ``verify`` row passes its witness as the ``_CheckedSet``
  that ``verify.certify`` got from ``_checked``, the one independence
  check (``is_independent`` runs it too): members and mask, which
  ``alpha`` trusts without reading them again, checking only the mask
  against ``avoid``. A root started from an incumbent first compares a
  greedy clique cover of its whole residual graph with it and, where the
  cover is no larger, as on most paper rows, returns that set as given,
  with 1 node and 1 clique prune, before any degree table or reduction;
  otherwise the root reuses that cover when its reductions take nothing.
  ``alpha``'s budget is checked throughout the solve: once per block of
  ``_BLOCK`` vertices in the set-up (reading ``avoid``, reading and
  checking ``incumbent``, the degree table and the greedy incumbent's
  buckets), once per ``_BLOCK`` cliques of every clique cover, the first
  included, once per vertex the greedy incumbent takes, once per search
  node before its reductions, and once per augmenting search. Without a
  budget the deadline is ``math.inf``, which no clock passes. Every
  graph arrives with the adjacency bitmasks the solve reads, so no mask
  build falls inside the clock.

Both are exact and deterministic: repeated runs return the same size and
the same witness. All bookkeeping is done on Python-int bitmasks, bit i
standing for vertex i+1, starting from ``Graph.adjacency_masks``, which
every graph carries from the moment it is made.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import compress
from typing import Iterable

from .graphs import Graph, _component_masks, _mask_to_set

BRUTE_FORCE_CAP = 26
_BLOCK = 1024  # vertices (in the set-up) or cliques (in a cover) between two deadline checks


class SolveAborted(RuntimeError):
    """Raised when a solve exceeds its optional time budget."""


@dataclass(frozen=True)
class IndependentSet:
    """A solver's witness: its members, vertex indices of the graph it
    solved. That graph, and so its order, is the caller's."""

    members: frozenset[int]

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class MisResult:
    """One exact solve: a maximum independent set, whose size is
    ``alpha``, and the search's counters."""

    witness: IndependentSet
    nodes: int
    elapsed: float  # seconds
    clique_prunes: int = 0  # nodes closed by the clique-cover bound (roots only if triangle-free)
    cover_prunes: int = 0  # nodes closed by the cycle-cover bound
    triangle_prunes: int = 0  # nodes closed by the triangle-cover bound
    reductions: int = 0  # vertices taken by the isolated/pendant rule
    max_depth: int = 0  # most branchings above any search node

    @property
    def alpha(self) -> int:
        return len(self.witness)


class _CheckedSet:
    """An independent vertex set of some graph with its bitmask, made only
    by ``_checked``. ``alpha`` takes one as its incumbent without reading
    or checking it again."""

    __slots__ = ("members", "mask")

    def __init__(self, members: frozenset[int], mask: int) -> None:
        self.members = members
        self.mask = mask


def _checked(g: Graph, members: frozenset[int]) -> _CheckedSet | None:
    """``members`` with their bitmask if no edge of g has both endpoints
    among them, else None; a member out of range raises ``ValueError``.
    The one independence check: ``is_independent`` and
    ``verify.certify`` both run it."""
    mask = g._vertex_mask(members)
    adj = g.adjacency_masks
    if any(adj[v - 1] & mask for v in members):
        return None
    return _CheckedSet(members, mask)


def is_independent(g: Graph, members) -> bool:
    """True iff no edge of g has both endpoints in ``members``."""
    return _checked(g, frozenset(members)) is not None


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
    best = best_mask = nodes = 0
    # Each popped frame walks its include chain in place, pushing every
    # exclude child on the way down: nodes are visited in preorder, include
    # child first, with no interpreter frame per level.
    stack = [((1 << g.order) - 1, 0, 0)]  # (mask, chosen, size)
    while stack:
        mask, chosen, size = stack.pop()
        nodes += 1
        while mask and size + mask.bit_count() > best:
            low = mask & -mask
            stack.append((mask ^ low, chosen, size))
            mask, chosen, size = mask & ~(adj[low.bit_length() - 1] | low), chosen | low, size + 1
            nodes += 1
        if not mask and size > best:  # a leaf the remaining-vertices bound left open
            best, best_mask = size, chosen
    elapsed = time.perf_counter() - start
    return MisResult(IndependentSet(_mask_to_set(best_mask)), nodes, elapsed)


def _block_starts(n: int, deadline: float, task: str):
    """Yield 0, _BLOCK, 2 * _BLOCK, ... below n for a set-up loop over n
    vertices, raising ``SolveAborted`` that names ``task`` before a block
    once ``perf_counter()`` has passed ``deadline``."""
    for lo in range(0, n, _BLOCK):
        if time.perf_counter() > deadline:
            raise SolveAborted(f"budget exceeded while {task}")
        yield lo


def _greedy_incumbent(
    adj: tuple[int, ...], mask: int, deg: list[int], deadline: float
) -> int:
    """Greedy independent set of the subgraph ``mask`` induces: repeatedly
    take a minimum-degree vertex, lowest index on ties, and delete its
    closed neighbourhood. ``deg`` is that subgraph's degree table, -1
    outside ``mask``; the run uses it up. Degrees live in a bucket queue
    (Matula & Beck's smallest-last ordering): ``buckets[d]`` masks the
    remaining vertices of current degree d, so the whole run is O(n + m)
    bitmask updates. Raises ``SolveAborted`` once ``perf_counter()``
    passes ``deadline``."""
    buckets = [0] * (max(deg) + 1)
    for lo in _block_starts(len(deg), deadline, "filling the greedy incumbent's buckets"):
        for v, d in enumerate(deg[lo:lo + _BLOCK], start=lo):
            if d >= 0:
                buckets[d] |= 1 << v
    chosen = 0
    rem = mask
    low = 0
    while rem:
        if time.perf_counter() > deadline:
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


def _clique_cover_bound(adj: tuple[int, ...], mask: int, deadline: float = math.inf) -> int:
    """Number of cliques in a greedy clique cover of the residual graph;
    each clique holds at most one independent vertex. Raises
    ``SolveAborted`` once ``perf_counter()`` has passed ``deadline``,
    checked before the first clique and then once per ``_BLOCK``."""
    count = 0
    rem = mask
    next_check = 0
    while rem:
        if count == next_check:
            if time.perf_counter() > deadline:
                raise SolveAborted("budget exceeded while building the clique cover")
            next_check += _BLOCK
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
    adj: tuple[int, ...], mask: int, matching: tuple, deadline: float, target: int = -1
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
    passes ``deadline``.

    A matching M leaves ``|mask| - |M|`` paths, so the cover's bound is at
    most ``(2 * |mask| - |M|) // 2``, a number that only falls as M grows.
    Once it is at most ``target``, after the greedy pass or an augmenting
    search, the call returns it with the matching as it stands: the bound
    of a maximum matching would be no larger, so a caller that closes a
    node when the bound is at most ``target`` closes the same nodes. Only
    such a return hands back a matching that may not be maximum; the
    default ``target`` of -1 never stops early."""
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
    # (2 * |mask| - |M|) // 2 <= target exactly when |M| >= need
    size = mask.bit_count()
    need = 2 * (size - target) - 1
    matched = tails.bit_count()
    if matched >= need:
        return (2 * size - matched) // 2, (out, inn, tails, mask & ~free_heads)
    # ``live`` holds the heads that no failed search reached. The mates of
    # the heads a failed search reached see only such heads, so an
    # alternating path that enters them never gets out to a free head,
    # before or after later augmentations. Each search clears the heads it
    # reaches from ``avail``, a copy of ``live``; a failed one keeps it.
    live = mask
    pending = mask & ~tails
    while pending:
        if time.perf_counter() > deadline:
            raise SolveAborted("budget exceeded while matching the cycle-cover bound")
        ubit = pending & -pending
        pending ^= ubit
        u = ubit.bit_length() - 1
        avail = live
        stack = [u]
        while stack:
            x = stack[-1]
            cand = adj[x] & avail
            hit = cand & free_heads
            if hit:
                vbit = hit & -hit
                free_heads ^= vbit
                tails |= ubit
                v = vbit.bit_length() - 1
                for x in reversed(stack):  # flip the alternating path
                    out[x], inn[v], v = v, x, out[x]
                matched += 1
                if matched >= need:
                    return (2 * size - matched) // 2, (out, inn, tails, mask & ~free_heads)
                break
            if cand:
                vbit = cand & -cand
                avail ^= vbit
                stack.append(inn[vbit.bit_length() - 1])
            else:
                stack.pop()
        if not tails & ubit:
            live = avail
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


def _triangle_cover_bound(
    adj: tuple[int, ...], mask: int, deg: list[int], matching: tuple, deadline: float,
    target: int = -1
) -> int:
    """Upper bound on alpha of the subgraph induced by ``mask`` from
    vertex-disjoint triangles, each holding at most one independent vertex,
    and a cycle cover of the vertices they leave. ``deg`` is the subgraph's
    degree table, -1 outside ``mask``. The seeds are the vertices of degree
    above the median, highest first (lowest index on ties). A seed still
    free takes its lowest-degree free neighbour that has a free neighbour
    in the seed's neighbourhood, then that vertex's lowest-degree such
    neighbour, so each choice is linear in the seed's degree.
    ``_cycle_cover_bound`` covers the rest from ``matching``, which it
    leaves intact, and stops early once the total is at most ``target``.
    A ``target`` >= 0 below ceil(|mask| / 3) returns |mask| at once: each
    triangle counts 1 for its 3 vertices and each cycle-cover piece of L
    vertices at least L / 3, so the full cover is at least that floor, and
    at most |mask|. Either way the result is at most ``target`` exactly
    when the full cover's is, and never below it.
    Raises ``SolveAborted`` once ``perf_counter()`` passes ``deadline``."""
    size = mask.bit_count()
    if 0 <= target < -(-size // 3):
        return size
    live = sorted((v for v, d in enumerate(deg) if d >= 0), key=deg.__getitem__, reverse=True)
    median = deg[live[len(live) // 2]]
    count = 0
    free = mask
    for s in live:
        if deg[s] <= median:
            break
        if not free >> s & 1:
            continue
        nb = adj[s] & free
        a = _lowest_degree_hub(adj, deg, nb, nb)
        if a >= 0:
            # a lies in nb, so each of its neighbours in nb has one there
            b = _lowest_degree_hub(adj, deg, adj[a] & nb, nb)
            free &= ~(1 << s | 1 << a | 1 << b)
            count += 1
    return count + _cycle_cover_bound(adj, free, matching, deadline, target - count)[0]


def _lowest_degree_hub(adj: tuple[int, ...], deg: list[int], scan: int, within: int) -> int:
    """The vertex of the mask ``scan`` with a neighbour in ``within`` and
    the lowest ``deg``, lowest index on ties; -1 if there is none."""
    best, low = -1, len(deg)
    while scan:
        bit = scan & -scan
        scan ^= bit
        u = bit.bit_length() - 1
        if deg[u] < low and adj[u] & within:
            best, low = u, deg[u]
    return best


def _branch_vertex(adj: tuple[int, ...], deg: list[int]) -> int:
    """The vertex to branch on: one of maximum ``deg``, and among those
    the one with the most neighbours of that same degree, lowest index on
    ties. Including it deletes a closed neighbourhood packed with
    top-degree vertices, so the include child loses the most edges."""
    top = max(deg)
    if deg.count(top) == 1:
        return deg.index(top)
    ties = list(compress(range(len(deg)), map(top.__eq__, deg)))
    ties_mask = sum(map((1).__lshift__, ties))  # distinct bits: the sum is their union
    scores = list(map(int.bit_count, map(ties_mask.__and__, map(adj.__getitem__, ties))))
    return ties[scores.index(max(scores))]


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


def _read(g: Graph, vertices: Iterable[int], deadline: float,
          task: str) -> tuple[tuple[int, ...], int]:
    """The vertices as a tuple and as a mask, read a block at a time
    under the budget; an abort names ``task``."""
    vertices = tuple(vertices)
    mask = 0
    for lo in _block_starts(len(vertices), deadline, task):
        mask |= g._vertex_mask(vertices[lo:lo + _BLOCK])
    return vertices, mask


def alpha(g: Graph, budget_ms: float | None = None, *, avoid: Iterable[int] = (),
          incumbent: Iterable[int] | None = None) -> MisResult:
    """Exact alpha by branch and bound; no size limit, no default timeout.

    ``avoid`` names vertices the set must leave out (all of them: alpha
    0). ``incumbent`` names an independent set of vertices outside
    ``avoid`` for the search to beat; without it the search starts from
    the greedy incumbent. A vertex of it out of range, in ``avoid`` or
    with a neighbour in it raises ``ValueError``. It only starts the
    search, which still closes a node only where a bound meets the best
    set found, so a small or empty incumbent costs nodes, never
    exactness. Both sets are read once, through ``Graph._vertex_mask``;
    a ``_CheckedSet`` made by ``_checked`` is trusted independent and not
    read again, and only its mask is checked against ``avoid``.

    ``budget_ms`` aborts the solve with ``SolveAborted`` once exceeded so
    callers can report a distinguishable aborted status; it must be
    positive (a NaN deadline would never pass). The clock covers the
    solve alone, its set-up included, and an abort in the set-up names
    its step.
    """
    if g.order < 1:
        raise ValueError("alpha needs a non-empty graph")
    if budget_ms is not None and not budget_ms > 0:  # NaN included
        raise ValueError(f"budget must be positive, got {budget_ms}")
    start = time.perf_counter()
    deadline = math.inf if budget_ms is None else start + budget_ms / 1000.0
    adj = g.adjacency_masks
    n = g.order
    avoid, avoid_mask = _read(g, avoid, deadline, "reading the avoided vertices")
    checked = isinstance(incumbent, _CheckedSet)
    if checked:
        incumbent, seed = incumbent.members, incumbent.mask
    elif incumbent is not None:
        incumbent, seed = _read(g, incumbent, deadline, "reading the incumbent")
    # a _CheckedSet is independent in g, but the avoided vertices are this call's
    if incumbent is not None and (clash := seed & avoid_mask):
        raise ValueError(f"incumbent vertex {(clash & -clash).bit_length()} is avoided")
    if incumbent is not None and not checked:
        for lo in _block_starts(len(incumbent), deadline, "reading the incumbent"):
            for v in incumbent[lo:lo + _BLOCK]:
                if adj[v - 1] & seed:
                    raise ValueError(f"incumbent vertex {v} has a neighbour in the incumbent")
    mask = ((1 << n) - 1) ^ avoid_mask
    early_cover = -1  # the clique cover of g's root before its reductions, if read
    if incumbent is not None and mask:
        # the seed is maximum when a clique cover of the whole residual
        # graph is no larger: close the root before any other set-up
        early_cover = _clique_cover_bound(adj, mask, deadline)
        if early_cover <= seed.bit_count():
            return MisResult(IndependentSet(frozenset(incumbent)), 1,
                             time.perf_counter() - start, clique_prunes=1)
    deg = []
    low = 0  # the vertices of degree <= 1, the root's reduction worklist
    for lo in _block_starts(n, deadline, "building the degree table"):
        block = [(nb & mask).bit_count() for nb in adj[lo:lo + _BLOCK]]
        deg += block
        for v in compress(range(lo, lo + len(block)), map((2).__gt__, block)):
            low |= 1 << v
    for lo in _block_starts(len(avoid), deadline, "building the degree table"):
        for v in avoid[lo:lo + _BLOCK]:
            deg[v - 1] = -1
    no_arcs = [-1] * n
    if incumbent is None:
        seed = _greedy_incumbent(adj, mask, deg[:], deadline)

    nodes = clique_prunes = cover_prunes = triangle_prunes = reductions = max_depth = 0
    # ``deg[v]`` is v's degree in the node's residual graph, -1 once v is
    # gone; ``dirty`` masks the vertices whose degree dropped since the
    # reductions last looked at them (at the root, those of degree <= 1).
    # Frames are (mask, chosen, depth, deg, dirty, matching); the exclude
    # child is pushed under the include child, so nodes are visited in the
    # order a recursive search would visit them. ``best_mask`` is the best
    # set of the current root (a frame at depth 0), started from its part
    # of the incumbent; ``union`` collects those of the roots before it.
    union = best_mask = best = 0
    stack = [(mask, 0, 0, deg, low & mask, (no_arcs, no_arcs, 0, 0))]
    while stack:
        mask, chosen, depth, deg, dirty, matching = stack.pop()
        nodes += 1
        if depth == 0:
            union |= best_mask
            best_mask = seed & mask
            best = best_mask.bit_count()
        elif depth > max_depth:
            max_depth = depth
        if time.perf_counter() > deadline:
            raise SolveAborted(f"budget {budget_ms} ms exceeded after {nodes} nodes")

        # Isolated and pendant vertices can always be taken. ``scan`` is
        # the worklist of dirty vertices still in the graph (the others
        # still have degree >= 2); each step looks at its lowest vertex,
        # and a take adds the vertices whose degree it dropped.
        scan = dirty & mask
        while scan:
            bit = scan & -scan
            scan ^= bit
            v = bit.bit_length() - 1
            if deg[v] > 1:
                continue
            # take v; a pendant's one neighbour goes with it
            gone = (adj[v] & mask) | bit
            mask ^= gone
            chosen |= bit
            reductions += 1
            scan = (scan | _drop(adj, deg, mask, gone)) & mask
        size = chosen.bit_count()

        if mask == 0:
            if size > best:
                best, best_mask = size, chosen
            continue
        # below the root of a triangle-free g every clique of the greedy
        # cover is an edge or a vertex, so the cycle cover is at least
        # as tight
        if depth == 0 or g.has_triangle:
            if nodes == 1 and not reductions and early_cover >= 0:
                cover = early_cover  # g's root, which its reductions left whole
            else:
                cover = _clique_cover_bound(adj, mask, deadline)
            if size + cover <= best:
                clique_prunes += 1
                continue
        # the children start from this node's matching, which is maximum
        # unless the matching stopped early at a node it closes
        bound, matching = _cycle_cover_bound(adj, mask, matching, deadline, best - size)
        if size + bound <= best:
            cover_prunes += 1
            continue
        # read at the first node left open; a triangle-free g has no
        # triangle in any vertex subset either
        if g.has_triangle and size + _triangle_cover_bound(adj, mask, deg, matching, deadline,
                                                           best - size) <= best:
            triangle_prunes += 1
            continue

        # Split into components only at a root: a check at every node
        # found no split below the root on k-token graphs of cycles and
        # cost 13-17% per node.
        if depth == 0:
            comps = list(_component_masks(adj, mask))
            if len(comps) > 1:
                # optimal: the reductions are safe and each component
                # root's tree finds a maximum set of its component
                union |= chosen
                best_mask = 0
                for comp in reversed(comps):  # popped lowest vertex first
                    # a component keeps its residual degrees, all >= 2
                    # after the reductions, so its worklist starts empty
                    comp_deg = [-1] * n
                    for v in _mask_to_set(comp):
                        comp_deg[v - 1] = deg[v - 1]
                    stack.append((comp, 0, 0, comp_deg, 0, matching))
                continue

        # branch on a maximum-degree vertex with the most neighbours of
        # that degree, lowest index on ties
        v = _branch_vertex(adj, deg)
        vbit = 1 << v
        closed = (adj[v] & mask) | vbit
        include_deg = deg[:]
        include_dirty = _drop(adj, include_deg, mask & ~closed, closed)
        exclude_dirty = _drop(adj, deg, mask ^ vbit, vbit)
        stack.append((mask ^ vbit, chosen, depth + 1, deg, exclude_dirty, matching))
        stack.append((mask & ~closed, chosen | vbit, depth + 1, include_deg, include_dirty,
                      matching))
    best_mask |= union
    elapsed = time.perf_counter() - start
    return MisResult(
        IndependentSet(_mask_to_set(best_mask)), nodes, elapsed,
        clique_prunes=clique_prunes, cover_prunes=cover_prunes, triangle_prunes=triangle_prunes,
        reductions=reductions, max_depth=max_depth,
    )


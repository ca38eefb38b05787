"""Independent test oracles.

These deliberately avoid the package's solver and construction paths:
alpha is computed by top-down subset enumeration over the raw edge set
(or by the oracle's include/exclude enumeration as a plain recursion, to
pin ``brute_force_alpha`` node for node), and derived-graph adjacency is
re-derived from first principles (shared elements and endpoint
adjacency) instead of symmetric differences, or, to pin ``k_token``'s
neighbour masks, by the per-build bitmask index it used before its move
tables.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from tokengraphs.graphs import Graph


def subset_is_independent(edges, members) -> bool:
    member_set = set(members)
    return not any(u in member_set and v in member_set for u, v in edges)


def union_find_components(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the connected components, by union-find over the
    raw edge list, ordered by smallest vertex."""
    parent = {v: v for v in g.vertices}

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[find(u)] = find(v)
    parts: dict[int, set[int]] = {}
    for v in g.vertices:
        parts.setdefault(find(v), set()).add(v)
    return sorted((frozenset(p) for p in parts.values()), key=min)


def triple_has_triangle(g: Graph) -> bool:
    """True iff some three vertices are pairwise joined in the raw edge set."""
    return any(
        (a, b) in g.edges and (a, c) in g.edges and (b, c) in g.edges
        for a, b, c in combinations(g.vertices, 3)
    )


def exhaustive_alpha(g: Graph) -> int:
    """Largest independent set size by checking k-subsets from the top."""
    vertices = list(g.vertices)
    for k in range(g.order, 0, -1):
        for combo in combinations(vertices, k):
            if subset_is_independent(g.edges, combo):
                return k
    return 0


def recursive_brute_force_alpha(g: Graph) -> tuple[int, int, frozenset[int]]:
    """``(alpha, nodes, witness members)`` of the include/exclude
    enumeration ``brute_force_alpha`` runs, as the plain recursion it was
    first written as: ascending vertex order, include child first, only
    the remaining-vertices bound. Its masks are read off the raw edge
    set. It recurses once per vertex, so keep g small."""
    adj = [0] * g.order
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    best = best_mask = nodes = 0

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
    return best, nodes, frozenset(v + 1 for v in range(g.order) if best_mask >> v & 1)


def naive_double_vertex_edges(g: Graph) -> set[frozenset]:
    """Adjacency of 2-subsets by the share-one-element formulation:
    {x, y} ~ {u, v} iff they share exactly one element and the two
    non-shared elements are adjacent in g."""
    tokens = list(combinations(g.vertices, 2))
    edges = set()
    for t1, t2 in combinations(tokens, 2):
        shared = set(t1) & set(t2)
        if len(shared) != 1:
            continue
        a = (set(t1) - shared).pop()
        b = (set(t2) - shared).pop()
        if g.has_edge(a, b):
            edges.add(frozenset((t1, t2)))
    return edges


def naive_k_token_edges(g: Graph, k: int) -> set[frozenset]:
    """Adjacency of k-subsets from the definition: S ~ T iff their
    symmetric difference has two elements and those form an edge of g."""
    tokens = list(combinations(g.vertices, k))
    edges = set()
    for t1, t2 in combinations(tokens, 2):
        diff = set(t1) ^ set(t2)
        if len(diff) == 2 and g.has_edge(*diff):
            edges.add(frozenset((t1, t2)))
    return edges


def bitmask_index_k_token_masks(g: Graph, k: int) -> tuple[int, ...]:
    """The neighbour masks of F_k(g), vertex i being the i-th k-subset in
    lexicographic order, built with no state kept between calls: each
    k-subset is indexed by its bitmask, bit x-1 standing for vertex x, and
    each edge xy of the raw edge set joins S + x and S + y for every
    (k-1)-subset S of the other vertices."""
    bits = [1 << x for x in range(g.order)]
    index = {sum(combo): i for i, combo in enumerate(combinations(bits, k))}
    masks = [0] * len(index)
    for x, y in g.edges:
        bx, by = bits[x - 1], bits[y - 1]
        movable = [b for b in bits if b != bx and b != by]
        for stay in map(sum, combinations(movable, k - 1)):
            i, j = index[stay | bx], index[stay | by]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return tuple(masks)


def naive_pair_adjacent(g: Graph, t1: tuple[int, int], t2: tuple[int, int]) -> bool:
    """Adjacency of 2-multisets: some common element (with multiplicity)
    leaves two distinct remainders that are adjacent in g."""
    if t1 == t2:
        return False
    c1, c2 = Counter(t1), Counter(t2)
    for shared in set(c1) & set(c2):
        r1 = c1.copy()
        r1[shared] -= 1
        r2 = c2.copy()
        r2[shared] -= 1
        a = next(iter(r1.elements()))
        b = next(iter(r2.elements()))
        if a != b and g.has_edge(a, b):
            return True
    return False


def naive_pair_graph_edges(g: Graph) -> set[frozenset]:
    from itertools import combinations_with_replacement

    tokens = list(combinations_with_replacement(g.vertices, 2))
    return {
        frozenset((t1, t2))
        for t1, t2 in combinations(tokens, 2)
        if naive_pair_adjacent(g, t1, t2)
    }


def double_cover_matching_size(g: Graph, keep) -> int:
    """Size of a maximum matching of the bipartite double cover of the
    subgraph induced by ``keep``: a left copy u' and a right copy v'' of
    each kept vertex, with u' joined to v'' and v' to u'' for each edge uv.
    Plain augmenting paths from each left vertex in turn (Kuhn)."""
    kept = set(keep)
    nbrs: dict[int, list[int]] = {v: [] for v in kept}
    for u, v in g.edges:
        if u in kept and v in kept:
            nbrs[u].append(v)
            nbrs[v].append(u)
    mate: dict[int, int] = {}  # right copy -> left copy

    def augment(u: int, visited: set[int]) -> bool:
        for v in nbrs[u]:
            if v not in visited:
                visited.add(v)
                if v not in mate or augment(mate[v], visited):
                    mate[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in sorted(kept))


def greedy_clique_cover_size(g: Graph, keep) -> int:
    """Number of cliques in the greedy clique cover of the subgraph induced
    by ``keep``: each clique starts at the lowest vertex no clique holds
    yet, then grows by the lowest such vertex adjacent to all its members,
    read off the raw edge set."""
    edges = {frozenset(e) for e in g.edges}
    left = sorted(set(keep))
    count = 0
    while left:
        clique = [left.pop(0)]
        for v in list(left):  # ascending, so each take is the lowest common neighbour
            if all(frozenset((u, v)) in edges for u in clique):
                clique.append(v)
                left.remove(v)
        count += 1
    return count

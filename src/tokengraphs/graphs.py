"""Simple undirected graphs on vertices 1..n, plus the family builders
and structural operations the rest of the package is built on.

Graphs are immutable values: every operation returns a new ``Graph``.
Operations that relabel vertices (deletion, induced subgraphs, component
splitting) compact labels to 1..k and return the old-to-new label map so
vertex sets can be translated back afterwards. Adjacency is kept in one
form, per-vertex neighbor bitmasks (``Graph.adjacency_masks``);
``components`` and the solver in ``mis`` share one flood fill over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

Edge = tuple[int, int]


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) is not allowed")
    return (u, v) if u < v else (v, u)


def _is_normalized(edges: frozenset, order: int) -> bool:
    """True iff every edge is a 2-tuple (u, v) with 1 <= u < v <= order,
    the form ``Graph`` stores."""
    for e in edges:
        if type(e) is not tuple or len(e) != 2:
            return False
        u, v = e
        if not 0 < u < v <= order:
            return False
    return True


def _mask_to_set(mask: int) -> frozenset[int]:
    """The vertices of a bitmask; bit i stands for vertex i+1."""
    members = set()
    while mask:
        bit = mask & -mask
        members.add(bit.bit_length())
        mask ^= bit
    return frozenset(members)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: ``order`` vertices labeled 1..order and a
    set of unordered edges with distinct in-range endpoints."""

    order: int
    edges: frozenset[Edge] = frozenset()

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be non-negative, got {self.order}")
        if type(self.edges) is frozenset and _is_normalized(self.edges, self.order):
            return
        normalized = frozenset(_normalize_edge(u, v) for u, v in self.edges)
        for u, v in normalized:
            if not (1 <= u <= self.order and 1 <= v <= self.order):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{self.order}")
        object.__setattr__(self, "edges", normalized)

    @property
    def vertices(self) -> range:
        return range(1, self.order + 1)

    @property
    def size(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and _normalize_edge(u, v) in self.edges

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return _mask_to_set(self.adjacency_masks[v - 1])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency_masks[v - 1].bit_count()

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks; bit i stands for vertex i+1."""
        masks = [0] * self.order
        for u, v in self.edges:
            masks[u - 1] |= 1 << (v - 1)
            masks[v - 1] |= 1 << (u - 1)
        return tuple(masks)

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.order):
            raise ValueError(f"vertex {v} out of range 1..{self.order}")

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph(order={self.order}, size={self.size})"


# ---------------------------------------------------------------------------
# family builders


def path(m: int) -> Graph:
    """Path P_m: vertices 1..m, edges {i, i+1}."""
    if m < 1:
        raise ValueError(f"path needs m >= 1, got {m}")
    return Graph(m, frozenset((i, i + 1) for i in range(1, m)))


def cycle(m: int) -> Graph:
    """Cycle C_m: the path edges plus {1, m}; needs m >= 3."""
    if m < 3:
        raise ValueError(f"cycle needs m >= 3, got {m}")
    return Graph(m, frozenset((i, i + 1) for i in range(1, m)) | {(1, m)})


def complete(n: int) -> Graph:
    """Complete graph K_n."""
    if n < 1:
        raise ValueError(f"complete needs n >= 1, got {n}")
    return Graph(n, frozenset(combinations(range(1, n + 1), 2)))


def join(g: Graph, h: Graph) -> Graph:
    """Join of g and h: disjoint union (h relabeled after g) plus every
    edge between a g-vertex and an h-vertex."""
    if g.order < 1 or h.order < 1:
        raise ValueError("join needs two non-empty graphs")
    shift = g.order
    edges = set(g.edges)
    edges.update((u + shift, v + shift) for u, v in h.edges)
    edges.update((a, b + shift) for a in g.vertices for b in h.vertices)
    return Graph(g.order + h.order, frozenset(edges))


def fan(m: int) -> Graph:
    """Fan: path P_m joined with one apex vertex, labeled m+1."""
    if m < 1:
        raise ValueError(f"fan needs m >= 1, got {m}")
    return join(path(m), complete(1))


def wheel(m: int) -> Graph:
    """Wheel: cycle C_m joined with one apex vertex, labeled m+1."""
    if m < 3:
        raise ValueError(f"wheel needs m >= 3, got {m}")
    return join(cycle(m), complete(1))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union, with h relabeled to g.order+1 .. g.order+h.order."""
    shift = g.order
    edges = set(g.edges)
    edges.update((u + shift, v + shift) for u, v in h.edges)
    return Graph(g.order + h.order, frozenset(edges))


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (a, b) gets label (a-1)*h.order + b;
    (a, b) ~ (a', b') iff a = a' and b ~ b', or b = b' and a ~ a'."""
    if g.order < 1 or h.order < 1:
        raise ValueError("cartesian product needs two non-empty graphs")
    edges: set[Edge] = set()
    for a in g.vertices:
        base = (a - 1) * h.order
        for u, v in h.edges:
            edges.add((base + u, base + v))
    for u, v in g.edges:
        for b in h.vertices:
            edges.add(((u - 1) * h.order + b, (v - 1) * h.order + b))
    return Graph(g.order * h.order, frozenset(edges))


# ---------------------------------------------------------------------------
# dissection


def _kept_subgraph(g: Graph, kept: list[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the ascending in-range list ``kept``, compacted
    to 1..k, and the old-to-new label map; one scan of g's edges."""
    relabel = {old: new for new, old in enumerate(kept, start=1)}
    edges = frozenset((relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel)
    return Graph(len(kept), edges), relabel


def delete_vertices(g: Graph, victims: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the vertices outside ``victims``.

    Surviving vertices are compacted to 1..k preserving relative order.
    Returns the new graph and the old-to-new label map (invert it to
    translate results back to the original labels).
    """
    victim_set = set(victims)
    for v in victim_set:
        g._check_vertex(v)
    return _kept_subgraph(g, [v for v in g.vertices if v not in victim_set])


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep``, compacted like ``delete_vertices``."""
    keep_set = set(keep)
    for v in keep_set:
        g._check_vertex(v)
    return _kept_subgraph(g, sorted(keep_set))


def _component_masks(adj: tuple[int, ...], mask: int):
    """Yield the vertex masks of the connected components of the subgraph
    induced by ``mask``, in order of their lowest vertex (a flood fill on
    the bitmasks ``adj`` of ``Graph.adjacency_masks``)."""
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            bit = frontier & -frontier
            new = adj[bit.bit_length() - 1] & mask & ~comp
            comp |= new
            frontier = (frontier ^ bit) | new
        mask ^= comp
        yield comp


def components(g: Graph) -> list[tuple[Graph, dict[int, int]]]:
    """Connected components, each compacted with its old-to-new label map.

    Components are ordered by their smallest original vertex. Each part
    reads its edges from its own vertices' masks, so no part scans the
    whole edge list.
    """
    if g.order < 1:
        raise ValueError("components needs a non-empty graph")
    adj = g.adjacency_masks
    parts = []
    for comp in _component_masks(adj, (1 << g.order) - 1):
        kept = sorted(_mask_to_set(comp))
        relabel = {old: new for new, old in enumerate(kept, start=1)}
        edges = frozenset(
            (relabel[u], relabel[v]) for u in kept for v in _mask_to_set(adj[u - 1]) if u < v
        )
        parts.append((Graph(len(kept), edges), relabel))
    return parts


# ---------------------------------------------------------------------------
# isomorphism


def _refined_colors(g: Graph) -> list[int]:
    """Iterated neighborhood-degree refinement; stable color per vertex."""
    adj = g.adjacency_masks
    colors = [nb.bit_count() for nb in adj]
    neighbors = [_mask_to_set(nb) for nb in adj]
    for _ in range(g.order):
        signatures = [
            (color, tuple(sorted(colors[w - 1] for w in nbs)))
            for color, nbs in zip(colors, neighbors)
        ]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [palette[sig] for sig in signatures]
        if new_colors == colors:
            break
        colors = new_colors
    return colors


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test by backtracking.

    Prunes on degree sequence and iterated neighborhood-degree colors,
    then searches for an edge-preserving bijection. The search runs on an
    explicit stack, so its depth needs no interpreter frames. Intended for
    the small structured graphs this package produces (order up to ~100);
    adversarial regular graphs may be slow.
    """
    if g.order != h.order or g.size != h.size:
        return False
    if g.order == 0:
        return True
    n = g.order
    g_adj = g.adjacency_masks
    h_adj = h.adjacency_masks
    degree = [nb.bit_count() for nb in g_adj]
    if sorted(degree) != sorted(nb.bit_count() for nb in h_adj):
        return False

    gcol = _refined_colors(g)
    hcol = _refined_colors(h)
    if sorted(gcol) != sorted(hcol):
        return False

    by_color: dict[int, list[int]] = {}
    for v in range(n):
        by_color.setdefault(hcol[v], []).append(v)

    # Place g-vertices (0-based) in one fixed order: most already-placed
    # neighbours, then highest degree, then lowest index. It keeps the
    # partial map connected, and it depends only on which vertices are
    # placed, never on their images. back[d] holds the earlier-placed
    # neighbours of order[d] (1-based labels).
    order: list[int] = []
    back: list[frozenset[int]] = []
    placed = 0
    for _ in range(n):
        u = max(
            (w for w in range(n) if not placed >> w & 1),
            key=lambda w: ((g_adj[w] & placed).bit_count(), degree[w], -w),
        )
        order.append(u)
        back.append(_mask_to_set(g_adj[u] & placed))
        placed |= 1 << u

    # Backtrack on an explicit stack holding one candidate iterator per
    # depth; image[u] is the h-vertex given to g-vertex u. The color
    # multisets agree, so every g color is a key of by_color.
    image = [0] * n
    used_mask = 0
    stack = [iter(by_color[gcol[order[0]]])]
    while stack:
        depth = len(stack) - 1
        required = 0
        for w in back[depth]:
            required |= 1 << image[w - 1]
        for v in stack[-1]:
            if not used_mask >> v & 1 and h_adj[v] & used_mask == required:
                if depth + 1 == n:
                    return True
                image[order[depth]] = v
                used_mask |= 1 << v
                stack.append(iter(by_color[gcol[order[depth + 1]]]))
                break
        else:
            stack.pop()
            if stack:
                used_mask &= ~(1 << image[order[depth - 1]])
    return False

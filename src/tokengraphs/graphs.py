"""Simple undirected graphs on vertices 1..n, plus the family builders
and structural operations the rest of the package is built on.

Graphs are immutable values: every operation returns a new ``Graph``.
Operations that relabel vertices (deletion, induced subgraphs, component
splitting) compact labels to 1..k and return the old-to-new label map so
vertex sets can be translated back afterwards. A graph is stored in one
form, per-vertex neighbor bitmasks (``Graph.adjacency_masks``), filled
when the graph is made; its edge set is a view built on first read, for
output. Every builder, operator and dissection walks the masks and
builds straight into masks, and ``components`` and the solver in
``mis`` share one flood fill over them. A caller's vertex set becomes a
mask in one place, ``Graph._vertex_mask``, which also range-checks it,
and a mask becomes vertices again in one place, ``_mask_to_set``; the
dissections all cut the graph by a mask of the vertices they keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable

Edge = tuple[int, int]


def _require(name: str, m: int, least: int) -> None:
    """Reject an m below ``least``, naming the caller: the one wording of
    every "needs m >=" domain check in the package."""
    if m < least:
        raise ValueError(f"{name} needs m >= {least}, got {m}")


def _mask_to_set(mask: int) -> frozenset[int]:
    """The vertices of a bitmask; bit i stands for vertex i+1. One walk
    over its binary digits from the lowest member up, so the cost is
    linear in the span of the members whatever their number."""
    skip = max((mask & -mask).bit_length() - 1, 0)
    digits = bin(mask >> skip)[:1:-1]
    return frozenset([v for v, digit in enumerate(digits, start=skip + 1) if digit == "1"])


def _edge_pairs(adj: tuple[int, ...]):
    """Yield each edge (u, v), u < v, that the neighbour bitmasks ``adj``
    hold, in lexicographic order."""
    for u, nb in enumerate(adj, start=1):
        nb >>= u
        while nb:
            bit = nb & -nb
            yield u, u + bit.bit_length()
            nb ^= bit


def _edges_of(adj: tuple[int, ...]) -> frozenset[Edge]:
    """The edges (u, v), u < v, that the neighbour bitmasks ``adj`` hold."""
    return frozenset(_edge_pairs(adj))


@dataclass(frozen=True, init=False, repr=False)
class Graph:
    """Simple undirected graph: ``order`` vertices labeled 1..order and a
    set of unordered edges with distinct in-range endpoints.

    The per-vertex neighbour bitmasks ``adjacency_masks`` (bit i stands
    for vertex i+1) are the only store, filled when the graph is made:
    equality, hashing, ``size`` and every query read them.
    ``Graph(order, edges)`` checks the edges it is given and ORs each into
    the masks in the same pass; the operators, builders and dissections
    build straight into masks. ``edges`` is a view built from the masks
    the first time it is read, for output. Graphs are frozen: assigning
    or deleting a field raises, so the two constructors fill ``__dict__``
    directly, as ``cached_property`` does for ``edges`` and
    ``has_triangle``.
    """

    order: int
    adjacency_masks: tuple[int, ...]

    def __init__(self, order: int, edges: Iterable[Edge] = frozenset()) -> None:
        if order < 0:
            raise ValueError(f"order must be non-negative, got {order}")
        masks = [0] * order
        outside = None
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop edge ({u}, {v}) is not allowed")
            if u > v:
                u, v = v, u
            if 1 <= u and v <= order:
                masks[u - 1] |= 1 << (v - 1)
                masks[v - 1] |= 1 << (u - 1)
            elif outside is None:
                outside = u, v
        if outside is not None:
            raise ValueError(f"edge ({outside[0]}, {outside[1]}) out of range 1..{order}")
        self.__dict__.update(order=order, adjacency_masks=tuple(masks))

    @classmethod
    def _from_masks(cls, masks: list[int]) -> Graph:
        """The graph on len(masks) vertices with these neighbour bitmasks,
        trusted unchecked: the caller guarantees they are symmetric,
        loop-free and in range."""
        g = object.__new__(cls)
        g.__dict__.update(order=len(masks), adjacency_masks=tuple(masks))
        return g

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edge set, each edge a tuple (u, v) with u < v."""
        return _edges_of(self.adjacency_masks)

    @property
    def vertices(self) -> range:
        return range(1, self.order + 1)

    @property
    def size(self) -> int:
        """Number of edges."""
        return sum(nb.bit_count() for nb in self.adjacency_masks) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not (1 <= u <= self.order and 1 <= v <= self.order):
            return False
        return self.adjacency_masks[u - 1] >> (v - 1) & 1 == 1

    @cached_property
    def has_triangle(self) -> bool:
        """True iff some edge's endpoints have a common neighbour."""
        adj = self.adjacency_masks
        return any(adj[u - 1] & adj[v - 1] for u, v in _edge_pairs(adj))

    def _vertex_mask(self, vertices: Iterable[int]) -> int:
        """The bitmask of ``vertices`` (bit i stands for vertex i+1), read
        in one pass that rejects the first vertex outside 1..order: the
        one reader of a caller's vertex set."""
        order = self.order
        mask = 0
        for v in vertices:
            if not 1 <= v <= order:
                raise ValueError(f"vertex {v} out of range 1..{order}")
            mask |= 1 << (v - 1)
        return mask

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph(order={self.order}, size={self.size})"


# ---------------------------------------------------------------------------
# family builders


def path(m: int) -> Graph:
    """Path P_m: vertices 1..m, edges {i, i+1}."""
    _require("path", m, 1)
    return Graph(m, [(i, i + 1) for i in range(1, m)])


def cycle(m: int) -> Graph:
    """Cycle C_m: the path edges plus {1, m}; needs m >= 3."""
    _require("cycle", m, 3)
    return Graph(m, [(i, i + 1) for i in range(1, m)] + [(1, m)])


def complete(m: int) -> Graph:
    """Complete graph K_m."""
    _require("complete", m, 1)
    return Graph(m, combinations(range(1, m + 1), 2))


def join(g: Graph, h: Graph) -> Graph:
    """Join of g and h: disjoint union (h relabeled after g) plus every
    edge between a g-vertex and an h-vertex."""
    if g.order < 1 or h.order < 1:
        raise ValueError("join needs two non-empty graphs")
    n = g.order
    left = (1 << n) - 1
    right = ((1 << h.order) - 1) << n
    return Graph._from_masks([nb | right for nb in g.adjacency_masks]
                             + [nb << n | left for nb in h.adjacency_masks])


def fan(m: int) -> Graph:
    """Fan: path P_m joined with one apex vertex, labeled m+1."""
    _require("fan", m, 1)
    return join(path(m), complete(1))


def wheel(m: int) -> Graph:
    """Wheel: cycle C_m joined with one apex vertex, labeled m+1."""
    _require("wheel", m, 3)
    return join(cycle(m), complete(1))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """Disjoint union, with h relabeled to g.order+1 .. g.order+h.order."""
    n = g.order
    return Graph._from_masks([*g.adjacency_masks, *(nb << n for nb in h.adjacency_masks)])


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product: vertex (a, b) gets label (a-1)*h.order + b;
    (a, b) ~ (a', b') iff a = a' and b ~ b', or b = b' and a ~ a'."""
    if g.order < 1 or h.order < 1:
        raise ValueError("cartesian product needs two non-empty graphs")
    n = h.order
    masks: list[int] = []
    for nb in g.adjacency_masks:
        # column << b holds the vertices (a', b) with a' ~ a
        column = sum(1 << (a - 1) * n for a in _mask_to_set(nb))
        shift = len(masks)
        masks += [hb << shift | column << b for b, hb in enumerate(h.adjacency_masks)]
    return Graph._from_masks(masks)


# ---------------------------------------------------------------------------
# dissection


def _kept_subgraph(g: Graph, kept: int) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the vertices of the mask ``kept``, compacted
    to 1..k in ascending order, and the old-to-new label map; each kept
    vertex's mask is read off its neighbours in ``kept``, bit by bit."""
    relabel = {old: new for new, old in enumerate(sorted(_mask_to_set(kept)), start=1)}
    adj = g.adjacency_masks
    masks = []
    for v in relabel:
        nb, mask = adj[v - 1] & kept, 0
        while nb:
            bit = nb & -nb
            mask |= 1 << (relabel[bit.bit_length()] - 1)
            nb ^= bit
        masks.append(mask)
    return Graph._from_masks(masks), relabel


def delete_vertices(g: Graph, victims: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on the vertices outside ``victims``.

    Surviving vertices are compacted to 1..k preserving relative order.
    Returns the new graph and the old-to-new label map (invert it to
    translate results back to the original labels).
    """
    return _kept_subgraph(g, ((1 << g.order) - 1) ^ g._vertex_mask(victims))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep``, compacted like ``delete_vertices``."""
    return _kept_subgraph(g, g._vertex_mask(keep))


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

    Components are ordered by their smallest original vertex, and each
    part is built from its flood-fill mask and its own vertices'
    neighbour masks.
    """
    if g.order < 1:
        raise ValueError("components needs a non-empty graph")
    comps = _component_masks(g.adjacency_masks, (1 << g.order) - 1)
    return [_kept_subgraph(g, comp) for comp in comps]


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

"""Tour of the graph families and the three token-style operators.

Run:  python demos/01_token_graph_zoo.py
"""

from tokengraphs import (
    complete,
    cycle,
    double_vertex,
    fan,
    k_token,
    pair_graph,
    path,
    wheel,
)
from tokengraphs.exports import derived_to_dot, derived_to_json, graph_to_json, token_text

# Base families. Vertices are 1..m; fans and wheels put the apex at m+1.
for name, g in [
    ("path(5)", path(5)),
    ("cycle(5)", cycle(5)),
    ("complete(4)", complete(4)),
    ("fan(4)", fan(4)),
    ("wheel(4)", wheel(4)),
]:
    print(f"{name}: {g.order} vertices, {g.size} edges")

print()

# The double vertex graph lives on 2-subsets: C(5,2) = 10 of them for a
# 5-vertex base. Two subsets are adjacent when swapping one element for
# a neighbor turns one into the other.
dv = double_vertex(fan(4))
print("double_vertex(fan(4)):", dv.graph.order, "vertices,", dv.graph.size, "edges")
print("tokens containing the apex:", [token_text(t) for t in dv.labels if 5 in t])

# The pair graph allows repeated elements, adding the n 'diagonal'
# tokens {x,x}; the diagonal is always an independent set.
pg = pair_graph(cycle(4))
print("pair_graph(cycle(4)):", pg.graph.order, "vertices,", pg.graph.size, "edges")
print("diagonal tokens:", [token_text(t) for t in pg.labels if t[0] == t[1]])

# k_token generalizes to k moving tokens; k = 2 is exactly double_vertex,
# and k-subsets mirror (n-k)-subsets.
t3 = k_token(path(5), 3)
print("k_token(path(5), 3):", t3.graph.order, "vertices,", t3.graph.size, "edges")

print()

# Everything serializes deterministically for golden files and graphviz.
print("JSON of path(4):", graph_to_json(path(4)))
print("JSON of double_vertex(path(3)):", derived_to_json(double_vertex(path(3))))
print("DOT of pair_graph(path(2)):")
print(derived_to_dot(pair_graph(path(2))))

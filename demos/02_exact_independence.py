"""Exact maximum independent sets: the enumeration oracle against the
branch-and-bound solver.

Run:  python demos/02_exact_independence.py
"""

from tokengraphs import (
    alpha,
    brute_force_alpha,
    cycle,
    double_vertex,
    fan,
    index_of,
    is_independent,
    pair_graph,
    wheel,
)
from tokengraphs.exports import token_text

# Two routes to the same number: brute_force_alpha enumerates, alpha
# branches on max-degree vertices under clique-, cycle- and triangle-cover
# bounds.
samples = [
    ("double_vertex(wheel(3))", double_vertex(wheel(3)).graph),
    ("double_vertex(fan(6))", double_vertex(fan(6)).graph),
    ("pair_graph(cycle(5))", pair_graph(cycle(5)).graph),
]
for name, g in samples:
    brute = brute_force_alpha(g)
    smart = alpha(g)
    assert brute.alpha == smart.alpha
    print(f"{name}: alpha = {smart.alpha} "
          f"(brute {brute.nodes} nodes, b&b {smart.nodes} nodes)")

# Witnesses come back as vertex sets and can be re-certified.
dg = double_vertex(fan(6))
result = alpha(dg.graph)
tokens = [token_text(dg.labels[v - 1]) for v in sorted(result.witness.members)]
print("\none maximum independent set of double_vertex(fan(6)):")
print("  " + " ".join(tokens))
print("  independent:", is_independent(dg.graph, result.witness.members))

# The big instances stay comfortable: 78 vertices solve in milliseconds.
big = pair_graph(cycle(12)).graph
result = alpha(big)
print(f"\npair_graph(cycle(12)): {big.order} vertices, alpha = {result.alpha}, "
      f"{result.nodes} nodes, {result.elapsed * 1000:.1f} ms")

# Conditional solves: alpha(g, avoid=...) finds the best independent set
# that leaves the given vertices out, without copying the graph.
dg = pair_graph(cycle(7))
corner = index_of(dg, (1, 7))
print(f"\nalpha(C(C7)) avoiding the corner token {{1,7}}: "
      f"{alpha(dg.graph, avoid=[corner]).alpha} (unchanged from {alpha(dg.graph).alpha})")

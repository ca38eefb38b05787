"""The shift map {i, j} -> {i, j+1} carries the pair graph of a path
onto the double vertex graph of a one-longer path, vertex for vertex.

Run:  python demos/05_shift_isomorphism.py
"""

from tokengraphs import double_vertex, index_of, pair_graph, path
from tokengraphs.exports import token_text
from tokengraphs.witnesses import phi, phi_inverse

n = 5
source = pair_graph(path(n))
target = double_vertex(path(n + 1))
print(f"pair_graph(path({n})): {source.graph.order} vertices, {source.graph.size} edges")
print(f"double_vertex(path({n + 1})): {target.graph.order} vertices, {target.graph.size} edges")

# The map in action: diagonals become consecutive pairs.
for tok in source.labels[:6]:
    print(f"  phi({token_text(tok)}) = {token_text(phi(tok))}")

# Not just abstractly isomorphic: phi keeps each token's lexicographic
# rank, so it maps vertex i to vertex i and the two graphs are equal.
print("phi keeps every rank:",
      all(index_of(target, phi(t)) == i for i, t in enumerate(source.labels, start=1)))
print("the two graphs are equal:", source.graph == target.graph)
print("round trip restores every token:",
      all(phi_inverse(phi(t)) == t for t in source.labels))

# This shift is why the pair-path closed form is the path form shifted
# by one: alpha(C(P_m)) = floor((m+1)^2 / 4).
from tokengraphs import alpha
from tokengraphs.formulas import dv_path, pair_path

for m in range(3, 9):
    got = alpha(pair_graph(path(m)).graph).alpha
    print(f"m={m}: solver {got}, pair_path {pair_path(m)}, dv_path(m+1) {dv_path(m + 1)}")

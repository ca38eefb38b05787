"""The structured vertex sets behind the closed forms.

Run:  python demos/04_structured_witnesses.py
"""

from tokengraphs import cycle, fan, is_independent, multiset_token, pair_graph, pair_ranks
from tokengraphs import formulas, witnesses

m = 9

# The l_set slices partition the vertices of pair_graph(cycle(m)):
# slice q holds the q multisets {j, m-(q-j)}, as (j, m-(q-j)) pairs.
# Slice m is the diagonal.
dg = pair_graph(cycle(m))
total = sum(len(witnesses.l_set(m, q)) for q in range(1, m + 1))
print(f"l_set slices of C(C_{m}): sizes 1..{m}, total {total} = {dg.graph.order} vertices")
print("slice 3:", " ".join(str(multiset_token(*p)) for p in witnesses.l_set(m, 3)))
print("slice 9:", " ".join(str(multiset_token(*p)) for p in witnesses.l_set(m, 9)))

# Exactly one slice fails to be independent: q = (m+1)/2 for odd m.
for q in range(1, m + 1):
    ok = is_independent(dg.graph, pair_ranks(dg, witnesses.l_set(m, q)))
    assert ok == witnesses.l_is_independent_expected(m, q)
print(f"dependent slices for m={m}:",
      [q for q in range(1, m + 1) if not witnesses.l_is_independent_expected(m, q)])

# Slices are linked only consecutively and across the mirror i + j = m+1.
print("linking profile:", sorted(witnesses.linking_profile(m)))

# Taking alternating unlinked slices yields a maximum independent set.
w = pair_ranks(dg, witnesses.pair_cycle_witness_pairs(m))
print(f"alternating-slice witness: size {len(w)} = pair_cycle({m}) = {formulas.pair_cycle(m)}")

# Fans and wheels gain exactly one more vertex: the apex diagonal.
wf = witnesses.pair_fan_witness_pairs(6)
print("\npair fan witness for m=6 ends with the apex diagonal:", multiset_token(*wf[-1]))
fan_dg = pair_graph(fan(6))
members = pair_ranks(fan_dg, wf)
assert is_independent(fan_dg.graph, members)
print(f"size {len(members)} = pair_fan(6) = {formulas.pair_fan(6)}")

# Deleting every token through one base vertex drops the path double
# vertex graph to the next shorter value.
from tokengraphs import double_vertex, path
from tokengraphs.verify import alpha_after_deleting_tokens

dv = double_vertex(path(7))
drops = [alpha_after_deleting_tokens(dv, witnesses.r_set_dv(7, i)) for i in range(1, 8)]
print(f"\nalpha(F2(P7) minus slice i) for i=1..7: {drops} (all {formulas.dv_path(6)})")

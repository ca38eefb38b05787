"""Acceptance sweep: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
All comparisons are exact integer equalities.
"""

import random
import time

from tokengraphs import formulas as F
from tokengraphs import witnesses as W
from tokengraphs.graphs import (
    cartesian_product,
    complete,
    components,
    cycle,
    disjoint_union,
    fan,
    path,
    wheel,
)
from tokengraphs.mis import alpha, brute_force_alpha, is_independent
from tokengraphs.operators import (
    double_vertex,
    index_of,
    indices_of,
    k_token,
    pair_graph,
)
from tokengraphs.verify import (
    alpha_after_deleting_tokens,
    check_component_decomposition,
    check_token_deletion_commutes,
    random_graph,
)

from .oracles import exhaustive_alpha


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_fan_double_vertex_alpha_sweep():
    started = time.perf_counter()
    for m in range(2, 13):
        got = alpha(double_vertex(fan(m)).graph).alpha
        assert got == m * m // 4, (m, got)
    elapsed = time.perf_counter() - started
    report(1, elapsed < 60.0, f"alpha(F2(fan(m))) = floor(m^2/4) for m=2..12 in {elapsed:.1f}s")


def test_c02_wheel_double_vertex_alpha_sweep():
    assert alpha(double_vertex(wheel(3)).graph).alpha == 2
    for m in range(4, 13):
        got = alpha(double_vertex(wheel(m)).graph).alpha
        assert got == F.dv_wheel(m) == F.dv_cycle(m), (m, got)
    report(2, True, "alpha(F2(wheel(3))) = 2 and matches the cycle form for m=4..12")


def test_c03_pair_path_shift_isomorphism_and_alpha():
    for m in range(3, 11):
        assert pair_graph(path(m)).graph == double_vertex(path(m + 1)).graph, m
        got = alpha(pair_graph(path(m)).graph).alpha
        assert got == (m + 1) ** 2 // 4, (m, got)
    report(3, True, "the pair graph of P_m equals F2(P_{m+1}) and alpha matches, m=3..10")


def test_c04_pair_cycle_alpha_and_witness():
    for m in range(3, 13):
        dg = pair_graph(cycle(m))
        expected = F.pair_cycle(m)
        assert alpha(dg.graph).alpha == expected, m
        witness = indices_of(dg, W.pair_cycle_witness_pairs(m))
        assert is_independent(dg.graph, witness), m
        assert len(witness) == expected, m
    report(4, True, "alpha(C(C_m)) matches the parity formula with certifying witness, m=3..12")


def test_c05_apex_adds_exactly_one():
    for m in range(3, 11):
        fan_alpha = alpha(pair_graph(fan(m)).graph).alpha
        path_alpha = alpha(pair_graph(path(m)).graph).alpha
        assert fan_alpha == path_alpha + 1, m
        wheel_alpha = alpha(pair_graph(wheel(m)).graph).alpha
        cycle_alpha = alpha(pair_graph(cycle(m)).graph).alpha
        assert wheel_alpha == cycle_alpha + 1, m

        fan_dg = pair_graph(fan(m))
        fw = indices_of(fan_dg, W.pair_fan_witness_pairs(m))
        assert is_independent(fan_dg.graph, fw) and len(fw) == fan_alpha, m
        wheel_dg = pair_graph(wheel(m))
        ww = indices_of(wheel_dg, W.pair_wheel_witness_pairs(m))
        assert is_independent(wheel_dg.graph, ww) and len(ww) == wheel_alpha, m
    report(5, True, "pair-graph apex joins add exactly one, witnesses achieve it, m=3..10")


def test_c06_grid_alpha_closed_form():
    cases = 0
    for r in range(1, 7):
        for s in range(1, 7):
            grid = cartesian_product(path(r), path(s))
            assert brute_force_alpha(grid, cap=36).alpha == F.grid_alpha(r, s), (r, s)
            cases += 1
    report(6, cases == 36, f"brute-force grid alpha equals the checkerboard form on {cases} grids")


def test_c07_disjoint_union_component_decomposition():
    pairs = [(path(3), path(4)), (path(3), cycle(4)), (cycle(3), cycle(4))]
    for g1, g2 in pairs:
        assert check_component_decomposition(g1, g2)
    parts = components(double_vertex(disjoint_union(path(3), path(4))).graph)
    report(7, len(parts) == 3, "F2 of disjoint unions splits into the two F2 parts plus the product")


def test_c08_token_deletion_commutes_on_random_graphs():
    rng = random.Random(2024)
    failures = 0
    graphs_checked = 0
    while graphs_checked < 50:
        n = rng.randint(3, 7)
        g = random_graph(rng, n)
        graphs_checked += 1
        for k in (2, 3):
            if k > g.order:
                continue
            victims = set(rng.sample(range(1, g.order + 1), rng.randint(0, g.order - k)))
            if not check_token_deletion_commutes(g, victims, k):
                failures += 1
    report(8, failures == 0, f"token deletion commutes on 50 seeded graphs, {failures} failures")


def test_c09_slice_dichotomy_and_linking_profile():
    for m in range(3, 16):
        dg = pair_graph(cycle(m))
        for q in range(1, m + 1):
            actual = is_independent(dg.graph, indices_of(dg, W.l_set(m, q)))
            assert actual == W.l_is_independent_expected(m, q), (m, q)
    for m in range(4, 13):
        assert W.linking_profile(m) == W.predicted_linking_profile(m), m
    report(9, True, "slice independence dichotomy (m=3..15) and exact linking profile (m=4..12)")


def test_c10_token_slice_deletion_identities():
    for m in range(4, 11):
        dv = double_vertex(path(m))
        shorter = (m - 1) ** 2 // 4
        for i in range(1, m + 1):
            assert alpha_after_deleting_tokens(dv, W.r_set_dv(m, i)) == shorter, (m, i)
        for i in range(1, m + 1):
            for j in range(i + 2, m + 1):
                union = set(W.r_set_dv(m, i)) | set(W.r_set_dv(m, j))
                assert alpha_after_deleting_tokens(dv, union) < shorter, (m, i, j)
        pair = pair_graph(path(m))
        bound = m * m // 4 + 1
        for i in range(1, m + 1):
            assert alpha_after_deleting_tokens(pair, W.r_set_pair(m, i)) <= bound, (m, i)
    report(10, True, "slice deletions hit the shorter-path value, strictly less for double deletions")


def test_c11_corner_token_avoidance():
    for n in (5, 7, 9, 11):
        dg = pair_graph(cycle(n))
        corner = index_of(dg, (1, n))
        assert alpha(dg.graph, avoid=[corner]).alpha == F.pair_cycle(n), n
    report(11, True, "avoiding the corner token {1,n} keeps alpha for odd n in 5..11")


def _oracle_corpus():
    graphs = []
    graphs += [path(m) for m in range(1, 21)]
    graphs += [cycle(m) for m in range(3, 21)]
    graphs += [complete(n) for n in range(1, 11)]
    graphs += [fan(m) for m in range(1, 16)]
    graphs += [wheel(m) for m in range(3, 16)]
    graphs += [double_vertex(path(m)).graph for m in range(2, 7)]
    graphs += [double_vertex(cycle(m)).graph for m in range(3, 7)]
    graphs += [double_vertex(fan(m)).graph for m in range(1, 6)]
    graphs += [double_vertex(wheel(m)).graph for m in range(3, 6)]
    graphs += [pair_graph(path(m)).graph for m in range(2, 6)]
    graphs += [pair_graph(cycle(m)).graph for m in range(3, 6)]
    graphs += [pair_graph(fan(m)).graph for m in range(1, 5)]
    graphs += [pair_graph(wheel(m)).graph for m in range(3, 5)]
    graphs += [k_token(path(m), 3).graph for m in range(3, 7)]
    for r in range(1, 5):
        for s in range(r, 21):
            if r * s <= 20:
                graphs.append(cartesian_product(path(r), path(s)))
    for m in (5, 6):
        dv = double_vertex(path(m))
        for i in range(1, m + 1):
            from tokengraphs.graphs import delete_vertices

            sub, _ = delete_vertices(dv.graph, indices_of(dv, W.r_set_dv(m, i)))
            graphs.append(sub)
    rng = random.Random(99)
    graphs += [random_graph(rng, rng.randint(4, 10)) for _ in range(60)]
    return [g for g in graphs if 1 <= g.order <= 20]


def test_c12_solver_agrees_with_oracle_on_corpus():
    corpus = _oracle_corpus()
    assert len(corpus) >= 200
    spot_checked = 0
    for g in corpus:
        expected = brute_force_alpha(g).alpha
        assert alpha(g).alpha == expected, g
        if g.order <= 9:
            assert exhaustive_alpha(g) == expected, g
            spot_checked += 1
    report(12, True, f"branch-and-bound equals brute force on {len(corpus)} graphs "
                     f"({spot_checked} re-checked exhaustively)")


def test_c13_sequence_identities():
    assert F.a002620_recurrence_checks(200)
    for m in range(1, 201):
        assert F.pair_fan(m) == (m + 1) ** 2 // 4 + 1, m
    report(13, True, "quarter-square recurrences and the fan pair sequence hold to 200")

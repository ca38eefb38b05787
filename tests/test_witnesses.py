import pytest

from tokengraphs import formulas as F
from tokengraphs import witnesses as W
from tokengraphs.graphs import cycle, fan, path, wheel
from tokengraphs.mis import BRUTE_FORCE_CAP, alpha, brute_force_alpha, is_independent
from tokengraphs.operators import double_vertex, index_of, indices_of, pair_graph, token_label_of
from tokengraphs.verify import FAMILIES, alpha_after_deleting_tokens


# ---------------------------------------------------------------------------
# structured slices


def test_l_set_diagonal_slice():
    assert W.l_set(4, 4) == ((1, 1), (2, 2), (3, 3), (4, 4))


def test_l_set_middle_slice():
    assert W.l_set(5, 3) == ((1, 3), (2, 4), (3, 5))


def test_l_set_first_slice():
    assert W.l_set(4, 1) == ((1, 4),)


def test_l_set_sizes_and_domain():
    for m in range(3, 10):
        for q in range(1, m + 1):
            assert len(W.l_set(m, q)) == q
    with pytest.raises(ValueError):
        W.l_set(4, 0)
    with pytest.raises(ValueError):
        W.l_set(4, 5)
    with pytest.raises(ValueError):
        W.l_set(2, 1)


@pytest.mark.parametrize("m", range(3, 16))
def test_l_sets_partition_pair_cycle_vertices(m):
    dg = pair_graph(cycle(m))
    seen = []
    for q in range(1, m + 1):
        seen.extend(W.l_set(m, q))
    assert len(seen) == len(set(seen)) == dg.graph.order
    assert set(seen) == set(dg.labels)


@pytest.mark.parametrize("m", range(3, 16))
def test_l_set_independence_dichotomy(m):
    dg = pair_graph(cycle(m))
    for q in range(1, m + 1):
        actual = is_independent(dg.graph, indices_of(dg, W.l_set(m, q)))
        assert actual == W.l_is_independent_expected(m, q), (m, q)


def test_l_is_independent_expected_pattern():
    assert not W.l_is_independent_expected(5, 3)  # m = 2q-1
    assert W.l_is_independent_expected(4, 2)
    for m in range(3, 12):
        assert W.l_is_independent_expected(m, 1)
        assert W.l_is_independent_expected(m, m)


# ---------------------------------------------------------------------------
# linking


def test_linked_consecutive_slices():
    assert (2, 3) in W.linking_profile(5)


def test_not_linked_distant_slices():
    assert (1, 3) not in W.linking_profile(6)


def test_linking_profile_m4():
    assert W.linking_profile(4) == frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})


def test_linking_profile_m5_includes_mirror_pair():
    profile = W.linking_profile(5)
    assert (1, 5) in profile
    assert (3, 3) in profile  # the dependent middle slice links to itself


@pytest.mark.parametrize("m", range(4, 13))
def test_linking_profile_matches_prediction(m):
    assert W.linking_profile(m) == W.predicted_linking_profile(m)


def test_no_unexpected_distant_links():
    for m in (6, 8):
        for i, j in W.linking_profile(m):
            assert j - i <= 1 or i + j == m + 1


# ---------------------------------------------------------------------------
# r sets


def test_r_set_dv_matches_listing():
    assert W.r_set_dv(4, 2) == ((1, 2), (2, 3), (2, 4))


def test_r_set_pair_matches_listing():
    assert W.r_set_pair(4, 2) == ((1, 2), (2, 2), (2, 3), (2, 4))


def test_r_set_sizes():
    for m in range(2, 9):
        for q in range(1, m + 1):
            assert len(W.r_set_dv(m, q)) == m - 1
            assert len(W.r_set_pair(m, q)) == m


def test_apex_slices():
    # the apex tokens of a fan or wheel on m base vertices: the slice
    # through the apex m+1
    assert W.r_set_dv(5, 5) == ((1, 5), (2, 5), (3, 5), (4, 5))
    assert W.r_set_pair(4, 4) == ((1, 4), (2, 4), (3, 4), (4, 4))


# ---------------------------------------------------------------------------
# witnesses


@pytest.mark.parametrize("m", range(3, 13))
def test_pair_cycle_witness(m):
    dg = pair_graph(cycle(m))
    members = indices_of(dg, W.pair_cycle_witness_pairs(m))
    assert is_independent(dg.graph, members)
    assert len(members) == F.pair_cycle(m)


def test_pair_cycle_witness_slice_selection():
    # even: all even slices; odd k: skip the middle slice upward
    assert len(W.pair_cycle_witness_pairs(4)) == 6  # slices 2 and 4
    pairs7 = W.pair_cycle_witness_pairs(7)  # k=3 odd: slices 2, 5, 7
    assert len(pairs7) == 2 + 5 + 7
    pairs9 = W.pair_cycle_witness_pairs(9)  # k=4 even: slices 2, 4, 7, 9
    assert len(pairs9) == 2 + 4 + 7 + 9
    assert len(W.pair_cycle_witness_pairs(3)) == 3  # degenerate diagonal slice


@pytest.mark.parametrize("m", range(2, 12))
def test_dv_path_witness(m):
    dg = double_vertex(path(m))
    members = indices_of(dg, W.dv_path_witness_pairs(m))
    assert is_independent(dg.graph, members)
    assert len(members) == F.dv_path(m)


def test_dv_path_witness_m4_listing():
    assert W.dv_path_witness_pairs(4) == ((1, 2), (1, 4), (2, 3), (3, 4))


def test_dv_path_witness_m2():
    assert W.dv_path_witness_pairs(2) == ((1, 2),)


@pytest.mark.parametrize("m", range(1, 12))
def test_dv_fan_witness(m):
    dg = double_vertex(fan(m))
    members = indices_of(dg, W.dv_fan_witness_pairs(m))
    assert is_independent(dg.graph, members)
    assert len(members) == F.dv_fan(m)


@pytest.mark.parametrize("m", range(2, 11))
def test_pair_path_witness(m):
    dg = pair_graph(path(m))
    members = indices_of(dg, W.pair_path_witness_pairs(m))
    assert is_independent(dg.graph, members)
    assert len(members) == F.pair_path(m)


def test_pair_path_witness_is_the_dv_path_witness_pulled_back():
    for m in range(1, 31):
        pulled = tuple(W.phi_inverse(p) for p in W.dv_path_witness_pairs(m + 1))
        assert W.pair_path_witness_pairs(m) == pulled


@pytest.mark.parametrize("m", range(2, 11))
def test_pair_fan_witness(m):
    dg = pair_graph(fan(m))
    members = indices_of(dg, W.pair_fan_witness_pairs(m))
    assert is_independent(dg.graph, members)
    assert len(members) == F.pair_fan(m)


def test_pair_fan_witness_contains_apex_diagonal():
    assert (4, 4) in W.pair_fan_witness_pairs(3)


@pytest.mark.parametrize("m", range(3, 11))
def test_pair_wheel_witness(m):
    dg = pair_graph(wheel(m))
    members = indices_of(dg, W.pair_wheel_witness_pairs(m))
    assert is_independent(dg.graph, members)
    assert len(members) == F.pair_wheel(m)


def test_pair_wheel_witness_m4_composition():
    pairs = W.pair_wheel_witness_pairs(4)
    assert (5, 5) in pairs
    assert len(pairs) == 7


@pytest.mark.parametrize("base, formula, first, last", [
    (cycle, F.dv_cycle, 3, 80), (wheel, F.dv_wheel, 4, 40),
], ids=["cycle", "wheel"])
def test_dv_cycle_witness(base, formula, first, last):
    for m in range(first, last + 1):
        pairs = W.dv_cycle_witness_pairs(m)
        dg = double_vertex(base(m))
        members = indices_of(dg, pairs)
        assert len(set(pairs)) == len(members) == formula(m), m
        assert is_independent(dg.graph, members), m
        if dg.graph.order <= BRUTE_FORCE_CAP:  # m <= 7 on the cycle, m <= 6 on the wheel
            assert brute_force_alpha(dg.graph).alpha == len(pairs), m


def test_dv_cycle_witness_listings():
    # j = 1: the one token {1, 2}; j = 2: distance 1 only; j = 3: three tokens at distance 3 too
    assert W.dv_cycle_witness_pairs(3) == ((1, 2),)
    assert W.dv_cycle_witness_pairs(4) == ((1, 2), (1, 4), (2, 3), (3, 4))
    assert W.dv_cycle_witness_pairs(7) == (
        (1, 2), (1, 4), (1, 7), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (5, 6), (6, 7))


def test_dv_wheel_witness_pairs_never_reads_its_solve(monkeypatch):
    # the pinned solve avoids the apex tokens, starts from the cycle
    # construction and closes at the root; the spy hands back None, so any
    # code that read the result would fail
    calls = []

    def spy(g, **kwargs):
        calls.append((kwargs, alpha(g, **kwargs).nodes))

    monkeypatch.setattr(W, "alpha", spy)
    for m in range(4, 25):
        pairs = W.dv_wheel_witness_pairs(m)
        dg = double_vertex(wheel(m))
        assert pairs == W.dv_cycle_witness_pairs(m), m
        assert len(calls) == m - 3, m
        assert calls[-1] == ({"avoid": indices_of(dg, W.r_set_dv(m + 1, m + 1)),
                              "incumbent": indices_of(dg, pairs)}, 1), m


@pytest.mark.parametrize("m", range(4, 11))
def test_dv_wheel_witness(m):
    pairs = W.dv_wheel_witness_pairs(m)
    dg = double_vertex(wheel(m))
    members = indices_of(dg, pairs)
    assert is_independent(dg.graph, members)
    assert len(members) == F.dv_wheel(m)
    # from m = 4 the construction is the cycle witness, so it avoids the apex tokens
    assert pairs == W.dv_cycle_witness_pairs(m)
    assert not (members & indices_of(dg, W.r_set_dv(m + 1, m + 1)))


def test_dv_wheel_witness_m3_special_case():
    # the apex-free part of the m=3 wheel double vertex graph is a
    # triangle, so an apex-free set stops at 1 while the graph reaches 2;
    # the m = 3 construction uses the apex token {3, 4}
    dg = double_vertex(wheel(3))
    apex = indices_of(dg, W.r_set_dv(4, 4))
    assert alpha(dg.graph, avoid=apex).alpha == 1
    assert alpha(dg.graph).alpha == 2
    pairs = W.dv_wheel_witness_pairs(3)
    assert pairs == ((1, 2), (3, 4))
    assert is_independent(dg.graph, indices_of(dg, pairs))


# ---------------------------------------------------------------------------
# the witness contract: every construction covers its formula's domain

CONSTRUCTED = list(FAMILIES.values())


def _rejection(fn, m):
    """The message of the ``ValueError`` that ``fn(m)`` raises, or None."""
    try:
        fn(m)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("fam", CONSTRUCTED, ids=lambda fam: fam.name)
def test_construction_certifies_formula_on_every_swept_m(fam):
    for m in range(fam.min_m, 25):
        derived = fam.derive(fam.base(m))
        pairs = fam.witness_pairs(m)
        members = indices_of(derived, pairs)
        assert len(members) == len(pairs) == fam.formula(m), m
        assert is_independent(derived.graph, members), m


@pytest.mark.parametrize("fam", CONSTRUCTED, ids=lambda fam: fam.name)
def test_construction_rejects_exactly_where_formula_does(fam):
    for m in range(-2, 25):
        message = _rejection(fam.witness_pairs, m)
        assert (message is not None) == (_rejection(fam.formula, m) is not None), m
        if message is not None:
            assert message.startswith(f"{fam.name}_witness needs m >= "), (m, message)


# ---------------------------------------------------------------------------
# the shift isomorphism


def test_phi_examples():
    assert W.phi((1, 1)) == (1, 2)
    assert W.phi((2, 5)) == (2, 6)
    assert W.phi((1, 1, 1)) == (1, 2, 3)
    assert W.phi_inverse((2, 4, 7)) == (2, 3, 5)


def test_phi_order_checks():
    with pytest.raises(ValueError, match=r"^phi expects a non-decreasing tuple, got \(2, 1\)$"):
        W.phi((2, 1))
    with pytest.raises(ValueError, match=r"^phi_inverse expects a strictly increasing tuple, got \(1, 1\)$"):
        W.phi_inverse((1, 1))
    with pytest.raises(ValueError, match=r"^phi_inverse expects a strictly increasing tuple, got \(1, 3, 2\)$"):
        W.phi_inverse((1, 3, 2))


def test_phi_round_trip():
    dg = pair_graph(path(5))
    for tok in dg.labels:
        assert W.phi_inverse(W.phi(tok)) == tok


def test_phi_keeps_every_rank():
    # vertex i of the pair graph of P_m maps to vertex i of F2(P_{m+1})
    for m in range(2, 40):
        source, target = pair_graph(path(m)), double_vertex(path(m + 1))
        assert [index_of(target, W.phi(t)) for t in source.labels] == list(
            range(1, source.graph.order + 1)), m


@pytest.mark.parametrize("m", range(3, 11))
def test_phi_edge_image_equality(m):
    # phi applied token by token carries every edge of the pair graph of
    # P_m onto an edge of F2(P_{m+1}), and onto all of them
    source, target = pair_graph(path(m)), double_vertex(path(m + 1))
    image = set()
    for u, v in source.graph.edges:
        a, b = (index_of(target, W.phi(token_label_of(source, x))) for x in (u, v))
        image.add((min(a, b), max(a, b)))
    assert image == target.graph.edges


# ---------------------------------------------------------------------------
# solver-backed deletion identities


@pytest.mark.parametrize("m", [4, 5, 6])
def test_dv_slice_deletion_drops_to_shorter_path_value(m):
    dg = double_vertex(path(m))
    for i in range(1, m + 1):
        got = alpha_after_deleting_tokens(dg, W.r_set_dv(m, i))
        assert got == (m - 1) ** 2 // 4


@pytest.mark.parametrize("m", [5, 6])
def test_dv_double_slice_deletion_is_strict(m):
    dg = double_vertex(path(m))
    for i in range(1, m + 1):
        for j in range(i + 2, m + 1):
            pairs = set(W.r_set_dv(m, i)) | set(W.r_set_dv(m, j))
            assert alpha_after_deleting_tokens(dg, pairs) < (m - 1) ** 2 // 4


@pytest.mark.parametrize("m", [4, 5, 6])
def test_pair_slice_deletion_bound(m):
    dg = pair_graph(path(m))
    for i in range(1, m + 1):
        got = alpha_after_deleting_tokens(dg, W.r_set_pair(m, i))
        assert got <= m * m // 4 + 1

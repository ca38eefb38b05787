import pytest

from tokengraphs import formulas as F
from tokengraphs.graphs import cartesian_product, cycle, path
from tokengraphs.mis import brute_force_alpha
from tokengraphs.operators import double_vertex, pair_graph

from .oracles import exhaustive_alpha


@pytest.mark.parametrize("m,expected", [(2, 1), (5, 6), (8, 16), (3, 2), (4, 4)])
def test_dv_path_values(m, expected):
    assert F.dv_path(m) == expected


@pytest.mark.parametrize("m,expected", [(3, 1), (4, 4), (5, 5), (6, 9), (7, 10)])
def test_dv_cycle_values(m, expected):
    assert F.dv_cycle(m) == expected


def test_dv_cycle_3_matches_oracle():
    assert F.dv_cycle(3) == exhaustive_alpha(double_vertex(cycle(3)).graph) == 1


@pytest.mark.parametrize("m,expected", [(1, 1), (4, 4), (7, 12), (2, 1), (3, 2)])
def test_dv_fan_values(m, expected):
    assert F.dv_fan(m) == expected


@pytest.mark.parametrize("m,expected", [(3, 2), (4, 4), (5, 5), (6, 9), (11, 27)])
def test_dv_wheel_values(m, expected):
    assert F.dv_wheel(m) == expected


@pytest.mark.parametrize("m,expected", [(3, 4), (1, 1), (6, 12), (2, 2)])
def test_pair_path_values(m, expected):
    assert F.pair_path(m) == expected


@pytest.mark.parametrize("m,expected", [(3, 5), (4, 7), (1, 2)])
def test_pair_fan_values(m, expected):
    assert F.pair_fan(m) == expected


def test_pair_fan_1_matches_oracle():
    from tokengraphs.graphs import fan

    assert F.pair_fan(1) == exhaustive_alpha(pair_graph(fan(1)).graph) == 2


@pytest.mark.parametrize("m,expected", [(3, 3), (4, 6), (7, 14), (5, 7), (12, 42)])
def test_pair_cycle_values(m, expected):
    assert F.pair_cycle(m) == expected


@pytest.mark.parametrize("m,expected", [(3, 4), (4, 7), (5, 8)])
def test_pair_wheel_values(m, expected):
    assert F.pair_wheel(m) == expected


@pytest.mark.parametrize("r,s,expected", [(2, 2, 2), (3, 3, 5), (1, 7, 4), (1, 4, 2)])
def test_grid_values(r, s, expected):
    assert F.grid_alpha(r, s) == expected


def test_grid_3x3_matches_oracle():
    assert F.grid_alpha(3, 3) == exhaustive_alpha(cartesian_product(path(3), path(3))) == 5


def test_grid_row_reduces_to_path():
    for s in range(1, 9):
        assert F.grid_alpha(1, s) == F.alpha_path(s)


@pytest.mark.parametrize("m,expected", [(5, 3), (1, 1), (2, 1), (8, 4)])
def test_alpha_path_values(m, expected):
    assert F.alpha_path(m) == expected


@pytest.mark.parametrize("m,expected", [(6, 3), (3, 1), (7, 3)])
def test_alpha_cycle_values(m, expected):
    assert F.alpha_cycle(m) == expected


@pytest.mark.parametrize(
    "fn,bad_m",
    [
        (F.dv_path, 1),
        (F.dv_cycle, 2),
        (F.dv_fan, 0),
        (F.dv_wheel, 2),
        (F.pair_path, 0),
        (F.pair_fan, 0),
        (F.pair_cycle, 2),
        (F.pair_wheel, 2),
        (F.alpha_path, 0),
        (F.alpha_cycle, 2),
    ],
)
def test_domain_rejections(fn, bad_m):
    # bad_m is one below the accepted minimum, which the message names
    with pytest.raises(ValueError, match=f"^{fn.__name__} needs m >= {bad_m + 1}, got {bad_m}$"):
        fn(bad_m)


def test_grid_domain_rejection():
    with pytest.raises(ValueError):
        F.grid_alpha(0, 3)


def test_a002620_values():
    assert [F.a002620(n) for n in range(8)] == [0, 0, 1, 2, 4, 6, 9, 12]


def test_a002620_rejects_negative():
    with pytest.raises(ValueError):
        F.a002620(-1)


def test_a002620_recurrences():
    assert F.a002620_recurrence_checks(50)


def test_wheel_equals_cycle_form_from_4():
    for m in range(4, 40):
        assert F.dv_wheel(m) == F.dv_cycle(m)


def test_pair_path_equals_longer_dv_path():
    for m in range(2, 40):
        assert F.pair_path(m) == F.dv_path(m + 1)


def test_apex_adds_exactly_one():
    for m in range(1, 40):
        assert F.pair_fan(m) - F.pair_path(m) == 1
    for m in range(3, 40):
        assert F.pair_wheel(m) - F.pair_cycle(m) == 1


def test_pair_fan_matches_quarter_square_plus_one_sequence():
    for m in range(1, 200):
        assert F.pair_fan(m) == F.a002620(m + 1) + 1


def test_formulas_match_solver_on_small_instances():
    from tokengraphs.graphs import fan, wheel

    for m in range(2, 6):
        assert F.dv_path(m) == brute_force_alpha(double_vertex(path(m)).graph).alpha
    for m in range(3, 6):
        assert F.dv_cycle(m) == brute_force_alpha(double_vertex(cycle(m)).graph).alpha
        assert F.pair_cycle(m) == brute_force_alpha(pair_graph(cycle(m)).graph).alpha
        assert F.dv_wheel(m) == brute_force_alpha(double_vertex(wheel(m)).graph).alpha
    for m in range(2, 5):
        assert F.pair_path(m) == brute_force_alpha(pair_graph(path(m)).graph).alpha
        assert F.pair_fan(m) == brute_force_alpha(pair_graph(fan(m)).graph).alpha

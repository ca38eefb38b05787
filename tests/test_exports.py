from tokengraphs.exports import derived_to_dot, derived_to_json, graph_to_dot, graph_to_json
from tokengraphs.graphs import cycle, path
from tokengraphs.operators import double_vertex, pair_graph


def test_graph_json_golden():
    assert graph_to_json(path(4)) == '{"order": 4, "edges": [[1, 2], [2, 3], [3, 4]]}'


def test_derived_json_golden_subset_kind():
    assert derived_to_json(double_vertex(path(3))) == (
        '{"order": 3, "edges": [[1, 2], [2, 3]], '
        '"kind": "subset", "labels": [[1, 2], [1, 3], [2, 3]]}'
    )


def test_derived_json_golden_multiset_kind():
    assert derived_to_json(pair_graph(path(2))) == (
        '{"order": 3, "edges": [[1, 2], [2, 3]], '
        '"kind": "multiset", "labels": [[1, 1], [1, 2], [2, 2]]}'
    )


def test_json_edges_sorted_with_low_endpoint_first():
    text = graph_to_json(cycle(4))
    assert text == '{"order": 4, "edges": [[1, 2], [1, 4], [2, 3], [3, 4]]}'


def test_graph_dot_golden():
    assert graph_to_dot(path(3)) == "graph {\n  1;\n  2;\n  3;\n  1 -- 2;\n  2 -- 3;\n}\n"


def test_derived_dot_with_labels():
    text = derived_to_dot(double_vertex(path(3)))
    assert text == (
        "graph {\n"
        '  1 [label="{1,2}"];\n'
        '  2 [label="{1,3}"];\n'
        '  3 [label="{2,3}"];\n'
        "  1 -- 2;\n"
        "  2 -- 3;\n"
        "}\n"
    )


def test_exports_are_deterministic():
    dg = pair_graph(cycle(5))
    assert derived_to_json(dg) == derived_to_json(pair_graph(cycle(5)))
    assert derived_to_dot(dg) == derived_to_dot(pair_graph(cycle(5)))

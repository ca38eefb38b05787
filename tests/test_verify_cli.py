import contextlib
import dataclasses
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tokengraphs import mis, verify, witnesses
from tokengraphs.cli import main
from tokengraphs.graphs import Graph
from tokengraphs.mis import alpha, brute_force_alpha
from tokengraphs.operators import DerivedGraph, indices_of, token_label_of
from tokengraphs.verify import (
    CSV_COLUMNS,
    FAMILIES,
    RunConfig,
    SuiteResult,
    rows_to_csv,
    rows_to_json,
    rows_to_table,
    run_property_suites,
    run_sweep,
    suites_report,
    sweep_exit_code,
    verify_one,
)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(families=("nope",), m_range=None)
    with pytest.raises(ValueError):
        RunConfig(families=(), m_range=None)
    with pytest.raises(ValueError):
        RunConfig(families=("dv_path",), m_range=(5, 3))
    with pytest.raises(ValueError):
        RunConfig(families=("dv_path",), m_range=None, budget_ms=0)
    with pytest.raises(ValueError):
        RunConfig(families=("dv_path",), m_range=None, budget_ms=float("nan"))
    with pytest.raises(ValueError):
        RunConfig(families=("dv_path",), m_range=None, method="magic")


def test_single_row_pair_cycle_4():
    rows = run_sweep(RunConfig(families=("pair_cycle",), m_range=(4, 4)))
    assert len(rows) == 1
    row = rows[0]
    assert (row.family, row.operator, row.m) == ("pair_cycle", "pair_graph", 4)
    assert (row.vertices, row.formula, row.alpha, row.witness) == (10, 6, 6, 6)
    assert row.status == "ok"


def test_sweep_rows_sorted_and_all_ok():
    rows = run_sweep(RunConfig(families=("pair_path", "dv_path"), m_range=(3, 6)))
    assert [r.family for r in rows] == ["dv_path"] * 4 + ["pair_path"] * 4
    assert [r.m for r in rows] == [3, 4, 5, 6, 3, 4, 5, 6]
    assert all(r.status == "ok" for r in rows)
    assert sweep_exit_code(rows) == 0


def test_sweep_respects_family_minimum():
    rows = run_sweep(RunConfig(families=("dv_cycle",), m_range=(1, 4)))
    assert [r.m for r in rows] == [3, 4]


def test_dv_wheel_m3_row_has_witness():
    rows = run_sweep(RunConfig(families=("dv_wheel",), m_range=(3, 4)))
    assert rows[0].m == 3 and rows[0].witness == 2 and rows[0].status == "ok"
    assert rows[1].m == 4 and rows[1].witness == 4


def test_budget_abort_row_and_exit_code():
    config = RunConfig(families=("dv_fan",), m_range=(12, 12), method="bnb", budget_ms=1e-7)
    rows = run_sweep(config)
    assert rows[0].status == "aborted"
    assert rows[0].alpha is None and rows[0].witness is None
    assert sweep_exit_code(rows) == 2
    assert rows_to_csv(rows).split("\n")[1] == "dv_fan,double_vertex,12,78,36,,,aborted,0"


def test_default_method_budget_bounds_small_rows():
    rows = run_sweep(RunConfig(families=("dv_path",), m_range=(3, 6), budget_ms=1e-7))
    assert rows_to_csv(rows).split("\n")[1:-1] == [
        "dv_path,double_vertex,3,3,2,,,aborted,0",
        "dv_path,double_vertex,4,6,4,,,aborted,0",
        "dv_path,double_vertex,5,10,6,,,aborted,0",
        "dv_path,double_vertex,6,15,9,,,aborted,0",
    ]
    assert sweep_exit_code(rows) == 2


def test_csv_format_and_reproducibility():
    config = RunConfig(families=("pair_cycle",), m_range=(3, 5))
    first = rows_to_csv(run_sweep(config))
    second = rows_to_csv(run_sweep(config))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "family,operator,m,vertices,formula,alpha,witness,status,ms"
    assert lines[1] == "pair_cycle,pair_graph,3,6,3,3,3,ok,0"


def test_json_report_round_trips():
    config = RunConfig(families=("dv_path",), m_range=(2, 4))
    rows = run_sweep(config)
    payload = json.loads(rows_to_json(rows))
    assert [r["m"] for r in payload] == [2, 3, 4]
    assert payload[0] == {
        "family": "dv_path",
        "operator": "double_vertex",
        "m": 2,
        "vertices": 1,
        "formula": 1,
        "alpha": 1,
        "witness": 1,
        "status": "ok",
        "ms": 0,
    }
    assert rows_to_json(rows) == rows_to_json(run_sweep(config))


def test_json_report_matches_csv_columns_and_rows():
    rows = run_sweep(RunConfig(families=("dv_cycle", "pair_fan"), m_range=(3, 5)))
    payload = json.loads(rows_to_json(rows))
    assert all(tuple(obj) == CSV_COLUMNS for obj in payload)
    csv_rows = [line.split(",") for line in rows_to_csv(rows).strip().split("\n")[1:]]
    json_rows = [["" if v is None else str(v) for v in obj.values()] for obj in payload]
    assert json_rows == csv_rows


def test_table_contains_all_rows():
    rows = run_sweep(RunConfig(families=("dv_cycle",), m_range=(3, 5)))
    table = rows_to_table(rows)
    assert table.count("dv_cycle") == 3


def test_verify_one_detects_planted_mismatch():
    fam = FAMILIES["dv_path"]
    # the witness, one token short, meets the lowered formula, so only alpha disagrees
    broken = dataclasses.replace(fam, formula=lambda m: fam.formula(m) - 1,
                                 witness_pairs=lambda m: fam.witness_pairs(m)[1:])
    row = verify_one(broken, 5)
    assert (row.alpha, row.witness, row.formula, row.status) == (6, 5, 5, "mismatch")
    assert sweep_exit_code([row]) == 1


# every row of `verify --families all --m 3..24`
PAPER_ROWS = [(name, m) for name, fam in FAMILIES.items() for m in range(max(3, fam.min_m), 25)]


def test_witness_seed_changes_no_alpha_and_no_node_count():
    # the seed replaces the greedy incumbent only; on every paper row it is
    # as large as the greedy set was, so the search tree stays the same
    for name, m in PAPER_ROWS:
        fam = FAMILIES[name]
        dg = fam.derive(fam.base(m))
        seed = indices_of(dg, fam.witness_pairs(m))
        seeded = alpha(dg.graph, incumbent=seed)
        unseeded = alpha(dg.graph)
        assert (seeded.alpha, seeded.nodes) == (unseeded.alpha, unseeded.nodes), (name, m)
        assert seeded.alpha == fam.formula(m), (name, m)
        # nothing beats the seed, so the solve hands it back as its witness
        assert seeded.witness.members == frozenset(seed), (name, m)


def with_dependent_witness(fam, m):
    """``fam`` with its witness at m extended by a neighbour of its first
    member, so that it is no longer independent."""
    dg = fam.derive(fam.base(m))
    first = min(indices_of(dg, fam.witness_pairs(m)))
    neighbour = token_label_of(dg, dg.graph.adjacency_masks[first - 1].bit_length())
    return dataclasses.replace(fam, witness_pairs=lambda m: (*fam.witness_pairs(m), neighbour))


def with_short_witness(fam):
    """``fam`` with the first token of every witness dropped."""
    return dataclasses.replace(fam, witness_pairs=lambda m: fam.witness_pairs(m)[1:])


def test_verify_one_reports_a_short_witness_as_mismatch():
    row = verify_one(with_short_witness(FAMILIES["pair_cycle"]), 7)
    assert (row.alpha, row.witness, row.status) == (row.formula, row.formula - 1, "mismatch")


def test_verify_one_solves_a_dependent_witness_unseeded(monkeypatch):
    planted = with_dependent_witness(FAMILIES["pair_cycle"], 7)
    seeds = []

    def spy(g, *args, incumbent=None, **kwargs):
        seeds.append(incumbent)
        return alpha(g, *args, incumbent=incumbent, **kwargs)

    monkeypatch.setattr(verify, "alpha", spy)
    row = verify_one(planted, 7)
    assert (row.alpha, row.witness, row.status) == (row.formula, -1, "mismatch")
    assert seeds == [None]


def test_a_seeded_row_checks_its_witness_once(monkeypatch):
    # certify checks the witness and hands it over with its mask; alpha
    # neither reads the members into a mask again nor checks them again
    checks, reads = [], []
    checked, vertex_mask = mis._checked, Graph._vertex_mask

    def counting_check(g, members):
        checks.append(len(members))
        return checked(g, members)

    def counting_mask(g, vertices):
        vertices = tuple(vertices)
        reads.append(len(vertices))
        return vertex_mask(g, vertices)

    monkeypatch.setattr(mis, "_checked", counting_check)
    monkeypatch.setattr(verify, "_checked", counting_check)
    monkeypatch.setattr(Graph, "_vertex_mask", counting_mask)
    for name, m in PAPER_ROWS:
        if name == "dv_wheel":  # its construction solves from a plain incumbent
            continue
        checks.clear()
        reads.clear()
        row = verify_one(FAMILIES[name], m)
        assert (row.status, row.witness) == ("ok", row.formula), (name, m)
        assert checks == reads == [row.witness], (name, m)
    # a dependent witness is checked once too, and the row solves unseeded
    checks.clear()
    row = verify_one(with_dependent_witness(FAMILIES["pair_cycle"], 7), 7)
    assert (row.alpha, row.witness, row.status) == (row.formula, -1, "mismatch")
    assert checks == [15]


def test_seeded_rows_close_at_the_whole_graph_clique_cover(monkeypatch):
    # a row whose seed meets the clique cover of the whole graph ends there,
    # before any degree table or reduction; the others search as before,
    # reusing that cover at a root their reductions leave whole
    clique_cover = mis._clique_cover_bound
    whole = []

    def counting(adj, mask, *args):
        whole.append(mask == full)
        return clique_cover(adj, mask, *args)

    def no_drop(*args):
        raise AssertionError("a row closed by its seed ran the reductions")

    monkeypatch.setattr(mis, "_clique_cover_bound", counting)
    closed, searched = [], []
    for name, m in PAPER_ROWS:
        derived, _, _, seed = verify.certify(FAMILIES[name], m)
        g = derived.graph
        full = (1 << g.order) - 1
        whole.clear()
        if clique_cover(g.adjacency_masks, full) <= FAMILIES[name].formula(m):
            with monkeypatch.context() as patch:
                patch.setattr(mis, "_drop", no_drop)
                result = alpha(g, incumbent=seed)
            assert (result.nodes, result.reductions, result.clique_prunes) == (1, 0, 1), (name, m)
            closed.append((name, m))
        else:
            result = alpha(g, incumbent=seed)
            assert result.nodes == (5 if (name, m) == ("dv_wheel", 5) else 1), (name, m)
            searched.append((name, m))
        assert whole.count(True) == 1, (name, m)
        assert result.alpha == FAMILIES[name].formula(m), (name, m)
    # the odd cycles and wheels from m = 5 need the cycle or triangle cover
    assert searched == [(name, m) for name in ("dv_cycle", "dv_wheel", "pair_cycle", "pair_wheel")
                        for m in range(5, 25, 2)]
    assert len(closed) == 136


def test_a_budgeted_seeded_row_aborts_inside_the_early_cover():
    # 20100 vertices: the whole-graph clique cover alone takes tens of ms,
    # so a 1 ms budget holds only through the cover's own deadline checks
    row = verify_one(FAMILIES["pair_cycle"], 200, budget_ms=1)
    assert (row.alpha, row.witness, row.status) == (None, None, "aborted")


@pytest.mark.parametrize("plant, size, independent, witness", [
    ("short", 13, True, 13),
    ("dependent", 15, False, -1),
])
def test_cli_witness_fails_on_a_planted_construction(monkeypatch, capsys, plant, size,
                                                     independent, witness):
    fam = FAMILIES["pair_cycle"]
    planted = with_short_witness(fam) if plant == "short" else with_dependent_witness(fam, 7)
    monkeypatch.setitem(verify.FAMILIES, "pair_cycle", planted)
    argv = ["witness", "cycle", "7", "--op", "pair"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines()[0] == (
        f"witness pair_cycle m=7: size {size}, formula 14, "
        f"independent: {'yes' if independent else 'NO'}")
    assert main(argv + ["--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert (payload["size"], payload["formula"], payload["independent"]) == (size, 14, independent)
    # the sweep certifies through the same step, so it fails the same plant
    row = verify_one(verify.FAMILIES["pair_cycle"], 7)
    assert (row.alpha, row.witness, row.status) == (14, witness, "mismatch")


def test_verify_one_ms_covers_the_build():
    fam = FAMILIES["pair_cycle"]

    @functools.wraps(fam.base)
    def slow_base(m):
        time.sleep(0.05)
        return fam.base(m)

    row = verify_one(dataclasses.replace(fam, base=slow_base), 5)
    assert (row.family, row.status) == ("pair_cycle", "ok")
    assert row.ms >= 50


def test_constructed_rows_build_no_token(monkeypatch):
    # witnesses travel as (a, b) tuples and are ranked by arithmetic, so no
    # row lists the token labels of its derived graph
    built = []
    monkeypatch.setattr(DerivedGraph, "labels", property(lambda self: built.append(self)))
    rows = [verify_one(fam, m) for fam in FAMILIES.values() for m in range(3, 13)]
    assert len(rows) == 80 and all(r.status == "ok" and r.witness == r.alpha for r in rows)
    assert built == []


def test_brute_method_never_receives_a_seed(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return brute_force_alpha(*args, **kwargs)

    def no_bnb(*args, **kwargs):
        raise AssertionError("--method brute ran the branch and bound")

    monkeypatch.setattr(verify, "brute_force_alpha", spy)
    monkeypatch.setattr(verify, "alpha", no_bnb)
    names = tuple(dict.fromkeys(name for name, _ in PAPER_ROWS))
    rows = run_sweep(RunConfig(families=names, m_range=(3, 5), method="brute"))
    assert all(r.status == "ok" and r.witness == r.alpha for r in rows)
    assert calls == [{}] * len(rows)


def test_property_suites_pass_and_reproduce():
    results = run_property_suites(seed=7, sizes=(4, 5), trials=2)
    assert all(s.ok for s in results)
    report_a = suites_report(results)
    report_b = suites_report(run_property_suites(seed=7, sizes=(4, 5), trials=2))
    assert report_a == report_b
    assert "all passed" in report_a


def test_property_suites_validate_sizes():
    with pytest.raises(ValueError):
        run_property_suites(sizes=(0,))
    with pytest.raises(ValueError):
        run_property_suites(sizes=())
    with pytest.raises(ValueError):
        run_property_suites(sizes=(5,), trials=0)


def test_property_suites_skip_a_token_count_above_the_order():
    results = {s.name: s for s in run_property_suites(sizes=(2,), trials=3)}
    assert all(s.ok for s in results.values())
    # one k = 2 case per two-vertex draw; k = 3 does not fit
    assert results["token_graph_deletion_commutes"].cases == 3


def test_a_failing_suite_case_is_reported_and_fails_props(monkeypatch, capsys):
    # every slice claimed independent: the dependent slices q = (m + 1) / 2
    # of the odd cycles m = 3..11 fail, and nothing else
    monkeypatch.setattr(witnesses, "l_is_independent_expected", lambda m, q: True)
    results = run_property_suites(sizes=(4,), trials=1)
    failures = {s.name: s.failures for s in results if s.failures}
    assert failures == {"l_set_independence_dichotomy": [
        "m=3 q=2", "m=5 q=3", "m=7 q=4", "m=9 q=5", "m=11 q=6"]}
    assert suites_report(results).endswith(" 5 FAILURES\n")
    assert main(["props", "--sizes", "4", "--trials", "1"]) == 1
    assert "  failed: m=11 q=6\n" in capsys.readouterr().out


def test_suites_report_shows_failures():
    bad = SuiteResult("demo", 3, ["case x"])
    text = suites_report([bad])
    assert "FAIL" in text and "case x" in text


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_alpha_wheel3(capsys):
    assert main(["alpha", "wheel", "3", "--op", "dv"]) == 0
    out = capsys.readouterr().out
    assert "alpha(double_vertex(wheel(3))) = 2" in out


def test_cli_alpha_pair_cycle(capsys):
    assert main(["alpha", "cycle", "4", "--op", "pair"]) == 0
    assert "= 6" in capsys.readouterr().out


def test_cli_alpha_base_graph(capsys):
    assert main(["alpha", "path", "2", "--op", "dv"]) == 0
    assert "= 1" in capsys.readouterr().out


@pytest.mark.parametrize("argv, line", [
    (["alpha", "complete", "12", "--op", "dv"], "alpha(double_vertex(complete(12))) = 6"),
    (["alpha", "complete", "9", "--op", "token:3"], "alpha(token_3(complete(9))) = 12"),
])
def test_cli_alpha_dense_token_graphs(capsys, argv, line):
    # F2(K12) and F3(K9): the triangle cover's floor exit skips most of
    # their triangle covers, and no workload builds such a graph
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == line


def test_cli_build_dot(capsys):
    assert main(["build", "cycle", "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 5 and len(data["edges"]) == 5


def test_cli_build_derived_dot_has_token_labels(capsys):
    assert main(["build", "fan", "4", "--op", "dv", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph {")
    assert 'label="{1,5}"' in out


def test_cli_build_token_operator(capsys):
    assert main(["build", "path", "4", "--op", "token:3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 4 and data["kind"] == "subset"


def test_cli_build_out_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    assert main(["build", "path", "3", "--format", "json", "--out", str(target)]) == 0
    capsys.readouterr()
    assert json.loads(target.read_text())["order"] == 3


def test_cli_build_domain_error(capsys):
    assert main(["build", "wheel", "2"]) == 64


def test_cli_bad_op_value(capsys):
    assert main(["build", "path", "4", "--op", "triple"]) == 64


def test_cli_verify_single_row(capsys):
    assert main(["verify", "--families", "pair_cycle", "--m", "4..4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert "pair_cycle,pair_graph,4,10,6,6,6,ok,0" in out


def test_cli_verify_default_csv_matches_golden(capsys):
    golden = Path(__file__).parent / "golden" / "verify_default.csv"
    assert main(["verify", "--families", "all", "--format", "csv"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_cli_verify_paper_range_csv_matches_golden(capsys):
    golden = Path(__file__).parent / "golden" / "verify_paper.csv"
    assert main(["verify", "--families", "all", "--m", "3..24", "--format", "csv"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def test_cli_props_bench_config_matches_golden(capsys):
    # the property_suites benchmark's configuration: the golden pins every
    # suite name, its case count and its verdict
    golden = Path(__file__).parent / "golden" / "props_bench.txt"
    assert main(["props", "--seed", "0", "--sizes", "5,6,7,8", "--trials", "40"]) == 0
    assert capsys.readouterr().out == golden.read_text()


def witness_transcript() -> str:
    """Every ``witness`` run of each family at m = min_m..12, in text and
    JSON: each run's command line, its output and its exit code.
    ``PYTHONPATH=src python -m tests.test_verify_cli`` prints it, to
    regenerate the golden when a construction changes."""
    parts = []
    for name, fam in FAMILIES.items():
        op, family = name.split("_", 1)
        for m in range(fam.min_m, 13):
            for fmt in ("text", "json"):
                argv = ["witness", family, str(m), "--op", op, "--format", fmt]
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = main(argv)
                parts.append(f"$ tokengraphs {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    return "".join(parts)


def test_cli_witness_matches_golden():
    golden = Path(__file__).parent / "golden" / "witness_cli.txt"
    assert witness_transcript() == golden.read_text()


def test_every_witness_certifies_beyond_the_golden():
    # witness_cli.txt stops at m = 12; every family at m = 13..40 must exit 0
    failed = []
    for fam in FAMILIES.values():
        for m in range(13, 41):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["witness", fam.base.__name__, str(m), "--op", fam.op])
            if code:
                failed.append(f"{fam.name} m={m}: exit {code}")
    assert not failed


@pytest.mark.parametrize("argv, name", [
    (["build", "cycle", "5", "--op", "pair", "--format", "json"], "build_cycle5_pair.json"),
    (["build", "fan", "4", "--op", "dv", "--format", "dot"], "build_fan4_dv.dot"),
    (["build", "cycle", "6", "--op", "token:3", "--format", "json"], "build_cycle6_token3.json"),
    (["build", "wheel", "6", "--format", "dot"], "build_wheel6.dot"),
    (["build", "fan", "5", "--format", "json"], "build_fan5.json"),
    (["alpha", "cycle", "5", "--op", "pair"], "alpha_cycle5_pair.txt"),
    (["alpha", "cycle", "7", "--op", "token:3"], "alpha_cycle7_token3.txt"),
    (["alpha", "wheel", "4", "--op", "dv", "--method", "brute"], "alpha_wheel4_dv_brute.txt"),
    (["alpha", "path", "4"], "alpha_path4.txt"),
])
def test_cli_build_export_matches_golden(capsys, argv, name):
    golden = Path(__file__).parent / "golden" / name
    assert main(argv) == 0
    # alpha prints its wall time, the one part that varies from run to run
    out = re.sub(r"elapsed_ms=[0-9.]+", "elapsed_ms=", capsys.readouterr().out)
    assert out == golden.read_text()


def test_cli_verify_empty_range_is_config_error(capsys):
    assert main(["verify", "--m", "5..3"]) == 64


def test_cli_verify_unknown_family(capsys):
    assert main(["verify", "--families", "dv_moebius"]) == 64


def test_cli_verify_families_skips_empty_entries(capsys):
    assert main(["verify", "--families", "dv_path,", "--m", "3..5", "--format", "csv"]) == 0
    trailing = capsys.readouterr()
    assert main(["verify", "--families", "dv_path", "--m", "3..5", "--format", "csv"]) == 0
    assert capsys.readouterr() == trailing and trailing.out.count("\n") == 4


def test_cli_verify_budget_abort(capsys):
    code = main([
        "verify", "--families", "dv_fan", "--m", "12..12",
        "--method", "bnb", "--budget-ms", "0.0001", "--format", "csv",
    ])
    assert code == 2
    assert "aborted" in capsys.readouterr().out


@pytest.mark.parametrize("method_args, code, status", [
    ([], 2, "aborted"),
    (["--method", "bnb"], 2, "aborted"),
    (["--method", "brute"], 0, "ok"),  # the oracle alone ignores the budget
])
def test_cli_verify_budget_on_small_rows(capsys, method_args, code, status):
    assert main(["verify", "--families", "dv_path", "--m", "3..6", *method_args,
                 "--budget-ms", "0.0001", "--format", "csv"]) == code
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 4 and all(row.endswith(f",{status},0") for row in rows)


def test_cli_alpha_default_method_is_the_branch_and_bound(capsys):
    def lines(method_args):
        assert main(["alpha", "wheel", "5", "--op", "dv", *method_args]) == 0
        return [line.split(" elapsed_ms=")[0] for line in capsys.readouterr().out.splitlines()]

    default = lines([])
    assert default == lines(["--method", "bnb"])
    assert default[-1] == "vertices=15 nodes=5"


def test_cli_verify_nan_budget_is_config_error(capsys):
    assert main(["verify", "--budget-ms", "nan"]) == 64
    assert "budget must be positive" in capsys.readouterr().err


def test_cli_witness_pair_cycle7(capsys):
    assert main(["witness", "cycle", "7", "--op", "pair"]) == 0
    out = capsys.readouterr().out
    assert "size 14, formula 14" in out


def test_cli_witness_dv_path4(capsys):
    assert main(["witness", "path", "4", "--op", "dv"]) == 0
    out = capsys.readouterr().out
    assert "size 4, formula 4" in out
    assert "{1,2} {1,4} {2,3} {3,4}" in out


def test_cli_witness_fan1(capsys):
    assert main(["witness", "fan", "1", "--op", "dv"]) == 0
    assert "{1,2}" in capsys.readouterr().out


def test_cli_witness_wheel3_special_case(capsys):
    assert main(["witness", "wheel", "3", "--op", "dv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "witness dv_wheel m=3: size 2, formula 2, independent: yes",
        "tokens: {1,2} {3,4}",
    ]


def test_cli_witness_note_only_below_witness_min_m(capsys):
    # Every construction now covers its formula's whole domain, so no m gets a note.
    for m in (3, 4):
        assert main(["witness", "wheel", str(m), "--op", "dv"]) == 0
        assert "note:" not in capsys.readouterr().out


def test_cli_witness_dv_cycle5(capsys):
    assert main(["witness", "cycle", "5", "--op", "dv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "witness dv_cycle m=5: size 5, formula 5, independent: yes",
        "tokens: {1,2} {1,5} {2,3} {3,4} {4,5}",
    ]


@pytest.mark.parametrize("family, op, size", [
    ("path", "dv", 9), ("cycle", "dv", 9), ("fan", "dv", 9), ("wheel", "dv", 9),
    ("path", "pair", 12), ("cycle", "pair", 12), ("fan", "pair", 13), ("wheel", "pair", 13),
])
def test_cli_witness_every_family_at_m6(capsys, family, op, size):
    assert main(["witness", family, "6", "--op", op]) == 0
    assert f"size {size}, formula {size}, independent: yes" in capsys.readouterr().out


def test_cli_witness_text_out_file(tmp_path, capsys):
    argv = ["witness", "cycle", "7", "--op", "pair"]
    assert main(argv) == 0
    text = capsys.readouterr().out
    target = tmp_path / "w.txt"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == f"wrote {target}\n"
    assert target.read_text() == text


@pytest.mark.parametrize("argv", [
    ["build", "path", "4"],
    ["verify", "--families", "dv_path", "--m", "3..3"],
    ["witness", "path", "4", "--op", "dv"],
])
def test_cli_unwritable_out_is_config_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "x.out"
    assert main(argv + ["--out", str(target)]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_cli_witness_json_format(capsys):
    assert main(["witness", "cycle", "4", "--op", "pair", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == payload["formula"] == 6
    assert payload["independent"] is True
    assert [1, 3] in payload["tokens"]


def test_cli_verify_brute_method_beyond_cap_is_config_error(capsys):
    assert main(["verify", "--families", "dv_fan", "--m", "12..12", "--method", "brute"]) == 64


def test_cli_props(capsys):
    assert main(["props", "--seed", "3", "--sizes", "4,5", "--trials", "1"]) == 0
    assert "all passed" in capsys.readouterr().out


def test_cli_props_bad_sizes(capsys):
    assert main(["props", "--sizes", "0"]) == 64
    assert main(["props", "--sizes", "four"]) == 64


def test_cli_props_reproducible(capsys):
    assert main(["props", "--seed", "11", "--sizes", "4", "--trials", "1"]) == 0
    first = capsys.readouterr().out
    assert main(["props", "--seed", "11", "--sizes", "4", "--trials", "1"]) == 0
    assert capsys.readouterr().out == first


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["alpha", "galaxy", "3"])
    assert excinfo.value.code == 64


def test_cli_help_is_a_plain_summary(capsys):
    # the subcommands and the exit codes, not the module's reST docstring
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for name in ("build", "alpha", "verify", "witness", "props"):
        assert f"\n    {name} " in out
    assert "exit codes: 0 all ok" in out
    assert "``" not in out


@pytest.mark.parametrize("argv, code, line", [
    (["build", "wheel", "2"], 64, "error: wheel needs m >= 3, got 2"),
    (["build", "path", "4", "--op", "triple"], 64,
     "error: unknown --op value 'triple'; expected dv, pair or token:<k>"),
    (["build", "path", "4", "--op", "token:x"], 64,
     "error: bad --op value 'token:x'; expected token:<k>"),
    (["build", "path", "4", "--op", "token:0"], 64, "error: k must satisfy 1 <= k <= 4, got 0"),
    (["build", "path", "1", "--op", "dv"], 64,
     "error: double vertex graph needs base order >= 2, got 1"),
    (["alpha", "complete", "1", "--op", "dv"], 64,
     "error: double vertex graph needs base order >= 2, got 1"),
    (["alpha", "path", "30", "--op", "dv", "--method", "brute"], 64,
     "error: order 435 exceeds the brute-force cap 26; use alpha() instead"),
    (["verify", "--m", "5..3"], 64, "error: empty m range '5..3'"),
    (["verify", "--families", "dv_cycle", "--m", "1..2"], 64,
     "error: m range '1..2' is below every selected family's smallest m (3)"),
    (["verify", "--families", "dv_wheel,pair_cycle", "--m", "0..2"], 64,
     "error: m range '0..2' is below every selected family's smallest m (3)"),
    (["verify", "--m", "x"], 64, "error: bad --m value 'x'; expected A..B"),
    (["verify", "--families", "dv_moebius"], 64, "error: unknown families: dv_moebius"),
    (["verify", "--budget-ms", "nan"], 64, "error: budget must be positive"),
    (["verify", "--families", "dv_fan", "--m", "12..12", "--method", "brute"], 64,
     "error: order 78 exceeds the brute-force cap 26; use alpha() instead"),
    (["witness", "cycle", "2", "--op", "dv"], 64, "error: dv_cycle_witness needs m >= 3, got 2"),
    (["witness", "fan", "0", "--op", "dv"], 64, "error: dv_fan_witness needs m >= 1, got 0"),
    (["witness", "wheel", "2", "--op", "dv"], 64, "error: dv_wheel_witness needs m >= 3, got 2"),
    (["props", "--sizes", "four"], 64, "error: bad --sizes value 'four'"),
    (["props", "--sizes", "17"], 64,
     "error: sizes above 16 are not supported by the randomized suites"),
    (["props", "--trials", "0"], 64, "error: trials must be >= 1"),
    (["verify", "--families", "dv_path,dv_path", "--m", "3..3", "--format", "csv"], 64,
     "error: duplicate families: dv_path"),
    (["verify", "--families", ""], 64, "error: no families selected"),
    (["verify", "--families", ","], 64, "error: no families selected"),
    (["verify", "--families", "x,x,dv_path,y"], 64, "error: unknown families: x, y"),
])
def test_cli_rejected_arguments_name_the_problem(capsys, argv, code, line):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == line


def test_module_entry_point_passes_exit_code_through():
    # README documents `python -m tokengraphs.cli`; its `sys.exit(main())`
    # must hand main's exit code and error line to the shell.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-m", "tokengraphs.cli", "build", "wheel", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 64
    assert done.stdout == ""
    assert done.stderr == "error: wheel needs m >= 3, got 2\n"


if __name__ == "__main__":
    sys.stdout.write(witness_transcript())

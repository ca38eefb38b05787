import json
from pathlib import Path

import pytest

from tokengraphs.cli import main
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


def test_dv_wheel_m3_row_has_no_witness():
    rows = run_sweep(RunConfig(families=("dv_wheel",), m_range=(3, 4)))
    assert rows[0].m == 3 and rows[0].witness is None and rows[0].status == "ok"
    assert rows[1].m == 4 and rows[1].witness == 4


def test_budget_abort_row_and_exit_code():
    config = RunConfig(families=("dv_fan",), m_range=(12, 12), method="bnb", budget_ms=1e-7)
    rows = run_sweep(config)
    assert rows[0].status == "aborted"
    assert rows[0].alpha is None and rows[0].witness is None
    assert sweep_exit_code(rows) == 2
    assert rows_to_csv(rows).split("\n")[1] == "dv_fan,double_vertex,12,78,36,,,aborted,0"


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
    broken = type(fam)(
        name=fam.name,
        operator=fam.operator,
        base=fam.base,
        derive=fam.derive,
        formula=lambda m: fam.formula(m) + 1,
        witness_tokens=None,
        min_m=fam.min_m,
        witness_min_m=0,
        default_range=fam.default_range,
    )
    row = verify_one(broken, 5)
    assert row.status == "mismatch"
    assert sweep_exit_code([row]) == 1


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


def test_cli_verify_empty_range_is_config_error(capsys):
    assert main(["verify", "--m", "5..3"]) == 64


def test_cli_verify_unknown_family(capsys):
    assert main(["verify", "--families", "dv_moebius"]) == 64


def test_cli_verify_budget_abort(capsys):
    code = main([
        "verify", "--families", "dv_fan", "--m", "12..12",
        "--method", "bnb", "--budget-ms", "0.0001", "--format", "csv",
    ])
    assert code == 2
    assert "aborted" in capsys.readouterr().out


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
    assert main(["witness", "wheel", "3", "--op", "dv"]) == 1
    assert "apex" in capsys.readouterr().out


def test_cli_witness_no_construction(capsys):
    assert main(["witness", "cycle", "5", "--op", "dv"]) == 64
    assert main(["witness", "cycle", "4", "--op", "dv"]) == 64


@pytest.mark.parametrize("family, op, size", [
    ("path", "dv", 9), ("cycle", "dv", None), ("fan", "dv", 9), ("wheel", "dv", 9),
    ("path", "pair", 12), ("cycle", "pair", 12), ("fan", "pair", 13), ("wheel", "pair", 13),
])
def test_cli_witness_every_family_at_m6(capsys, family, op, size):
    code = main(["witness", family, "6", "--op", op])
    if size is None:
        assert code == 64
    else:
        assert code == 0
        assert f"size {size}, formula {size}, independent: yes" in capsys.readouterr().out


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

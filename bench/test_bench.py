"""Tests of the benchmark's own logic: span self time, the tail rule,
failure counting and the run's refusal to start without sources.

    python3 -m pytest bench
"""

import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402
from measure import REFERENCE_CAL_S, SpeedLog, failed_frac, percentile, tail_percentile  # noqa: E402
from spans import END, NAME, START, Tracer, instrument, layer_metrics, self_times  # noqa: E402
from tokengraphs import graphs, operators, verify  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["bench.pass", 0, 100, -1, 0, None],
        ["a", 10, 40, 0, 0, None],
        ["b", 20, 30, 1, 0, None],
        ["a", 50, 60, 0, 1, None],
    ]
    assert self_times(spans) == {"bench.pass": 60, "a": 30, "b": 10}


def test_instrumented_row_nests_spans_and_is_undone():
    spec, solver = verify.FAMILIES["dv_wheel"], verify.alpha
    tracer = Tracer()
    with instrument(tracer):
        with tracer.span("bench.pass") as root:
            row = verify.verify_one(verify.FAMILIES["dv_wheel"], 6)
    assert verify.FAMILIES["dv_wheel"] is spec and verify.alpha is solver
    assert row.status == "ok"
    spans = tracer.spans
    wall_ns = spans[root][END] - spans[root][START]
    assert sum(self_times(spans).values()) == wall_ns
    assert [s[NAME] for s in spans].count("verify.row") == 1
    metrics = layer_metrics(spans, wall_ns / 1e9)
    # the row's graph, then two more built for the dv_wheel witness; double_vertex
    # calling k_token opens no second span
    assert metrics["operators.derive.vertices"] == 3 * 21
    assert metrics["mis.solves"] == 2
    assert metrics["witnesses.solver_calls"] == 1
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0)


@pytest.mark.parametrize("n, pct", [
    (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct):
    assert tail_percentile(n) == pct


def test_tail_needs_ten_samples_beyond_the_median():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_percentile_interpolates_like_statistics_inclusive():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    assert [percentile(values, p) for p in (25, 50, 75)] == pytest.approx(
        statistics.quantiles(values, n=4, method="inclusive"))


def test_speed_log_scales_each_stretch_by_its_neighbouring_calibrations():
    speed = SpeedLog()
    speed.points = [(0.0, 1.0), (5.0, 6.0), (10.0, 12.0)]
    assert speed.raw(1.0, 10.0) == 8.0
    # [1, 5] between two 1 s calibrations, [6, 10] between a 1 s and a 2 s one
    assert speed.scaled(1.0, 10.0) == pytest.approx(REFERENCE_CAL_S * (4 / 1.0 + 4 / 1.5))
    assert speed.scaled(1.0, 5.0) == pytest.approx(REFERENCE_CAL_S * 4)


def test_wrong_reference_alpha_is_a_failed_instance():
    c7 = operators.k_token(graphs.cycle(7), 3).graph
    instances = [workloads.TokenInstance("F3(C7)", c7, 15),
                 workloads.TokenInstance("F3(C7) wrong", c7, 16)]
    probe = workloads.Probe()
    outcomes = workloads.token_pass(instances, probe)
    assert [o.ok for o in outcomes] == [True, False]
    assert "alpha 15 != 16" in outcomes[1].detail
    assert failed_frac([o.ok for o in outcomes]) == 0.5
    assert len(probe.intervals) == 2


def test_every_property_suite_is_a_timed_instance():
    probe = workloads.Probe()
    outcomes = workloads.suites_pass(0, probe)
    assert len(outcomes) == len(probe.intervals) == 9
    assert all(o.ok for o in outcomes)


def test_run_refuses_without_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "paper_sweep",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

"""tokengraphs benchmark.

Run from the repository root:

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced then traced

With ``--trace 0`` a run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics and
the tracing overhead. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Any failed check makes the exit
code 1. Results and spans are also written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from measure import SpeedLog, failed_frac, median, percentile, tail_percentile
from spans import Tracer, instrument, layer_metrics, write_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 7
MIN_TRACED_PASSES = 3
# Counts that must come out the same on every traced pass of a run.
EXACT_COUNTS = ("graphs.struct.calls", "operators.derive.vertices", "operators.derive.edges",
                "mis.solves", "mis.nodes", "witnesses.solver_calls")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "instance_ms.p50": "ms",
                    "instance_ms.tail": "ms", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END_UNITS, "mis.ms_per_node": "ms", "mis.root_closed": "frac",
         "trace.wall_s": "s", "trace.overhead_s": "s", "trace.accounted_frac": "frac"}
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]))")


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc.__class__.__name__})"
    return done.stdout.strip() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tokengraphs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
        "src_sha256": _src_digest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def _spawn_setup(name: str, seed: int) -> None:
    """A fresh interpreter that imports the package and makes the
    workload's inputs."""
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH), str(SRC), name, str(seed)],
                   check=True, stdout=subprocess.DEVNULL, timeout=120)


def run_untraced(workload, seed: int, seconds: float):
    """Passes until both ``seconds`` and the workload's minimum pass count
    are reached. Returns (metrics, details, outcomes)."""
    from workloads import Probe

    speed = SpeedLog()
    spawns = []
    for _ in range(SETUP_REPEATS):
        began = perf_counter()
        _spawn_setup(workload.name, seed)
        spawns.append((began, perf_counter()))
        speed.calibrate()
    inputs = workload.make_inputs(seed)
    probe = Probe(speed=speed)
    passes, outcomes = [], []
    start = perf_counter()
    while len(passes) < workload.min_passes or perf_counter() - start < seconds:
        began = perf_counter()
        outcomes += workload.run_pass(inputs, probe)
        passes.append((began, perf_counter()))
        speed.calibrate()
    walls = [speed.scaled(*p) for p in passes]
    samples = [speed.scaled(*i) * 1000.0 for i in probe.intervals]
    per_pass = len(samples) // len(walls)
    tail_pct = tail_percentile(workload.min_passes * per_pass)
    metrics = {
        "setup_s": median([speed.scaled(*s) for s in spawns]),
        "wall_s": median(walls),
        "instance_ms.p50": median(samples),
        "instance_ms.tail": percentile(samples, tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_s.samples": len(spawns),
        "setup_s.raw_median": median([e - s for s, e in spawns]),
        "wall_s.max": max(walls),
        "wall_s.passes": len(walls),
        "wall_s.raw_median": median([speed.raw(*p) for p in passes]),
        "calibrations": len(speed.points),
        "instance_ms.tail_pct": tail_pct,
        "instance_ms.samples": len(samples),
        "instance_ms.per_pass": per_pass,
    }
    return metrics, details, outcomes


def run_traced(workload, seed: int, seconds: float):
    """Alternates an untraced and a traced pass until ``seconds`` and
    ``MIN_TRACED_PASSES`` are reached, calibrating between passes. Per-layer
    values are medians over the traced passes, times scaled to reference
    speed. Returns (metrics, details, outcomes, spans per pass)."""
    from workloads import Outcome, Probe

    inputs = workload.make_inputs(seed)
    tracer = Tracer()
    plain_probe, traced_probe = Probe(), Probe(tracer)
    speed = SpeedLog()
    plain, traced, layers, passes, outcomes = [], [], [], [], []
    start = perf_counter()
    while len(traced) < MIN_TRACED_PASSES or perf_counter() - start < seconds:
        began = perf_counter()
        outcomes += workload.run_pass(inputs, plain_probe)
        plain.append((began, perf_counter()))
        speed.calibrate()
        tracer.spans = []
        with instrument(tracer):
            began = perf_counter()
            with tracer.span("bench.pass"):
                outcomes += workload.run_pass(inputs, traced_probe)
            traced.append((began, perf_counter()))
        speed.calibrate()
        layers.append(layer_metrics(tracer.spans, traced[-1][1] - traced[-1][0]))
        passes.append(tracer.spans)
    for layer, interval in zip(layers, traced):
        factor = speed.scaled(*interval) / (interval[1] - interval[0])
        for name in layer:
            if _unit(name) == "ms":
                layer[name] *= factor
    metrics = {name: median([layer[name] for layer in layers]) for name in layers[0]}
    metrics["trace.wall_s"] = median([speed.scaled(*p) for p in traced])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median([speed.scaled(*p) for p in plain])
    for name in EXACT_COUNTS:
        seen = sorted({layer[name] for layer in layers})
        outcomes.append(Outcome(len(seen) == 1, f"count {name}",
                                f"differs between traced passes: {seen}"))
    details = {"trace.passes": len(traced), "plain.passes": len(plain),
               "trace.raw_median_s": median([e - s for s, e in traced]),
               "spans.per_pass": len(passes[0])}
    return metrics, details, outcomes, passes


def _unit(name: str) -> str:
    return UNITS.get(name, "ms" if name.endswith(".ms") else "count")


def run_one(args, workload) -> int:
    info = stamp(args)
    # One CPU for the run and its set-up children, so that calibration
    # measures the CPU the work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        metrics, details, outcomes, passes = run_traced(workload, args.seed, args.seconds)
    else:
        metrics, details, outcomes = run_untraced(workload, args.seed, args.seconds)
        passes = []
    failures = [o for o in outcomes if not o.ok]
    OUT.mkdir(exist_ok=True)
    base = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if passes:
        write_spans(base.with_suffix(".spans.tsv.gz"), passes)

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {_unit(name)}")
    for name, value in details.items():
        print(f"  {name} = {value}")
    print(f"  failed_frac = {len(failures)}/{len(outcomes)} = "
          f"{failed_frac([o.ok for o in outcomes]):.6f}")
    for o in failures[:20]:
        print(f"  FAILED {o.label}: {o.detail}")
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()},
    }
    record = {"stamp": info, **result, "details": details,
              "failures": [o._asdict() for o in failures]}
    base.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


def run_all(args, names) -> int:
    """Every workload untraced, then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
            lines = done.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={done.returncode}")
            print("\n".join(lines[:-1]))
            if done.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
                print(done.stderr, file=sys.stderr)
                summary["correct"] = False
                continue
            result = json.loads(lines[-1])
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                summary["metrics"][f"{name}.{metric}"] = value
    print("== end-to-end metrics (untraced) and tracing overhead")
    for name in names:
        cells = [f"{m}={summary['metrics'][f'{name}.{m}']['value']:.4f} {unit}"
                 for m, unit in END_TO_END_UNITS.items() if f"{name}.{m}" in summary["metrics"]]
        for m in ("trace.overhead_s", "trace.accounted_frac"):
            if f"{name}.{m}" in summary["metrics"]:
                cells.append(f"{m}={summary['metrics'][f'{name}.{m}']['value']:.4f}")
        print(f"{name:16s} " + "  ".join(cells))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="paper_sweep, pair_scale, token_search, property_suites or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tokengraphs" / "__init__.py").is_file():
        print(f"error: no tokengraphs sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(SRC)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main())

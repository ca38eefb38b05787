"""Command-line driver.

Subcommands: ``build`` (export a base or derived graph), ``alpha``
(exact independence number of one instance), ``verify`` (formula vs
solver vs witness sweep), ``witness`` (emit and certify an explicit
construction), ``props`` (randomized property suites).

Exit codes: 0 all ok, 1 mismatch or failed check, 2 aborted on budget,
64 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .exports import derived_to_dot, derived_to_json, graph_to_dot, graph_to_json
from .graphs import complete, cycle, fan, path, wheel
from .mis import SolveAborted, is_independent
from .operators import double_vertex, indices_of, k_token, pair_graph
from .verify import (
    FAMILIES,
    RunConfig,
    rows_to_csv,
    rows_to_json,
    rows_to_table,
    run_property_suites,
    run_sweep,
    solve_exact,
    suites_report,
    sweep_exit_code,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_ABORTED = 2
EXIT_CONFIG = 64

BASE_BUILDERS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "fan": fan,
    "wheel": wheel,
}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with the config code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _parse_op(op: str | None):
    """Map an --op value to a deriving function, or None for the base graph."""
    if op is None:
        return None, "base"
    if op == "dv":
        return double_vertex, "double_vertex"
    if op == "pair":
        return pair_graph, "pair_graph"
    if op.startswith("token:"):
        try:
            k = int(op.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad --op value {op!r}; expected token:<k>") from None
        return (lambda g: k_token(g, k)), f"token_{k}"
    raise ConfigError(f"unknown --op value {op!r}; expected dv, pair or token:<k>")


def _parse_m_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ConfigError(f"bad --m value {text!r}; expected A..B") from None
    if lo > hi:
        raise ConfigError(f"empty m range {text!r}")
    return lo, hi


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")


def _build_instance(family: str, m: int, op: str | None):
    try:
        base = BASE_BUILDERS[family](m)
    except KeyError:
        raise ConfigError(f"unknown family {family!r}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    derive, op_name = _parse_op(op)
    if derive is None:
        return base, None, op_name
    try:
        derived = derive(base)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return derived.graph, derived, op_name


def cmd_build(args) -> int:
    graph, derived, _ = _build_instance(args.family, args.m, args.op)
    to_derived, to_graph = {
        "dot": (derived_to_dot, graph_to_dot),
        "json": (derived_to_json, graph_to_json),
    }[args.format]
    _write_output(to_derived(derived) if derived is not None else to_graph(graph), args.out)
    return EXIT_OK


def cmd_alpha(args) -> int:
    graph, derived, op_name = _build_instance(args.family, args.m, args.op)
    try:
        result = solve_exact(graph, method=args.method)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    shown = f"{op_name}({args.family}({args.m}))" if derived is not None else f"{args.family}({args.m})"
    print(f"alpha({shown}) = {result.alpha}")
    if derived is not None:
        tokens = " ".join(str(derived.labels[v - 1]) for v in sorted(result.witness.members))
        print(f"witness ({result.alpha}): {tokens}")
    else:
        print(f"witness ({result.alpha}): {' '.join(map(str, sorted(result.witness.members)))}")
    print(f"vertices={graph.order} nodes={result.nodes} elapsed_ms={result.elapsed * 1000:.1f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.families == "all":
        names = tuple(sorted(FAMILIES))
    else:
        names = tuple(args.families.split(","))
    m_range = _parse_m_range(args.m) if args.m is not None else None
    try:
        config = RunConfig(
            families=names,
            m_range=m_range,
            method=args.method,
            budget_ms=args.budget_ms,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        rows = run_sweep(config)
    except ValueError as exc:  # e.g. --method brute beyond the oracle cap
        raise ConfigError(str(exc)) from None
    render = {"table": rows_to_table, "csv": rows_to_csv, "json": rows_to_json}[args.format]
    _write_output(render(rows), args.out)
    return sweep_exit_code(rows)


def cmd_witness(args) -> int:
    fam = FAMILIES.get(f"{args.op}_{args.family}")
    if fam is None or fam.witness_tokens is None:
        raise ConfigError(
            f"no witness construction for family {args.family!r} with --op {args.op!r}"
        )
    try:
        tokens = fam.witness_tokens(args.m)
        expected = fam.formula(args.m)
        derived = fam.derive(fam.base(args.m))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    members = indices_of(derived, tokens)
    independent = is_independent(derived.graph, members)
    matches = independent and len(members) == expected
    if args.format == "json":
        import json as _json

        payload = {
            "family": fam.name,
            "m": args.m,
            "size": len(members),
            "formula": expected,
            "independent": independent,
            "tokens": [list(t.elements) for t in tokens],
        }
        _write_output(_json.dumps(payload, indent=2) + "\n", args.out)
    else:
        print(f"witness {fam.name} m={args.m}: size {len(members)}, formula {expected}, "
              f"independent: {'yes' if independent else 'NO'}")
        print("tokens: " + " ".join(str(t) for t in tokens))
        if fam.name == "dv_wheel" and args.m == 3 and not matches:
            print("note: at m=3 the apex-free construction tops out at 1; "
                  "the full graph reaches 2 only through an apex token")
    return EXIT_OK if matches else EXIT_MISMATCH


def cmd_props(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ConfigError(f"bad --sizes value {args.sizes!r}") from None
    try:
        results = run_property_suites(seed=args.seed, sizes=sizes, trials=args.trials)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sys.stdout.write(suites_report(results))
    return EXIT_OK if all(s.ok for s in results) else EXIT_MISMATCH


def make_parser() -> _Parser:
    parser = _Parser(prog="tokengraphs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="export a base or derived graph")
    p_build.add_argument("family", choices=sorted(BASE_BUILDERS))
    p_build.add_argument("m", type=int)
    p_build.add_argument("--op", default=None, help="dv, pair or token:<k>")
    p_build.add_argument("--format", default="dot", choices=("dot", "json"))
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(handler=cmd_build)

    p_alpha = sub.add_parser("alpha", help="exact independence number of one instance")
    p_alpha.add_argument("family", choices=sorted(BASE_BUILDERS))
    p_alpha.add_argument("m", type=int)
    p_alpha.add_argument("--op", default=None, help="dv, pair or token:<k>")
    p_alpha.add_argument("--method", default="auto", choices=("auto", "brute", "bnb"))
    p_alpha.set_defaults(handler=cmd_alpha)

    p_verify = sub.add_parser("verify", help="formula vs solver vs witness sweep")
    p_verify.add_argument("--families", default="all",
                          help="comma-separated family names, or 'all'")
    p_verify.add_argument("--m", default=None, help="range A..B (default: per-family)")
    p_verify.add_argument("--method", default="auto", choices=("auto", "brute", "bnb"))
    p_verify.add_argument("--budget-ms", type=float, default=None, dest="budget_ms")
    p_verify.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_witness = sub.add_parser("witness", help="emit and certify an explicit witness")
    p_witness.add_argument("family", choices=("path", "cycle", "fan", "wheel"))
    p_witness.add_argument("m", type=int)
    p_witness.add_argument("--op", required=True, choices=("dv", "pair"))
    p_witness.add_argument("--format", default="text", choices=("text", "json"))
    p_witness.add_argument("--out", default=None)
    p_witness.set_defaults(handler=cmd_witness)

    p_props = sub.add_parser("props", help="run the randomized property suites")
    p_props.add_argument("--seed", type=int, default=0)
    p_props.add_argument("--sizes", default="5,6,7",
                         help="comma-separated base-graph orders for random suites")
    p_props.add_argument("--trials", type=int, default=5)
    p_props.set_defaults(handler=cmd_props)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())

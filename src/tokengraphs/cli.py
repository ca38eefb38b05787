"""Command-line driver.

Subcommands: ``build`` (export a base or derived graph), ``alpha``
(exact independence number of one instance), ``verify`` (formula vs
solver vs witness sweep), ``witness`` (emit and certify an explicit
construction), ``props`` (randomized property suites).

Exit codes: 0 all ok, 1 mismatch or failed check, 2 aborted on budget,
64 configuration error (any argument the package rejects). The package
raises ``ValueError`` only to reject its arguments, so ``main`` reports
every ``ValueError`` as ``error: <message>`` and exits 64.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .exports import derived_to_dot, derived_to_json, graph_to_dot, graph_to_json, token_text
from .graphs import complete, cycle, fan, path, wheel
from .mis import is_independent
from .operators import double_vertex, indices_of, k_token, pair_graph
from .verify import (
    EXIT_MISMATCH,
    EXIT_OK,
    FAMILIES,
    METHODS,
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

EXIT_CONFIG = 64

BASE_BUILDERS = {
    "path": path,
    "cycle": cycle,
    "complete": complete,
    "fan": fan,
    "wheel": wheel,
}

NAMED_OPS = {"dv": (double_vertex, "double_vertex"), "pair": (pair_graph, "pair_graph")}


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
    if op in NAMED_OPS:
        return NAMED_OPS[op]
    if op.startswith("token:"):
        try:
            k = int(op.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad --op value {op!r}; expected token:<k>") from None
        return (lambda g: k_token(g, k)), f"token_{k}"
    raise ValueError(f"unknown --op value {op!r}; expected dv, pair or token:<k>")


def _parse_m_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"bad --m value {text!r}; expected A..B") from None
    return lo, hi


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc.strerror}") from None
        print(f"wrote {out}")


def _build_instance(family: str, m: int, op: str | None):
    base = BASE_BUILDERS[family](m)
    derive, op_name = _parse_op(op)
    if derive is None:
        return base, None, op_name
    derived = derive(base)
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
    result = solve_exact(graph, method=args.method)
    shown = f"{op_name}({args.family}({args.m}))" if derived is not None else f"{args.family}({args.m})"
    show = (lambda v: token_text(derived.labels[v - 1])) if derived is not None else str
    witness = " ".join(map(show, sorted(result.witness.members)))
    print(f"alpha({shown}) = {result.alpha}")
    print(f"witness ({result.alpha}): {witness}")
    print(f"vertices={graph.order} nodes={result.nodes} elapsed_ms={result.elapsed * 1000:.1f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.families == "all":
        names = tuple(FAMILIES)
    else:
        names = tuple(name for name in args.families.split(",") if name)
    m_range = _parse_m_range(args.m) if args.m is not None else None
    config = RunConfig(
        families=names,
        m_range=m_range,
        method=args.method,
        budget_ms=args.budget_ms,
    )
    rows = run_sweep(config)  # rejects e.g. --method brute beyond the oracle cap
    render = {"table": rows_to_table, "csv": rows_to_csv, "json": rows_to_json}[args.format]
    _write_output(render(rows), args.out)
    return sweep_exit_code(rows)


def cmd_witness(args) -> int:
    fam = FAMILIES[f"{args.op}_{args.family}"]
    pairs = fam.witness_pairs(args.m)
    expected = fam.formula(args.m)
    derived = fam.derive(fam.base(args.m))
    members = indices_of(derived, pairs)
    independent = is_independent(derived.graph, members)
    matches = independent and len(members) == expected
    if args.format == "json":
        payload = {
            "family": fam.name,
            "m": args.m,
            "size": len(members),
            "formula": expected,
            "independent": independent,
            "tokens": [list(p) for p in pairs],
        }
        _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        lines = [
            f"witness {fam.name} m={args.m}: size {len(members)}, formula {expected}, "
            f"independent: {'yes' if independent else 'NO'}",
            "tokens: " + " ".join(map(token_text, pairs)),
        ]
        _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK if matches else EXIT_MISMATCH


def cmd_props(args) -> int:
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:
        raise ValueError(f"bad --sizes value {args.sizes!r}") from None
    results = run_property_suites(seed=args.seed, sizes=sizes, trials=args.trials)
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
    p_alpha.add_argument("--method", default="auto", choices=METHODS)
    p_alpha.set_defaults(handler=cmd_alpha)

    p_verify = sub.add_parser("verify", help="formula vs solver vs witness sweep")
    p_verify.add_argument("--families", default="all",
                          help="comma-separated family names, or 'all'")
    p_verify.add_argument("--m", default=None, help="range A..B (default: per-family)")
    p_verify.add_argument("--method", default="auto", choices=METHODS)
    p_verify.add_argument("--budget-ms", type=float, default=None, dest="budget_ms", metavar="N",
                          help="abort a solve after N ms (exit 2); --method brute ignores it")
    p_verify.add_argument("--format", default="table", choices=("table", "csv", "json"))
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_witness = sub.add_parser("witness", help="emit and certify an explicit witness")
    p_witness.add_argument("family", choices=("path", "cycle", "fan", "wheel"))
    p_witness.add_argument("m", type=int)
    p_witness.add_argument("--op", required=True, choices=tuple(NAMED_OPS))
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

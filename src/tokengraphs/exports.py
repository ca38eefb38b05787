"""Deterministic DOT and JSON serializations.

JSON schema for a plain graph: ``{"order": n, "edges": [[u, v], ...]}``
with u < v and edges sorted lexicographically. Derived graphs extend it
with ``"kind"`` (subset or multiset) and ``"labels"`` (the token of each
vertex index, in index order). Output is byte-stable for a given value,
so serializations can be frozen as golden strings. ``token_text`` prints
a token as ``{1,2}`` for the DOT labels and the CLI.
"""

from __future__ import annotations

import json

from .graphs import Graph
from .operators import DerivedGraph


def graph_to_json(g: Graph) -> str:
    return json.dumps({"order": g.order, "edges": [list(e) for e in sorted(g.edges)]})


def derived_to_json(dg: DerivedGraph) -> str:
    return json.dumps(
        {
            "order": dg.graph.order,
            "edges": [list(e) for e in sorted(dg.graph.edges)],
            "kind": dg.kind,
            "labels": [list(tok) for tok in dg.labels],
        }
    )


def token_text(token) -> str:
    """A token, a sorted tuple of base vertices, as ``{a,b,...}``."""
    return "{" + ",".join(map(str, token)) + "}"


def graph_to_dot(g: Graph, labels: dict[int, str] | None = None) -> str:
    """One ``graph { ... }`` block; vertex indices as node ids, optional
    label attributes."""
    lines = ["graph {"]
    for v in g.vertices:
        suffix = f' [label="{labels[v]}"]' if labels and v in labels else ""
        lines.append(f"  {v}{suffix};")
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def derived_to_dot(dg: DerivedGraph) -> str:
    labels = {i: token_text(tok) for i, tok in enumerate(dg.labels, start=1)}
    return graph_to_dot(dg.graph, labels=labels)


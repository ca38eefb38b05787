"""No function in the package calls itself by name, so a large input
cannot overrun the interpreter's recursion limit."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tokengraphs"
MODULES = sorted(PACKAGE.rglob("*.py"))


def calls_itself(fn: ast.FunctionDef) -> bool:
    """True iff ``fn`` (or a function nested in it) calls ``fn`` by name,
    as ``name(...)`` or ``self.name(...)``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == fn.name:
            return True
        if (isinstance(callee, ast.Attribute) and callee.attr == fn.name
                and isinstance(callee.value, ast.Name) and callee.value.id == "self"):
            return True
    return False


def self_calling_functions(tree: ast.AST) -> set[str]:
    """Qualified name of every function in ``tree`` that calls itself."""
    found = set()
    pending = [(tree, "")]
    while pending:
        node, prefix = pending.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef) and calls_itself(child):
                    found.add(qualname)
                pending.append((child, qualname + "."))
            else:
                pending.append((child, prefix))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    found = sorted(self_calling_functions(ast.parse(path.read_text(), filename=str(path))))
    assert found == [], f"{path.name} has self-calling functions: {found}"


def test_a_planted_self_call_is_found():
    planted = ast.parse(
        "def solve(g):\n"
        "    def explore(mask):\n"
        "        return mask and explore(mask >> 1)\n"
        "    return explore(g)\n"
        "class Walker:\n"
        "    def walk(self, node):\n"
        "        return [self.walk(c) for c in node]\n"
        "def calls_another(x):\n"
        "    return solve(x)\n"
    )
    assert self_calling_functions(planted) == {"solve.explore", "Walker.walk"}

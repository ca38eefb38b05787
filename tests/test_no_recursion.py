"""No function in the package calls itself by name, apart from the
brute-force oracle, whose depth is bounded, so a large input cannot
overrun the interpreter's recursion limit."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tokengraphs"
MODULES = sorted(PACKAGE.rglob("*.py"))

# brute_force_alpha's explore descends at most BRUTE_FORCE_CAP levels.
ALLOWED = {("mis.py", "brute_force_alpha.explore")}


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


def self_calling_functions(path: Path) -> set[tuple[str, str]]:
    """(file name, qualified name) of every function in ``path`` that
    calls itself."""
    found = set()
    pending = [(ast.parse(path.read_text(), filename=str(path)), "")]
    while pending:
        node, prefix = pending.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef) and calls_itself(child):
                    found.add((path.name, qualname))
                pending.append((child, qualname + "."))
            else:
                pending.append((child, prefix))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    unexpected = sorted(self_calling_functions(path) - ALLOWED)
    assert unexpected == [], f"{path.name} has self-calling functions: {unexpected}"


def test_the_allowed_self_calls_are_found():
    # keeps the allow list current and shows that the detector sees a
    # nested self-call
    found = set().union(*(self_calling_functions(p) for p in MODULES))
    assert ALLOWED <= found

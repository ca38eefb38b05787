"""The package under src/ imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tokengraphs"
MODULES = sorted(PACKAGE.rglob("*.py"))


def absolute_imports(tree: ast.AST):
    """Top-level module names of every absolute import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_has_modules():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = sorted(set(absolute_imports(tree)) - sys.stdlib_module_names)
    assert outside == [], f"{path.name} imports non-stdlib modules: {outside}"


def imported_names(tree: ast.AST):
    """Each name an import statement in ``tree`` binds, ``__future__``
    features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def exported_names(tree: ast.Module) -> set[str]:
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported_names(tree)) - used - exported_names(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def unread_parameters(tree: ast.AST):
    """``name(parameter)`` for each parameter of a function or lambda in
    ``tree`` that its body never reads, ``self`` and ``cls`` aside."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        yield from (f"{name}({p})" for p in params
                    if p not in read and p not in ("self", "cls"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = sorted(unread_parameters(tree))
    assert unread == [], f"{path.name} has parameters its functions never read: {unread}"


def test_a_planted_unread_parameter_is_found():
    planted = ast.parse("def f(rng, sizes, trials):\n    return [rng() for _ in range(trials)]\n"
                        "g = lambda self, x, y: x\n")
    assert sorted(unread_parameters(planted)) == ["<lambda>(y)", "f(sizes)"]

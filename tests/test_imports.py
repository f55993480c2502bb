"""Package modules reach each other only through public names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zetastrip"


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("zetastrip"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _module_names(tree: ast.Module) -> dict[str, ast.AST]:
    """The names a module binds at its top level, each with its binding node."""
    names: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node
    return names


def _all_entries(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [element.value for element in node.value.elts]
    return []


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_all_entry_is_a_public_name_the_module_defines(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    entries = _all_entries(tree)
    assert [name for name in entries if name not in _module_names(tree)] == []
    assert [name for name in entries if name.startswith("_")] == []


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_private_module_name_is_used_in_its_module(path):
    # A private function, class or constant that only its definition names
    # is dead code, left behind by a deletion.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [
        name
        for name, node in _module_names(tree).items()
        if name.startswith("_") and not name.startswith("__") and not isinstance(node, (ast.Import, ast.ImportFrom))
        and name not in loaded
    ]
    assert unused == []

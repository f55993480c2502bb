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


_MUTATORS = {"append", "update", "setdefault", "pop", "clear", "add"}
# The one state a function may rebind: a forked child's own Dirichlet pool.
_STATE_EXCEPTIONS = {("special.py", "_renew_pool")}


def _state_writes(function: ast.AST, module_names: set[str]) -> list[str]:
    """What ``function`` rebinds or mutates of the module-level ``module_names``
    that it does not bind locally (nested functions included): a ``global``,
    an item or attribute store or deletion, or a mutating method call."""
    local = {arg.arg for node in ast.walk(function) if isinstance(node, ast.arguments)
             for arg in (*node.posonlyargs, *node.args, *node.kwonlyargs, node.vararg, node.kwarg) if arg}
    local |= {node.id for node in ast.walk(function) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    shared = module_names - local

    def root(node: ast.AST) -> str | None:
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        return node.id if isinstance(node, ast.Name) else None

    writes = []
    for node in ast.walk(function):
        if isinstance(node, ast.Global):
            writes += [f"global {name}" for name in node.names]
        targets = list(getattr(node, "targets", [getattr(node, "target", None)]))
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, (ast.Subscript, ast.Attribute)) and root(target) in shared:
                writes.append(f"{ast.unparse(target)} (line {node.lineno})")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS
                and root(node.func.value) in shared):
            writes.append(f"{ast.unparse(node.func)}() (line {node.lineno})")
    return writes


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_function_rebinds_or_mutates_module_state(path):
    # Module state a function writes is shared by every scenario thread of a
    # suite, hidden from its callers; a memoised pure function needs none.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = (ast.Import, ast.ImportFrom)  # a module's own state, not another module's
    module_names = {name for name, node in _module_names(tree).items() if not isinstance(node, imports)}
    found = {
        f"{node.name}: {write}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (path.name, node.name) not in _STATE_EXCEPTIONS
        for write in _state_writes(node, module_names)
    }
    assert sorted(found) == []


def test_the_state_guard_sees_the_pool_hook_and_a_registry_store():
    source = (
        "_POOL = None\n_CACHE = {}\n"
        "def renew():\n    global _POOL\n    _POOL = 1\n"
        "def store(a, value):\n    _CACHE[a] = value\n    _CACHE.setdefault(a, value)\n"
        "def local(a):\n    _CACHE = {}\n    _CACHE[a] = 1\n"
    )
    tree = ast.parse(source)
    names = set(_module_names(tree))
    writes = {node.name: _state_writes(node, names) for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert writes == {
        "renew": ["global _POOL"],
        "store": ["_CACHE[a] (line 7)", "_CACHE.setdefault() (line 8)"],
        "local": [],
    }

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

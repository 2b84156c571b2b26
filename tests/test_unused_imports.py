"""Every name a ``commacat`` module imports is used in that module.

A static check with ``ast``: it collects the names bound by every import
statement (module level or local) and the names the module reads.
Quoted annotations are not parsed; every module uses
``from __future__ import annotations``, so none is needed for an imported
name.  ``__init__`` is exempt because its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "commacat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.AST) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.setdefault(bound, node.lineno)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"

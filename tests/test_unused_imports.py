"""Every name a ``commacat`` module or test file imports is used in that file.

A static check with ``ast``: it collects the names bound by every import
statement (module level or local) and the names the file reads.
Quoted annotations are not parsed; every module uses
``from __future__ import annotations``, so none is needed for an imported
name.  ``__init__`` is exempt because its imports are re-exports.  Test
files import no pytest fixtures (those live in ``conftest.py`` or in the
file itself), so an imported name is used only where the file reads it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "commacat"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
# package modules keep their bare file names as ids; test files are marked as such
PATHS = [pytest.param(p, id=p.name) for p in MODULES] + [pytest.param(p, id=f"tests/{p.name}") for p in TESTS]


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


@pytest.mark.parametrize("path", PATHS)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"

"""Every module-level function or class of ``commacat`` is reached.

A static check with ``ast``, like ``test_unused_imports.py``.  A definition
counts as reached when another top-level statement of ``src/commacat``
reads its name (so a recursive call or a docstring is not a use), when a
decorator registers it (verify's ``@_clause``, or the CLI's
``@main.command()``), or when it is on ``TEST_FACING``: API that only the
tests call, every name of which some test must use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "commacat").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The paper's functors and units, the independent oracles the fast paths are
# tested against, and small constructors and checks the tests call directly.
TEST_FACING = {
    "functor_p_map",
    "functor_h_map",
    "functor_q",
    "p_counit",
    "h_unit",
    "gen_member_epi_oracle",
    "d_sigma_member_oracle",
    "identity_map",
    "zero_map",
    "compose",
    "memo_stats",
    "clear",
    "recheck_certificate",
}


def _names_read(node: ast.AST) -> set[str]:
    """Every name and attribute name under ``node``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _is_registered(node: ast.AST) -> bool:
    """True when a decorator registers ``node``: ``@_clause(...)`` or ``@main.command()``."""
    return any(
        isinstance(d, ast.Call) and ast.unparse(d.func) in ("_clause", "main.command")
        for d in node.decorator_list
    )


def _statements() -> list[tuple[str, ast.stmt]]:
    """(module file name, statement) for every top-level statement of the package."""
    return [
        (path.name, stmt)
        for path in MODULES
        for stmt in ast.parse(path.read_text(), filename=str(path)).body
    ]


def test_every_definition_is_reached():
    statements = [(module, stmt, _names_read(stmt)) for module, stmt in _statements()]
    unreached = [
        f"{module}: {stmt.name}"
        for module, stmt, _ in statements
        if isinstance(stmt, DEFINITIONS)
        and not _is_registered(stmt)
        and stmt.name not in TEST_FACING
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert not unreached, f"definitions nothing in src/commacat reaches: {unreached}"


def test_test_facing_names_are_defined_and_used_by_the_tests():
    defined = {stmt.name for _, stmt in _statements() if isinstance(stmt, DEFINITIONS)}
    assert TEST_FACING <= defined, f"not defined: {TEST_FACING - defined}"
    used = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != Path(__file__).name:
            used |= _names_read(ast.parse(path.read_text(), filename=str(path)))
    assert TEST_FACING <= used, f"no test uses: {TEST_FACING - used}"

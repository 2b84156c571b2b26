"""Every module-level function or class of ``commacat`` is reached by a command.

A static check with ``ast``, like ``test_unused_imports.py``.  Reach is
followed from the roots a command runs: ``cli.entry``, ``cli.main`` and its
``@main.command()`` functions, verify's ``@_clause`` registrations, and every
module-level statement that defines nothing.  A definition is reached when a
reached statement reads its name, and its own body is then followed in turn;
what only the tests or other unreached code read is not reached.  A
definition that is not reached must be on ``TEST_FACING``: API that only the
tests call, every name of which some test must use.  Reads go by name only,
attribute names included, so ``x.clear()`` anywhere reached also reaches a
function ``clear``, and a name defined in two modules is reached in both.

Five more checks of the same kind: every defaulted parameter of a
module-level function is passed by some call in the package (by keyword, by
position or through ``*``/``**``), or by the tests too where its function is
test-facing, unless the parameter itself is test-facing, and is left out by
some call in the package or the tests, so that no default goes unused; every
method other than a dunder is read somewhere in
the package outside its own body, and every field of a ``NamedTuple`` or
dataclass is read as an attribute somewhere in the package (``obj.field[k] = v``
writes into the field and does not read it).  The field check
matches by name only, so a field is missed when a field or attribute of the
same name elsewhere is read: an unread ``witness`` field of one result type
would pass while ``Presentation.witness`` is read.  And every position of a
tuple that a function is annotated to return is read by some call in the
package: ``a, _ = f()`` reads position 0 only, ``f()[1]`` position 1 only,
and any other use of the call, a ``return`` included, reads them all.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "commacat").glob("*.py"))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# The independent oracles the fast paths are tested against, and the memo
# registry's statistics and reset, which the tests call directly.
TEST_FACING = {"gen_member_epi_oracle", "d_sigma_member_oracle", "memo_stats", "clear"}


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


def _is_root(module: str, stmt: ast.stmt) -> bool:
    """A statement a command runs whatever it reads: any module-level statement
    that defines nothing, a registered definition, and ``cli.entry`` and ``cli.main``."""
    return (
        not isinstance(stmt, DEFINITIONS)
        or _is_registered(stmt)
        or module == "cli.py" and stmt.name in ("entry", "main")
    )


def test_every_definition_is_reached():
    statements = _statements()
    definitions = [(module, stmt) for module, stmt in statements if isinstance(stmt, DEFINITIONS)]
    reached = {stmt.name for module, stmt in definitions if _is_root(module, stmt)}
    frontier = [stmt for module, stmt in statements if _is_root(module, stmt)]
    while frontier:
        names = set().union(*(_names_read(stmt) for stmt in frontier)) - reached
        reached |= names
        frontier = [stmt for _, stmt in definitions if stmt.name in names]
    unreached = [
        f"{module}: {stmt.name}"
        for module, stmt in definitions
        if stmt.name not in reached and stmt.name not in TEST_FACING
    ]
    assert not unreached, f"definitions no command reaches: {unreached}"


def test_test_facing_names_are_defined_and_used_by_the_tests():
    defined = {stmt.name for _, stmt in _statements() if isinstance(stmt, DEFINITIONS)}
    assert TEST_FACING <= defined, f"not defined: {TEST_FACING - defined}"
    used = set()
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        if path.name != Path(__file__).name:
            used |= _names_read(ast.parse(path.read_text(), filename=str(path)))
    assert TEST_FACING <= used, f"no test uses: {TEST_FACING - used}"


# Defaulted parameters, as "function(parameter)", that only the tests pass; some
# test must pass each of them.  None today: the caps are module constants that
# tests monkeypatch, and extension_middle_terms passes the chunk size.
TEST_FACING_PARAMETERS: set[str] = set()


def _calls(tree: ast.AST) -> list[ast.Call]:
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _callee(call: ast.Call) -> str:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int, str]]:
    """(position, or -1 for keyword-only, name) of each parameter with a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return [(i, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (-1, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
    ]


def _passes(call: ast.Call, position: int, name: str) -> bool:
    """True when ``call`` passes the parameter by keyword, by position or through ``*``/``**``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
    return position >= 0 and (position < len(call.args) or bool(starred) and starred[0] <= position)


def _parameters_where(calls: list[ast.Call], passed: bool) -> set[str]:
    """"function(parameter)" for each defaulted parameter of a module-level
    function of the package that no call of ``calls`` passes (``passed``
    false) or that every one of them passes (``passed`` true)."""
    found = set()
    for _, stmt in _statements():
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            callers = [c for c in calls if _callee(c) == stmt.name]
            found |= {
                f"{stmt.name}({name})"
                for position, name in _defaulted(stmt)
                if all(_passes(c, position, name) == passed for c in callers)
            }
    return found


def _package_calls() -> list[ast.Call]:
    return [c for _, stmt in _statements() for c in _calls(stmt)]


def _test_calls() -> list[ast.Call]:
    return [
        c
        for path in sorted((ROOT / "tests").glob("*.py"))
        for c in _calls(ast.parse(path.read_text(), filename=str(path)))
    ]


def test_every_defaulted_parameter_is_passed():
    """A parameter of a test-facing function counts as passed when a test passes it."""
    calls = _package_calls()
    unpassed = {entry for entry in _parameters_where(calls, passed=False) if entry.split("(")[0] not in TEST_FACING}
    unpassed |= {
        entry for entry in _parameters_where(calls + _test_calls(), passed=False) if entry.split("(")[0] in TEST_FACING
    }
    assert unpassed == TEST_FACING_PARAMETERS, (
        f"parameters no call in src/commacat (or, for a test-facing function, in tests/) passes: "
        f"{sorted(unpassed - TEST_FACING_PARAMETERS)}; passed after all: {sorted(TEST_FACING_PARAMETERS - unpassed)}"
    )


def test_test_facing_parameters_are_passed_by_the_tests():
    assert not TEST_FACING_PARAMETERS & _parameters_where(_test_calls(), passed=False)


def test_every_default_is_used():
    """A default that every call in the package and the tests overrides is
    dead: the parameter should be required."""
    always = _parameters_where(_package_calls() + _test_calls(), passed=True)
    assert not always, f"defaults no call in src/commacat or tests/ uses: {sorted(always)}"


def test_every_method_is_read():
    statements = _statements()
    unread = [
        f"{module}: {cls.name}.{method.name}"
        for module, cls in statements
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (method.name.startswith("__") and method.name.endswith("__"))
        and method.name not in TEST_FACING
        # read anywhere in the package but inside the method itself
        and not any(
            method.name in _names_read(s)
            for s in [s for _, s in statements if s is not cls] + [s for s in cls.body if s is not method]
        )
    ]
    assert not unread, f"methods nothing in src/commacat reads: {unread}"


def _record_fields() -> list[str]:
    """"module: Class.field" for each field of a NamedTuple or dataclass of the package."""
    return [
        f"{module}: {cls.name}.{stmt.target.id}"
        for module, cls in _statements()
        if isinstance(cls, ast.ClassDef)
        and (any(ast.unparse(b) == "NamedTuple" for b in cls.bases)
             or any(ast.unparse(d).split("(")[0] == "dataclass" for d in cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _subscript_stores(node: ast.AST) -> set[ast.AST]:
    """The objects that subscript stores under ``node`` write into: ``t`` of ``t[k] = v``."""
    return {n.value for n in ast.walk(node) if isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)}


def test_every_record_field_is_read():
    """An attribute load that only serves ``obj.field[k] = v`` does not read the field."""
    read = set()
    for _, stmt in _statements():
        written_into = _subscript_stores(stmt)
        read |= {
            n.attr
            for n in ast.walk(stmt)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n not in written_into
        }
    fields = _record_fields()
    assert fields
    unread = [f for f in fields if f.rsplit(".", 1)[1] not in read]
    assert not unread, f"fields nothing in src/commacat reads: {unread}"


def _tuple_size(fn: ast.FunctionDef) -> int:
    """n for a function annotated to return ``tuple[T1, ..., Tn]``, else 0."""
    ret = fn.returns
    if isinstance(ret, ast.Subscript) and ast.unparse(ret.value) == "tuple" and isinstance(ret.slice, ast.Tuple):
        elts = ret.slice.elts
        return 0 if any(isinstance(e, ast.Constant) and e.value is Ellipsis for e in elts) else len(elts)
    return 0


def _positions_read(call: ast.Call, parent: ast.AST, size: int) -> set[int]:
    """The positions of ``call``'s tuple result that its use in ``parent`` reads."""
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1 and isinstance(parent.targets[0], ast.Tuple):
        elts = parent.targets[0].elts
        if not any(isinstance(e, ast.Starred) for e in elts):
            return {i for i, e in enumerate(elts) if not (isinstance(e, ast.Name) and e.id == "_")}
    if (
        isinstance(parent, ast.Subscript) and parent.value is call
        and isinstance(parent.slice, ast.Constant) and type(parent.slice.value) is int
    ):
        return {parent.slice.value % size}
    return set(range(size))


def test_every_tuple_position_is_read():
    statements = [stmt for _, stmt in _statements()]
    parents = {child: node for stmt in statements for node in ast.walk(stmt) for child in ast.iter_child_nodes(node)}
    unread = []
    for fn in statements:
        size = _tuple_size(fn) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) else 0
        calls = [c for stmt in statements for c in _calls(stmt) if _callee(c) == fn.name] if size else []
        if calls:
            read = set().union(*(_positions_read(c, parents[c], size) for c in calls))
            unread += [f"{fn.name}[{i}]" for i in range(size) if i not in read]
    assert not unread, f"tuple positions no call in src/commacat reads: {unread}"

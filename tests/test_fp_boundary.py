"""F_p data is validated in one place: ``linalg.fp_array``.

Every constructor that holds F_p data (algebras, bimodules, modules, maps,
comma objects and right T-modules) validates it through ``fp_array`` against
its full shape, and none checks a shape again.  A static check with ``ast``
keeps it so: ``int64_array``, the entry check under ``fp_array``, has no
other caller but the certificate schema, whose report input has no p.
"""

import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from commacat.algebra import Bimodule, FDAlgebra, dual_numbers_algebra, field_algebra, scalar_bimodule
from commacat.comma import CommaObject, RightTModule
from commacat.linalg import fp_array
from commacat.modules import LEFT, RIGHT, ModuleMap, ModuleRep, zero_module

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "commacat").glob("*.py"))


def _objects():
    k, d = field_algebra(2), dual_numbers_algebra(2)
    eye = [np.eye(2, dtype=np.int64)]
    return SimpleNamespace(
        k=k,
        d=d,
        u=scalar_bimodule(k, k, "U"),
        a=ModuleRep(k, LEFT, 2, eye),
        x=ModuleRep(k, RIGHT, 2, eye),
        z=zero_module(k),
        zr=zero_module(k, RIGHT),
    )


@pytest.mark.parametrize(
    "build, field, got",
    [
        (lambda o: FDAlgebra(2, np.zeros((2, 2, 3), dtype=np.int64), [1, 0]), "mul", "(2, 2, 2), got (2, 2, 3)"),
        (lambda o: FDAlgebra(2, 1, [1]), "mul", "(0, 0, 0), got ()"),
        (lambda o: FDAlgebra(2, [[[1]]], [1, 0]), "unit", "(1,), got (2,)"),
        (lambda o: FDAlgebra(2, [[[1]]], 1), "unit", "(1,), got ()"),
        (lambda o: Bimodule(o.k, o.d, 1, [[[1]], [[1]]], [[[1]], [[0]]]), "left_action", "(1, 1, 1), got (2, 1, 1)"),
        (lambda o: Bimodule(o.k, o.k, 1, [[[1]]], [[[1, 0], [0, 1]]]), "right_action", "(1, 1, 1), got (1, 2, 2)"),
        (lambda o: ModuleRep(o.d, LEFT, 1, [[[1]]]), "action", "(2, 1, 1), got (1, 1, 1)"),
        (lambda o: ModuleRep(o.k, LEFT, 2, [[[1]]]), "action", "(1, 2, 2), got (1, 1, 1)"),
        (lambda o: ModuleMap(o.a, o.a, [[1, 0]]), "map matrix", "(2, 2), got (1, 2)"),
        (lambda o: CommaObject(o.u, o.a, o.a, [[1, 0]]), "phi", "(2, 2), got (1, 2)"),
        (lambda o: RightTModule(o.u, o.x, o.x, [[1], [0]]), "psi", "(2, 2), got (2, 1)"),
    ],
    ids=["mul-not-a-cube", "mul-scalar", "unit-length", "unit-scalar", "bimodule-left-count", "bimodule-right-dim",
         "module-count", "module-dim", "map", "phi", "psi"],
)
def test_constructors_refuse_a_wrong_shape_naming_the_field(build, field, got):
    with pytest.raises(ValueError) as err:
        build(_objects())
    assert str(err.value) == f"{field} must have shape {got}"


@pytest.mark.parametrize(
    "build, field, shape",
    [
        (lambda o: FDAlgebra(2, [], []), "mul", (0, 0, 0)),
        (lambda o: Bimodule(o.k, o.d, 0, [[]], []), "right_action", (2, 0, 0)),
        (lambda o: ModuleRep(o.d, LEFT, 0, []), "action", (2, 0, 0)),
        (lambda o: ModuleMap(o.z, o.a, []), "matrix", (2, 0)),
        (lambda o: CommaObject(o.u, o.z, o.a, [[]]), "phi", (2, 0)),
        (lambda o: RightTModule(o.u, o.zr, o.x, []), "psi", (0, 2)),
    ],
    ids=["algebra", "bimodule", "module", "map", "phi", "psi"],
)
def test_constructors_take_entry_free_data_for_an_entry_free_shape(build, field, shape):
    value = getattr(build(_objects()), field)
    assert value.shape == shape and value.dtype == np.int64 and not value.flags.writeable


def test_modulus_type_is_checked_after_an_integer_modulus_passes():
    """``_check_modulus`` caches with ``typed=True``: a table keyed by value
    alone would let 3.0 and ``np.int64(3)`` hit the entry 3 leaves, since
    3 == 3.0, and pass."""
    fp_array(3, [[1]])
    FDAlgebra(3, [[[1]]], [1])
    for p in (3.0, np.int64(3)):
        with pytest.raises(ValueError, match="modulus must be an integer"):
            fp_array(p, [[1]])
    with pytest.raises(ValueError, match="modulus must be an integer"):
        FDAlgebra(3.0, [[[1]]], [1])


def _calls(node: ast.AST, name: str, where: str):
    """The qualified name of the innermost definition around each call of ``name`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and getattr(child.func, "id", getattr(child.func, "attr", None)) == name:
            yield where
        inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _calls(child, name, f"{where}.{child.name}" if inner else where)


def test_entries_are_checked_only_under_fp_array():
    callers = {c for path in SOURCES for c in _calls(ast.parse(path.read_text()), "int64_array", path.stem)}
    assert callers == {"linalg.fp_array", "verify._kind_error"}
    assert not [path.name for path in SOURCES if "frozen_actions" in path.read_text()]

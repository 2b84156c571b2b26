import numpy as np
import pytest

from commacat.algebra import (
    Bimodule,
    FDAlgebra,
    dual_numbers_algebra,
    field_algebra,
    scalar_bimodule,
    triangular_algebra,
    validate_algebra,
    validate_bimodule,
)


def test_field_algebra_valid():
    assert validate_algebra(field_algebra(2)) == []
    assert validate_algebra(field_algebra(5)) == []


def test_dual_numbers_valid():
    r = dual_numbers_algebra(2)
    assert validate_algebra(r) == []
    # x * x = 0
    assert list(r.product(np.array([0, 1]), np.array([0, 1]))) == [0, 0]


def test_broken_associativity_reported():
    r, s, u = _a2_parts()
    t = triangular_algebra(u)
    mul = t.mul.copy()
    mul[1, 1, 0] = 1  # force e_U * e_U = e_R: then (uu)u = 0 but u(uu) = u
    broken = FDAlgebra(2, mul, t.unit)
    violations = validate_algebra(broken)
    assert violations
    offending = [v for v in violations if v["kind"] == "associativity"]
    assert [1, 1, 1] in [v["triple"] for v in offending]


def test_broken_unit_reported():
    bad = FDAlgebra(2, [[[0]]], [1])
    violations = validate_algebra(bad)
    assert any("unit" in v["kind"] for v in violations)


def _a2_parts():
    r = field_algebra(2, "R")
    s = field_algebra(2, "S")
    u = scalar_bimodule(s, r, "U")
    return r, s, u


def test_triangular_a2_is_path_algebra():
    r, s, u = _a2_parts()
    t = triangular_algebra(u)
    assert t.dim == 3
    assert validate_algebra(t) == []
    # basis order (e_R, e_U, e_S); check the path-algebra relations
    e = np.eye(3, dtype=np.int64)
    assert list(t.product(e[0], e[0])) == [1, 0, 0]
    assert list(t.product(e[1], e[0])) == [0, 1, 0]  # u * r = u
    assert list(t.product(e[2], e[1])) == [0, 1, 0]  # s * u = u
    assert list(t.product(e[0], e[1])) == [0, 0, 0]
    assert list(t.product(e[1], e[1])) == [0, 0, 0]
    assert list(t.product(e[1], e[2])) == [0, 0, 0]
    # two orthogonal idempotents summing to the unit
    er, es = t.idempotent_r(), t.idempotent_s()
    assert list(t.product(er, er)) == list(er)
    assert list(t.product(es, es)) == list(es)
    assert list(t.product(er, es)) == [0, 0, 0]
    assert list((er + es) % 2) == list(t.unit)


def test_triangular_zero_bimodule_is_product_algebra():
    r, s, _ = _a2_parts()
    zero_u = Bimodule(s, r, 0, np.zeros((1, 0, 0), dtype=np.int64), np.zeros((1, 0, 0), dtype=np.int64))
    t = triangular_algebra(zero_u)
    assert t.dim == 2
    assert validate_algebra(t) == []
    e = np.eye(2, dtype=np.int64)
    # componentwise product, no cross terms
    assert list(t.product(e[0], e[1])) == [0, 0]
    assert list(t.product(e[1], e[0])) == [0, 0]


def test_triangular_dual_numbers():
    r = dual_numbers_algebra(2, "R")
    s = field_algebra(2, "S")
    u = Bimodule(s, r, 1, [[[1]]], [[[1]], [[0]]], label="U")
    assert validate_bimodule(u) == []
    t = triangular_algebra(u)
    assert t.dim == 4
    assert validate_algebra(t) == []


def test_triangular_prime_mismatch():
    r = field_algebra(2)
    s = field_algebra(3)
    with pytest.raises(ValueError):
        u = Bimodule(s, r, 1, [[[1]]], [[[1]]])


def test_bimodule_commuting_violation_detected():
    r = dual_numbers_algebra(2, "R")
    s = dual_numbers_algebra(2, "S")
    one = [[1, 0], [0, 1]]
    nil = [[0, 0], [1, 0]]
    # left action of x and right action of x both nilpotent but not commuting
    other = [[0, 1], [0, 0]]
    u = Bimodule(s, r, 2, [one, nil], [one, other])
    kinds = {v["kind"] for v in validate_bimodule(u)}
    assert "actions-commute" in kinds

"""Finite-dimensional associative unital algebras over F_p by structure constants.

An algebra of dimension d is a tensor mul[i][j][k] (the coefficient of
e_k in e_i * e_j) together with the coordinates of the unit.  The
triangular construction glues two algebras R, S along an (S, R)-bimodule
U into the algebra of formal lower-triangular matrices, with basis
ordered R-block, U-block, S-block.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .linalg import fp_array
from .memo import ContentKeyed, content_bytes


class FDAlgebra(ContentKeyed):
    """Associative unital algebra over F_p given by structure constants: ``mul``
    (dim, dim, dim) and ``unit`` (dim,), read-only int64 arrays reduced mod p."""

    __slots__ = ("p", "dim", "mul", "unit", "label")

    def __init__(self, p: int, mul, unit, label: str = "") -> None:
        d = len(mul) if np.iterable(mul) else 0
        self.p = p
        self.dim = d
        self.mul = fp_array(p, mul, "mul", (d, d, d))
        self.unit = fp_array(p, unit, "unit", (d,))
        self.label = label

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.mul) % self.p

    def _content(self) -> tuple:
        return ("algebra", self.p, self.dim, content_bytes(self.p, self.mul, self.unit))

    def __repr__(self) -> str:
        name = self.label or "FDAlgebra"
        return f"<{name} dim={self.dim} over F_{self.p}>"


def validate_algebra(a: FDAlgebra) -> list[dict]:
    """All violated associativity / unit axioms, as structured records.

    Empty list means valid.
    """
    violations: list[dict] = []
    p, d, mul = a.p, a.dim, a.mul
    # (e_i e_j) e_k with coefficients through the structure constants
    lhs = np.einsum("ijl,lkm->ijkm", mul, mul) % p
    rhs = np.einsum("jkl,ilm->ijkm", mul, mul) % p
    for i, j, k in zip(*np.nonzero((lhs != rhs).any(axis=3))):
        violations.append(
            {
                "kind": "associativity",
                "triple": [int(i), int(j), int(k)],
                "left": [int(x) for x in lhs[i, j, k]],
                "right": [int(x) for x in rhs[i, j, k]],
            }
        )
    for i in range(d):
        e = np.zeros(d, dtype=np.int64)
        e[i] = 1
        left = a.product(a.unit, e)
        right = a.product(e, a.unit)
        if not np.array_equal(left, e):
            violations.append({"kind": "left-unit", "basis": i, "got": [int(x) for x in left]})
        if not np.array_equal(right, e):
            violations.append({"kind": "right-unit", "basis": i, "got": [int(x) for x in right]})
    return violations


def module_law(p: int, mul: np.ndarray, unit: np.ndarray, stack: np.ndarray) -> tuple[bool, list[list[int]]]:
    """The module law for a (d, n, n) stack of action matrices A_k.

    Returns whether sum_k unit[k] A_k is the identity, and the pairs [i, j],
    in row-major order, with A_i A_j != sum_k mul[i, j, k] A_k.  A right
    action reverses products, so its caller passes ``mul`` with the first
    two axes swapped.  Each side is reduced mod p before it is compared.
    """
    unit_ok = np.array_equal(np.einsum("k,kab->ab", unit, stack) % p, np.eye(stack.shape[1], dtype=np.int64))
    lhs = np.einsum("iab,jbc->ijac", stack, stack) % p
    rhs = np.einsum("ijk,kac->ijac", mul, stack) % p
    bad = np.nonzero((lhs != rhs).any(axis=(2, 3)))
    return unit_ok, [[int(i), int(j)] for i, j in zip(*bad)]


class Bimodule(ContentKeyed):
    """(S, R)-bimodule: left S-action and right R-action on F_p^dim, commuting."""

    __slots__ = ("s_algebra", "r_algebra", "dim", "left_action", "right_action", "label")

    def __init__(
        self,
        s_algebra: FDAlgebra,
        r_algebra: FDAlgebra,
        dim: int,
        left_action,
        right_action,
        label: str = "",
    ) -> None:
        if s_algebra.p != r_algebra.p:
            raise ValueError("component algebras have different moduli")
        self.s_algebra = s_algebra
        self.r_algebra = r_algebra
        self.dim = dim
        self.left_action = fp_array(s_algebra.p, left_action, "left_action", (s_algebra.dim, dim, dim))
        self.right_action = fp_array(s_algebra.p, right_action, "right_action", (r_algebra.dim, dim, dim))
        self.label = label

    @property
    def p(self) -> int:
        return self.s_algebra.p

    def _content(self) -> tuple:
        actions = content_bytes(self.p, self.left_action, self.right_action)
        return ("bimodule", self.s_algebra.key, self.r_algebra.key, self.dim, actions)


def validate_bimodule(u: Bimodule) -> list[dict]:
    violations: list[dict] = []
    s, r, left, right = u.s_algebra, u.r_algebra, u.left_action, u.right_action
    left_unit, left_bad = module_law(u.p, s.mul, s.unit, left)
    # right action reverses: u*(e_j e_i) = (u*e_j)*e_i
    right_unit, right_bad = module_law(u.p, r.mul.transpose(1, 0, 2), r.unit, right)
    if not left_unit:
        violations.append({"kind": "left-unit"})
    if not right_unit:
        violations.append({"kind": "right-unit"})
    violations += [{"kind": "left-composition", "pair": ij} for ij in left_bad]
    violations += [{"kind": "right-composition", "pair": ij} for ij in right_bad]
    left_right = np.einsum("iab,jbc->ijac", left, right) % u.p
    right_left = np.einsum("jab,ibc->ijac", right, left) % u.p
    bad = np.nonzero((left_right != right_left).any(axis=(2, 3)))
    violations += [{"kind": "actions-commute", "pair": [int(i), int(j)]} for i, j in zip(*bad)]
    return violations


class TriangularAlgebra(FDAlgebra):
    """The matrix algebra [[R, 0], [U, S]] of the (S, R)-bimodule U, keeping its block structure."""

    __slots__ = ("r", "s", "u", "r_slice", "u_slice", "s_slice")

    def __init__(self, u: Bimodule, mul, unit, label: str = "") -> None:
        super().__init__(u.p, mul, unit, label or "T")
        self.r, self.s, self.u = u.r_algebra, u.s_algebra, u
        self.r_slice = slice(0, self.r.dim)
        self.u_slice = slice(self.r.dim, self.r.dim + u.dim)
        self.s_slice = slice(self.r.dim + u.dim, self.dim)

    def idempotent_r(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[self.r_slice] = self.r.unit
        return e

    def idempotent_s(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[self.s_slice] = self.s.unit
        return e


def triangular_algebra(u: Bimodule, label: str = "") -> TriangularAlgebra:
    """Triangular matrix algebra [[R, 0], [U, S]] of the (S, R)-bimodule U; a ValueError
    names the first violation of R, S or U.  Product rule on triples:
    (r, u, s)(r', u', s') = (rr', u r' + s u', ss')."""
    r, s = u.r_algebra, u.s_algebra
    bad = validate_algebra(r) + validate_algebra(s)
    if bad:
        raise ValueError(f"invalid component algebra: {bad[0]}")
    bad = validate_bimodule(u)
    if bad:
        raise ValueError(f"invalid bimodule: {bad[0]}")

    p = r.p
    dr, du, ds = r.dim, u.dim, s.dim
    d = dr + du + ds
    mul = np.zeros((d, d, d), dtype=np.int64)
    mul[:dr, :dr, :dr] = r.mul
    mul[dr + du :, dr + du :, dr + du :] = s.mul
    # u_i e_j = sum_k right_action[j][k, i] u_k, and e_i u_j = sum_k left_action[i][k, j] u_k
    mul[dr : dr + du, :dr, dr : dr + du] = u.right_action.transpose(2, 0, 1)
    mul[dr + du :, dr : dr + du, dr : dr + du] = u.left_action.transpose(0, 2, 1)
    unit = np.zeros(d, dtype=np.int64)
    unit[:dr] = r.unit
    unit[dr + du :] = s.unit
    t = TriangularAlgebra(u, mul, unit, label=label)
    bad = validate_algebra(t)
    if bad:
        raise AssertionError(f"triangular construction produced an invalid algebra: {bad[0]}")
    return t


def field_algebra(p: int, label: str = "") -> FDAlgebra:
    """F_p itself as the one-dimensional algebra."""
    return FDAlgebra(p, [[[1]]], [1], label=label or f"F_{p}")


def dual_numbers_algebra(p: int, label: str = "") -> FDAlgebra:
    """F_p[x]/(x^2), basis {1, x}."""
    mul = np.zeros((2, 2, 2), dtype=np.int64)
    mul[0, 0, 0] = 1
    mul[0, 1, 1] = 1
    mul[1, 0, 1] = 1
    return FDAlgebra(p, mul, [1, 0], label=label or f"F_{p}[x]/(x^2)")


def scalar_bimodule(s: FDAlgebra, r: FDAlgebra, label: str) -> Optional[Bimodule]:
    """The one-dimensional bimodule with both units acting as 1 (only for fields)."""
    if s.dim != 1 or r.dim != 1:
        raise ValueError("scalar bimodule needs one-dimensional algebras")
    return Bimodule(s, r, 1, [[[1]]], [[[1]]], label=label)

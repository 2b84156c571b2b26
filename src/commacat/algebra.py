"""Finite-dimensional associative unital algebras over F_p by structure constants.

An algebra of dimension d is a tensor mul[i][j][k] (the coefficient of
e_k in e_i * e_j) together with the coordinates of the unit.  The
triangular construction glues two algebras R, S along an (S, R)-bimodule
U into the algebra of formal lower-triangular matrices, with basis
ordered R-block, U-block, S-block.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .linalg import FpMatrix, _check_modulus, int64_array
from .memo import ContentKeyed, content_bytes


class FDAlgebra(ContentKeyed):
    """Associative unital algebra over F_p given by structure constants."""

    __slots__ = ("p", "dim", "mul", "unit", "label")

    def __init__(self, p: int, mul, unit, label: str = "") -> None:
        _check_modulus(p)
        m = np.mod(int64_array(mul, "mul"), p)
        if m.ndim != 3 or m.shape[0] != m.shape[1] or m.shape[1] != m.shape[2]:
            raise ValueError("structure constants must form a d x d x d tensor")
        u = np.mod(int64_array(unit, "unit"), p)
        if u.shape != (m.shape[0],):
            raise ValueError("unit must be a d-coordinate vector")
        m.setflags(write=False)
        u.setflags(write=False)
        self.p = p
        self.dim = int(m.shape[0])
        self.mul = m
        self.unit = u
        self.label = label

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.einsum("i,j,ijk->k", a, b, self.mul) % self.p

    def left_mult_matrix(self, a) -> FpMatrix:
        """Matrix of x -> a*x in the basis."""
        vec = np.asarray(a, dtype=np.int64)
        return FpMatrix(self.p, np.einsum("i,ijk->kj", vec, self.mul))

    def right_mult_matrix(self, a) -> FpMatrix:
        """Matrix of x -> x*a in the basis."""
        vec = np.asarray(a, dtype=np.int64)
        return FpMatrix(self.p, np.einsum("i,jik->kj", vec, self.mul))

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


class Bimodule(ContentKeyed):
    """(S, R)-bimodule: left S-action and right R-action on F_p^dim, commuting."""

    __slots__ = ("s_algebra", "r_algebra", "dim", "left_action", "right_action", "label")

    def __init__(
        self,
        s_algebra: FDAlgebra,
        r_algebra: FDAlgebra,
        dim: int,
        left_action: Sequence[FpMatrix],
        right_action: Sequence[FpMatrix],
        label: str = "",
    ) -> None:
        if s_algebra.p != r_algebra.p:
            raise ValueError("component algebras have different moduli")
        if len(left_action) != s_algebra.dim or len(right_action) != r_algebra.dim:
            raise ValueError("one action matrix per algebra basis element required")
        for m in list(left_action) + list(right_action):
            if m.rows != dim or m.cols != dim or m.p != s_algebra.p:
                raise ValueError("action matrices must be dim x dim over the algebras' field")
        self.s_algebra = s_algebra
        self.r_algebra = r_algebra
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self.label = label

    @property
    def p(self) -> int:
        return self.s_algebra.p

    def left_act(self, s_vec: np.ndarray) -> FpMatrix:
        out = FpMatrix.zeros(self.p, self.dim, self.dim)
        for i, c in enumerate(s_vec):
            if c % self.p:
                out = out + self.left_action[i].scale(int(c))
        return out

    def right_act(self, r_vec: np.ndarray) -> FpMatrix:
        out = FpMatrix.zeros(self.p, self.dim, self.dim)
        for i, c in enumerate(r_vec):
            if c % self.p:
                out = out + self.right_action[i].scale(int(c))
        return out

    def _content(self) -> tuple:
        actions = content_bytes(self.p, *(a.array() for a in self.left_action + self.right_action))
        return ("bimodule", self.s_algebra.key, self.r_algebra.key, self.dim, actions)


def validate_bimodule(u: Bimodule) -> list[dict]:
    violations: list[dict] = []
    p = u.p
    s, r = u.s_algebra, u.r_algebra

    def expand(action, coeffs):
        out = FpMatrix.zeros(p, u.dim, u.dim)
        for k, c in enumerate(coeffs):
            if c % p:
                out = out + action[k].scale(int(c))
        return out

    if u.left_act(s.unit) != FpMatrix.identity(p, u.dim):
        violations.append({"kind": "left-unit"})
    if u.right_act(r.unit) != FpMatrix.identity(p, u.dim):
        violations.append({"kind": "right-unit"})
    for i in range(s.dim):
        for j in range(s.dim):
            if u.left_action[i] @ u.left_action[j] != expand(u.left_action, s.mul[i, j, :]):
                violations.append({"kind": "left-composition", "pair": [i, j]})
    for i in range(r.dim):
        for j in range(r.dim):
            # right action reverses: u*(e_j e_i) = (u*e_j)*e_i
            if u.right_action[i] @ u.right_action[j] != expand(u.right_action, r.mul[j, i, :]):
                violations.append({"kind": "right-composition", "pair": [i, j]})
    for i in range(s.dim):
        for j in range(r.dim):
            if u.left_action[i] @ u.right_action[j] != u.right_action[j] @ u.left_action[i]:
                violations.append({"kind": "actions-commute", "pair": [i, j]})
    return violations


class TriangularAlgebra(FDAlgebra):
    """The matrix algebra [[R, 0], [U, S]], keeping its block structure."""

    __slots__ = ("r", "s", "u", "r_slice", "u_slice", "s_slice")

    def __init__(self, r: FDAlgebra, s: FDAlgebra, u: Bimodule, mul, unit, label: str = "") -> None:
        super().__init__(r.p, mul, unit, label or "T")
        self.r = r
        self.s = s
        self.u = u
        self.r_slice = slice(0, r.dim)
        self.u_slice = slice(r.dim, r.dim + u.dim)
        self.s_slice = slice(r.dim + u.dim, r.dim + u.dim + s.dim)

    def idempotent_r(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[self.r_slice] = self.r.unit
        return e

    def idempotent_s(self) -> np.ndarray:
        e = np.zeros(self.dim, dtype=np.int64)
        e[self.s_slice] = self.s.unit
        return e


def triangular_algebra(r: FDAlgebra, s: FDAlgebra, u: Bimodule, label: str = "") -> TriangularAlgebra:
    """Triangular matrix algebra of R, S and the (S, R)-bimodule U.

    Product rule on triples: (r, u, s)(r', u', s') = (rr', u r' + s u', ss').
    """
    if r.p != s.p or u.p != r.p:
        raise ValueError("prime mismatch between components")
    if u.s_algebra != s or u.r_algebra != r:
        raise ValueError("bimodule is not an (S, R)-bimodule over the given algebras")
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
    for j in range(dr):
        ra = u.right_action[j].array()
        for i in range(du):
            mul[dr + i, j, dr : dr + du] = ra[:, i]
    for i in range(ds):
        la = u.left_action[i].array()
        for j in range(du):
            mul[dr + du + i, dr + j, dr : dr + du] = la[:, j]
    unit = np.zeros(d, dtype=np.int64)
    unit[:dr] = r.unit
    unit[dr + du :] = s.unit
    t = TriangularAlgebra(r, s, u, mul, unit, label=label)
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


def scalar_bimodule(s: FDAlgebra, r: FDAlgebra, label: str = "") -> Optional[Bimodule]:
    """The one-dimensional bimodule with both units acting as 1 (only for fields)."""
    if s.dim != 1 or r.dim != 1:
        raise ValueError("scalar bimodule needs one-dimensional algebras")
    one = FpMatrix.identity(s.p, 1)
    return Bimodule(s, r, 1, [one], [one], label=label)

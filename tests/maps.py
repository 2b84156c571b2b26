"""Maps that the tests build and no command does.

The adjunction claims p -| q -| h compare Hom dimensions, so no command builds a
map of modules or of comma objects out of nothing: these are the identity, zero
and composite module maps, comma maps, p and h on maps with the counit of p -| q
and the unit of q -| h, for the functoriality and triangle-identity tests, and
one certificate recheck under any clause.  q forgets phi: q(C) is (C.A, C.B).
"""

import numpy as np

from commacat.algebra import Bimodule
from commacat.comma import CommaObject, _block_diag, functor_h, functor_p, tilde_phi
from commacat.modules import AlgebraMismatch, ModuleMap, ModuleRep, hom_coords, hom_module, tensor_map, tensor_over
from commacat.verify import CLAUSES, check_certificate


def identity_map(m: ModuleRep) -> ModuleMap:
    return ModuleMap(m, m, np.eye(m.dim, dtype=np.int64))


def zero_map(m: ModuleRep, n: ModuleRep) -> ModuleMap:
    return ModuleMap(m, n, np.zeros((n.dim, m.dim), dtype=np.int64))


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    if f.target != g.source:
        raise AlgebraMismatch("maps do not compose")
    return ModuleMap(f.source, g.target, g.matrix @ f.matrix % f.source.p)


class CommaMap:
    """Pair (f, g) making the square with U (x) f commute."""

    __slots__ = ("source", "target", "f", "g")

    def __init__(self, source: CommaObject, target: CommaObject, f: ModuleMap, g: ModuleMap) -> None:
        self.source = source
        self.target = target
        self.f = f
        self.g = g

    def is_valid(self) -> bool:
        p, iu = self.source.p, np.eye(self.source.bimodule.dim, dtype=np.int64)
        square = np.array_equal(self.g.matrix @ self.source.phi % p, self.target.phi @ np.kron(iu, self.f.matrix) % p)
        return square and self.f.is_valid() and self.g.is_valid()


def functor_p_map(u: Bimodule, f: ModuleMap, g: ModuleMap) -> CommaMap:
    """p on morphisms: (f, Ff + g)."""
    src = functor_p(u, f.source, g.source)
    tgt = functor_p(u, f.target, g.target)
    ff = tensor_map(u, f)
    gmap = ModuleMap(src.B, tgt.B, _block_diag(ff.matrix, g.matrix))
    return CommaMap(src, tgt, ModuleMap(src.A, tgt.A, f.matrix), gmap)


def functor_h_map(u: Bimodule, f: ModuleMap, g: ModuleMap) -> CommaMap:
    """h on morphisms: (f + Hom(U, g), g)."""
    src = functor_h(u, f.source, g.source)
    tgt = functor_h(u, f.target, g.target)
    hm_src = hom_module(u, g.source)
    hm_tgt = hom_module(u, g.target)
    hom_part = hom_coords(u.p, hm_tgt.basis, g.matrix @ hm_src.basis % u.p)
    fmat = _block_diag(f.matrix, hom_part)
    return CommaMap(src, tgt, ModuleMap(src.A, tgt.A, fmat), ModuleMap(src.B, tgt.B, g.matrix))


def p_counit(c: CommaObject) -> CommaMap:
    """The counit p(q(C)) -> C of the p -| q adjunction."""
    u = c.bimodule
    src = functor_p(u, c.A, c.B)
    tensor = tensor_over(u, c.A)
    g = np.hstack([c.phi @ tensor.section % c.p, np.eye(c.B.dim, dtype=np.int64)])
    return CommaMap(src, c, ModuleMap(src.A, c.A, np.eye(c.A.dim, dtype=np.int64)), ModuleMap(src.B, c.B, g))


def h_unit(c: CommaObject) -> CommaMap:
    """The unit C -> h(q(C)) of the q -| h adjunction."""
    u = c.bimodule
    tgt = functor_h(u, c.A, c.B)
    fmat = np.vstack([np.eye(c.A.dim, dtype=np.int64), tilde_phi(c).matrix])
    return CommaMap(c, tgt, ModuleMap(c.A, tgt.A, fmat), ModuleMap(c.B, tgt.B, np.eye(c.B.dim, dtype=np.int64)))


def recheck_certificate(cert: dict, env: dict) -> bool:
    """Check the fields of one certificate of any clause and re-verify it
    from raw data in ``env``: "universe" (the modules its indices name),
    "x"/"y" (torsion-pair families), "family" (closure), "presentation"
    (silting: Gen is of the module it presents), "lhs"/"rhs" (perpendicular
    transfer), or "fixture" (top-level claims)."""
    return check_certificate(cert, list(CLAUSES), env, "certificate").recheck(cert, env)

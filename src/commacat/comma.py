"""Comma-category objects for the triangular matrix ring, and their calculus.

A comma object is a triple (A, B, phi) with A a left R-module, B a left
S-module and phi an S-linear map U (x)_R A -> B.  The matrix of phi is
stored on the full tensor space k^(dim U * dim A) in u-major
lexicographic order (column index = u_index * dim A + a_index); vanishing
on the balancing subspace is a validation invariant, so documents stay
basis-free.

Comma objects correspond to left modules over T = [[R, 0], [U, S]]:
(r, u, s) acts on (a, b) by (r a, phi(u (x) a) + s b).  Both directions
of that correspondence are implemented, and every Hom computation can be
cross-checked through it.  :func:`hom_comma` solves one closed-form system per
pair of comma summands: intertwining for f and g, then the square.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import Bimodule, TriangularAlgebra, triangular_algebra
from .linalg import (
    column_space_basis,
    combination_chunks,
    first_of_rank,
    fp_array,
    intertwining_system,
    kernel_basis,
    rank,
    solve_each,
)
from .modules import (
    LEFT,
    RIGHT,
    AlgebraMismatch,
    HomModule,
    IsoResult,
    IsoSearchCapExceeded,
    ModuleMap,
    ModuleRep,
    balancing_generators,
    balanced_tensor,
    diagonal_blocks,
    direct_sum,
    generator_stack,
    hom_coords,
    hom_dim,
    hom_module,
    hom_space,
    image_kernel_cokernel,
    is_isomorphic,
    quotient_module,
    regular_module,
    scatter_blocks,
    tensor_dim,
    tensor_map,
    tensor_over,
    zero_module,
)
from .memo import ContentKeyed, content_bytes, memo, unpack_bytes
from .presentations import Presentation


@memo("triangular_for")
def triangular_for(u: Bimodule) -> TriangularAlgebra:
    return triangular_algebra(u.r_algebra, u.s_algebra, u)


class CommaObject(ContentKeyed):
    """Triple (A, B, phi) with phi stored on the full u-major tensor space:
    ``phi`` is the read-only (dim B, dim U * dim A) int64 array, reduced mod p,
    that the constructor validates (:func:`~commacat.linalg.fp_array`) and copies."""

    __slots__ = ("bimodule", "A", "B", "phi", "label")

    def __init__(self, bimodule: Bimodule, a: ModuleRep, b: ModuleRep, phi, label: str = "") -> None:
        if a.algebra != bimodule.r_algebra or a.side != LEFT:
            raise AlgebraMismatch("A component must be a left module over R")
        if b.algebra != bimodule.s_algebra or b.side != LEFT:
            raise AlgebraMismatch("B component must be a left module over S")
        shape = (b.dim, bimodule.dim * a.dim)
        phi = fp_array(bimodule.p, phi, "phi", shape)
        if phi.shape != shape:
            raise ValueError(
                f"phi must be {shape[0]} x {shape[1]} over F_{bimodule.p}, got {phi.shape[0]} x {phi.shape[1]}"
            )
        self.bimodule = bimodule
        self.A = a
        self.B = b
        self.phi = phi
        self.label = label

    @property
    def p(self) -> int:
        return self.bimodule.p

    @property
    def total_dim(self) -> int:
        return self.A.dim + self.B.dim

    def relabel(self, label: str) -> "CommaObject":
        return CommaObject(self.bimodule, self.A, self.B, self.phi, label)

    def _content(self) -> tuple:
        return ("comma", self.bimodule.key, self.A.key, self.B.key, content_bytes(self.p, self.phi))

    def __repr__(self) -> str:
        return f"<comma {self.label or '?'}: A dim {self.A.dim}, B dim {self.B.dim}>"


def validate_comma(c: CommaObject) -> list[dict]:
    """Balance and S-linearity violations of phi (plus component validity)."""
    from .modules import validate_module

    violations = []
    for name, comp in (("A", c.A), ("B", c.B)):
        for v in validate_module(comp):
            violations.append({"kind": f"component-{name}", "detail": v})
    u = c.bimodule
    from .modules import bimodule_as_right_module

    gens = balancing_generators(bimodule_as_right_module(u), c.A)
    if gens.shape[1] and (balance := c.phi @ gens % c.p).any():
        violations.append({"kind": "phi-balance", "relations": np.flatnonzero(balance.any(axis=0)).tolist()})
    # phi @ kron(s_i, I_A), as in modules.tensor_over, against s_i @ phi
    phi = c.phi
    through = np.einsum("rub,iuv->irvb", phi.reshape(c.B.dim, u.dim, c.A.dim), u.left_action)
    linear = (through.reshape(u.s_algebra.dim, c.B.dim, u.dim * c.A.dim) - c.B.action @ phi) % c.p
    violations += [{"kind": "phi-linearity", "basis": int(i)} for i in np.flatnonzero(linear.any(axis=(1, 2)))]
    return violations


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


def comma_from_components(
    u: Bimodule, a: Optional[ModuleRep] = None, b: Optional[ModuleRep] = None, label: str = ""
) -> CommaObject:
    """Comma object with zero phi; either component may be omitted (zero)."""
    a = a if a is not None else zero_module(u.r_algebra, LEFT)
    b = b if b is not None else zero_module(u.s_algebra, LEFT)
    return CommaObject(u, a, b, np.zeros((b.dim, u.dim * a.dim), dtype=np.int64), label=label)


def canonical_tensor_comma(u: Bimodule, a: ModuleRep, label: str = "") -> CommaObject:
    """The object (A, U (x) A) with phi the canonical projection."""
    tensor = tensor_over(u, a)
    return CommaObject(u, a, tensor.module, tensor.projection, label=label or f"({a.label},F{a.label})")


# -- the three functors ------------------------------------------------------


def _block_diag(*mats: np.ndarray) -> np.ndarray:
    """The block-diagonal matrix with diagonal blocks ``mats``, in order."""
    out = np.zeros((sum(m.shape[0] for m in mats), sum(m.shape[1] for m in mats)), dtype=np.int64)
    r = c = 0
    for m in mats:
        out[r : r + m.shape[0], c : c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


def functor_p(u: Bimodule, a: ModuleRep, b: ModuleRep) -> CommaObject:
    """p(A, B) = (A, FA + B) with phi the inclusion of FA."""
    tensor = tensor_over(u, a)
    bsum = direct_sum([tensor.module, b], algebra=u.s_algebra, side=LEFT)
    phi = np.vstack([tensor.projection, np.zeros((b.dim, tensor.projection.shape[1]), dtype=np.int64)])
    return CommaObject(u, a, bsum.module, phi, label=f"p({a.label},{b.label})")


def functor_p_map(u: Bimodule, f: ModuleMap, g: ModuleMap) -> CommaMap:
    """p on morphisms: (f, Ff + g)."""
    src = functor_p(u, f.source, g.source)
    tgt = functor_p(u, f.target, g.target)
    ff = tensor_map(u, f)
    gmap = ModuleMap(src.B, tgt.B, _block_diag(ff.matrix, g.matrix))
    return CommaMap(src, tgt, ModuleMap(src.A, tgt.A, f.matrix), gmap)


def functor_q(c: CommaObject) -> tuple[ModuleRep, ModuleRep]:
    """q(A, B) = (A, B): forget phi."""
    return c.A, c.B


def functor_h(u: Bimodule, a: ModuleRep, b: ModuleRep) -> CommaObject:
    """h(A, B) = (A + Hom_S(U, B), B) with phi the evaluation on the Hom part."""
    hm = hom_module(u, b)
    asum = direct_sum([a, hm.module], algebra=u.r_algebra, side=LEFT)
    da = asum.module.dim
    # column u_i * da + (a.dim + l) of phi is the image of u_i under basis map l
    phi = np.zeros((b.dim, u.dim, da), dtype=np.int64)
    phi[:, :, a.dim :] = hm.basis.transpose(1, 2, 0)
    return CommaObject(u, asum.module, b, phi.reshape(b.dim, u.dim * da), label=f"h({a.label},{b.label})")


def functor_h_map(u: Bimodule, f: ModuleMap, g: ModuleMap) -> CommaMap:
    """h on morphisms: (f + Hom(U, g), g)."""
    src = functor_h(u, f.source, g.source)
    tgt = functor_h(u, f.target, g.target)
    hm_src = hom_module(u, g.source)
    hm_tgt = hom_module(u, g.target)
    hom_part = hom_coords(u.p, hm_tgt.basis, g.matrix @ hm_src.basis % u.p)
    fmat = _block_diag(f.matrix, hom_part)
    return CommaMap(src, tgt, ModuleMap(src.A, tgt.A, fmat), ModuleMap(src.B, tgt.B, g.matrix))


# -- adjunction unit / counit -------------------------------------------------


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
    tp = tilde_phi(c)
    fmat = np.vstack([np.eye(c.A.dim, dtype=np.int64), tp.map.matrix])
    return CommaMap(c, tgt, ModuleMap(c.A, tgt.A, fmat), ModuleMap(c.B, tgt.B, np.eye(c.B.dim, dtype=np.int64)))


# -- the T-module correspondence ----------------------------------------------


def to_T_module(c: CommaObject, t: Optional[TriangularAlgebra] = None) -> ModuleRep:
    """The left T-module on A + B with (r, u, s).(a, b) = (ra, phi(u (x) a) + sb).
    Memoized per (c, t), with t resolved."""
    return _to_T_module(c, t or triangular_for(c.bimodule))


@memo("to_T_module")
def _to_T_module(c: CommaObject, t: TriangularAlgebra) -> ModuleRep:
    bad = validate_comma(c)
    if bad:
        raise ValueError(f"invalid comma object: {bad[0]}")
    da, db = c.A.dim, c.B.dim
    stack = np.zeros((t.dim, da + db, da + db), dtype=np.int64)
    stack[t.r_slice, :da, :da] = c.A.action
    # u_j acts by the block of phi's columns u_j (x) a, from A into B
    stack[t.u_slice, da:, :da] = c.phi.reshape(db, c.bimodule.dim, da).transpose(1, 0, 2)
    stack[t.s_slice, da:, da:] = c.B.action
    return ModuleRep(t, LEFT, da + db, stack, label=c.label or "T-module")


class FromTResult(NamedTuple):
    comma: CommaObject
    witness: ModuleMap  # isomorphism m -> to_T_module(comma)


@memo("from_T_module")
def from_T_module(m: ModuleRep, t: TriangularAlgebra) -> FromTResult:
    """Slice a left T-module along the block idempotents into a comma object.  Memoized."""
    if m.algebra != t or m.side != LEFT:
        raise AlgebraMismatch("expected a left module over the triangular algebra")
    p, er, es = m.p, m.act(t.idempotent_r()), m.act(t.idempotent_s())
    a_cols, b_cols = column_space_basis(p, er), column_space_basis(p, es)
    # One solve per slice basis: the R-action and the projection e_R onto
    # the R-slice; the S-action, the U-action (phi, one block per u_j,
    # landing in the S-slice) and the projection e_S onto the S-slice.
    a_solved = solve_each(p, a_cols, m.action[t.r_slice] @ a_cols % p, er[None])
    b_solved = solve_each(p, b_cols, m.action[t.s_slice] @ b_cols % p, m.action[t.u_slice] @ a_cols % p, es[None])
    assert a_solved is not None and b_solved is not None, "idempotent slices must be invariant"
    (a_action, ca), (b_action, phi_blocks, cb) = a_solved, b_solved
    a_mod = ModuleRep(t.r, LEFT, a_cols.shape[1], a_action, label=f"{m.label}|R")
    b_mod = ModuleRep(t.s, LEFT, b_cols.shape[1], b_action, label=f"{m.label}|S")
    # phi's columns u_j (x) a hold block j
    phi = phi_blocks.transpose(1, 0, 2).reshape(b_mod.dim, t.u.dim * a_mod.dim)
    comma = CommaObject(t.u, a_mod, b_mod, phi, label=m.label)
    witness = ModuleMap(m, to_T_module(comma, t), np.vstack([ca[0], cb[0]]))
    return FromTResult(comma, witness)


class RightTModule(ContentKeyed):
    """Right T-module as a triple (X, Y, psi: Y (x)_S U -> X).

    psi is stored on the full tensor space in y-major order (column
    index = y_index * dim U + u_index), as the read-only (dim X, dim Y * dim U)
    int64 array, reduced mod p, that the constructor validates
    (:func:`~commacat.linalg.fp_array`) and copies.
    """

    __slots__ = ("bimodule", "X", "Y", "psi", "label")

    def __init__(self, bimodule: Bimodule, x: ModuleRep, y: ModuleRep, psi, label: str = "") -> None:
        if x.algebra != bimodule.r_algebra or x.side != RIGHT:
            raise AlgebraMismatch("X component must be a right module over R")
        if y.algebra != bimodule.s_algebra or y.side != RIGHT:
            raise AlgebraMismatch("Y component must be a right module over S")
        shape = (x.dim, y.dim * bimodule.dim)
        psi = fp_array(bimodule.p, psi, "psi", shape)
        if psi.shape != shape:
            raise ValueError("psi must be dim X x (dim Y * dim U)")
        self.bimodule = bimodule
        self.X = x
        self.Y = y
        self.psi = psi
        self.label = label

    @property
    def p(self) -> int:
        return self.bimodule.p

    def _content(self) -> tuple:
        return ("right-t", self.bimodule.key, self.X.key, self.Y.key, content_bytes(self.p, self.psi))


def validate_right_t(rt: RightTModule) -> list[dict]:
    from .modules import bimodule_as_left_module, validate_module

    violations = []
    for name, comp in (("X", rt.X), ("Y", rt.Y)):
        for v in validate_module(comp):
            violations.append({"kind": f"component-{name}", "detail": v})
    u = rt.bimodule
    gens = balancing_generators(rt.Y, bimodule_as_left_module(u))
    if gens.shape[1] and (rt.psi @ gens % rt.p).any():
        violations.append({"kind": "psi-balance"})
    # column y * dim U + v of psi @ kron(I_Y, r_i) is the sum over w of psi[:, y * dim U + w] r_i[w, v]
    psi = rt.psi
    through = psi.reshape(rt.X.dim, rt.Y.dim, u.dim)[None] @ u.right_action[:, None]
    linear = (through.reshape(u.r_algebra.dim, rt.X.dim, rt.Y.dim * u.dim) - rt.X.action @ psi) % rt.p
    violations += [{"kind": "psi-linearity", "basis": int(i)} for i in np.flatnonzero(linear.any(axis=(1, 2)))]
    return violations


@memo("right_t_to_module")
def right_t_to_module(rt: RightTModule, t: Optional[TriangularAlgebra] = None) -> ModuleRep:
    """The right T-module on X + Y with (x, y).(r, u, s) = (xr + psi(y (x) u), ys).  Memoized."""
    bad = validate_right_t(rt)
    if bad:
        raise ValueError(f"invalid right T-module: {bad[0]}")
    t = t or triangular_for(rt.bimodule)
    dx, dy = rt.X.dim, rt.Y.dim
    stack = np.zeros((t.dim, dx + dy, dx + dy), dtype=np.int64)
    stack[t.r_slice, :dx, :dx] = rt.X.action
    # u_j acts by the block of psi's columns y (x) u_j, from Y into X
    stack[t.u_slice, :dx, dx:] = rt.psi.reshape(dx, dy, rt.bimodule.dim).transpose(2, 0, 1)
    stack[t.s_slice, dx:, dx:] = rt.Y.action
    return ModuleRep(t, RIGHT, dx + dy, stack, label=rt.label or "right-T")


# -- Hom computations ----------------------------------------------------------


@memo("comma_groups")
def _comma_groups(c: CommaObject) -> tuple[tuple[np.ndarray, np.ndarray, tuple], ...]:
    """The comma summands of c as (A indices, B indices, content): the diagonal blocks of A and of B
    (:func:`diagonal_blocks`), each A-block joined with every B-block that phi maps U (x) (it) into.
    The content holds (shape, packed bytes) of the summand's generator stacks and phi.  Memoized."""
    if c.total_dim == 0:
        return ()
    da = c.A.dim
    a_stack, b_stack = generator_stack(c.A), generator_stack(c.B)
    cuts = diagonal_blocks(a_stack) + [da + b for b in diagonal_blocks(b_stack)[1:]]
    # one-hot rows: the block of each index on the line of A's indices, then B's
    block = np.repeat(np.eye(len(cuts) - 1, dtype=bool), np.diff(cuts), axis=0)
    phi = c.phi.reshape(c.B.dim, c.bimodule.dim, da)
    joined = block[da:].T @ phi.any(axis=1) @ block[:da]
    reach = joined | joined.T | np.eye(len(joined), dtype=bool)
    while ((closed := reach @ reach) != reach).any():
        reach = closed
    root = (block @ reach).argmax(axis=1)  # per index, the first block its block reaches
    groups = [(np.flatnonzero(root[:da] == r), np.flatnonzero(root[da:] == r)) for r in sorted(set(root.tolist()))]
    return tuple(
        (ai, bi, tuple((a.shape, content_bytes(c.p, a)) for a in (a_stack[:, ai[:, None], ai],
                                                                  b_stack[:, bi[:, None], bi], phi[bi][:, :, ai])))
        for ai, bi in groups
    )


@memo("comma_block")
def _comma_block(p: int, target: tuple, source: tuple) -> np.ndarray:
    """Canonical kernel basis, one frozen row per vector, of the joint system in (vec f, vec g)
    between two summands packed by :func:`_comma_groups`, on the rows of the algebra generators
    only: the same kernel under the module law (see ``modules.hom_space``).  Memoized."""
    unpacked = ([unpack_bytes(p, data, shape) for shape, data in group] for group in (target, source))
    (ya_stack, yb_stack, phi_y), (xa_stack, xb_stack, phi_x) = unpacked
    (yb, du, ya), xa, xb = phi_y.shape, xa_stack.shape[1], xb_stack.shape[1]
    nf, ng, ns = ya * xa, yb * xb, yb * du * xa
    a_rows = intertwining_system(p, ya_stack, xa_stack)
    b_rows = intertwining_system(p, yb_stack, xb_stack)
    # The square g phi_x - phi_y (I_U (x) f): vec(g phi_x) = kron(I, phi_x^T) vec(g),
    # and entry (r, u, a) of phi_y (I_U (x) f) is sum_b phi_y[r, u, b] f[b, a].
    square_f = np.einsum("rub,ac->ruabc", phi_y, np.eye(xa, dtype=np.int64)).reshape(ns, nf)
    square_g = np.kron(np.eye(yb, dtype=np.int64), phi_x.reshape(xb, du * xa).T).reshape(ns, ng)
    system = np.block([
        [a_rows, np.zeros((a_rows.shape[0], ng), dtype=np.int64)],
        [np.zeros((b_rows.shape[0], nf), dtype=np.int64), b_rows],
        [-square_f, square_g],
    ])
    basis = kernel_basis(p, system % p).T.copy()
    basis.setflags(write=False)
    return basis


def _group_pairs(x: CommaObject, y: CommaObject) -> list[tuple[tuple, tuple, np.ndarray]]:
    """(source group, target group, kernel rows) for each pair of groups."""
    if x.bimodule != y.bimodule:
        raise AlgebraMismatch("comma objects over different data")
    return [(s, t, _comma_block(x.p, t[2], s[2])) for s in _comma_groups(x) for t in _comma_groups(y)]


def hom_comma(x: CommaObject, y: CommaObject) -> tuple[np.ndarray, np.ndarray]:
    """Basis of the morphism space: the canonical kernel basis of the joint
    system in (vec f, vec g).  Hom is biadditive, so each pair of comma summands
    (:func:`_comma_groups`) is solved once (table ``comma_block``) and
    :func:`scatter_blocks` places the kernels.

    Returns the f parts and the g parts of the basis maps as two frozen int64
    stacks, (h, y.A.dim, x.A.dim) and (h, y.B.dim, x.B.dim).
    """
    nf = y.A.dim * x.A.dim
    frame_f = np.arange(nf).reshape(y.A.dim, x.A.dim)
    frame_g = nf + np.arange(y.B.dim * x.B.dim).reshape(y.B.dim, x.B.dim)
    parts = [
        (np.concatenate([frame_f[ya[:, None], xa].ravel(), frame_g[yb[:, None], xb].ravel()]), k)
        for (xa, xb, _), (ya, yb, _), k in _group_pairs(x, y) if len(k)
    ]
    basis = scatter_blocks(nf + y.B.dim * x.B.dim, parts)
    fs = basis[:, :nf].reshape(len(basis), y.A.dim, x.A.dim)
    gs = basis[:, nf:].reshape(len(basis), y.B.dim, x.B.dim)
    fs.setflags(write=False)
    gs.setflags(write=False)
    return fs, gs


def hom_comma_dim(x: CommaObject, y: CommaObject) -> int:
    """dim Hom(x, y): the sum of the group-pair kernel sizes; builds no map."""
    return sum(len(k) for *_, k in _group_pairs(x, y))


def comma_is_isomorphic(x: CommaObject, y: CommaObject, cap: int = 16) -> IsoResult:
    """Exhaustive search for a comma isomorphism (both components invertible).

    The witness is the first isomorphism in enumeration order; for the
    zero object it is the zero map.
    """
    if x.A.dim != y.A.dim or x.B.dim != y.B.dim:
        return IsoResult(False, None)
    if x.total_dim == 0:
        zero = np.zeros((0, 0), dtype=np.int64)
        return IsoResult(True, CommaMap(x, y, ModuleMap(x.A, y.A, zero), ModuleMap(x.B, y.B, zero)))
    fs, gs = hom_comma(x, y)
    h = len(fs)
    if h == 0:
        return IsoResult(False, None)
    if h > cap:
        raise IsoSearchCapExceeded(f"comma hom dimension {h} exceeds cap {cap}")
    # (f, g) is invertible exactly when the block-diagonal diag(f, g) is,
    # because f and g are square.
    da, db = x.A.dim, x.B.dim
    diag = np.zeros((h, da + db, da + db), dtype=np.int64)
    diag[:, :da, :da] = fs
    diag[:, da:, da:] = gs
    mat = first_of_rank(x.p, diag, da + db)
    if mat is None:
        return IsoResult(False, None)
    f = ModuleMap(x.A, y.A, mat[:da, :da])
    g = ModuleMap(x.B, y.B, mat[da:, da:])
    return IsoResult(True, CommaMap(x, y, f, g))


# -- the adjunct map and shape tests ------------------------------------------


class TildePhi(NamedTuple):
    map: ModuleMap  # A -> Hom_S(U, B) as left R-modules
    hom: HomModule


def tilde_phi(c: CommaObject) -> TildePhi:
    """The adjunct of phi: tilde_phi(a)(u) = phi(u (x) a)."""
    u = c.bimodule
    hm = hom_module(u, c.B)
    # column u_i * dim A + a_j of phi is phi(u_i (x) a_j), so comps[:, :, j]
    # is the map u -> phi(u (x) a_j)
    comps = c.phi.reshape(c.B.dim, u.dim, c.A.dim)
    mat = hom_coords(c.p, hm.basis, comps.transpose(2, 0, 1))
    return TildePhi(ModuleMap(c.A, hm.module, mat), hm)


def phi_descends_to_iso(c: CommaObject) -> bool:
    """True when phi induces an isomorphism U (x)_R A -> B."""
    q_dim = tensor_over(c.bimodule, c.A).module.dim
    return q_dim == c.B.dim and rank(c.p, c.phi) == q_dim


def psi_descends_to_iso(rt: RightTModule) -> bool:
    from .modules import bimodule_as_left_module

    return tensor_dim(rt.Y, bimodule_as_left_module(rt.bimodule)) == rt.X.dim and rank(rt.p, rt.psi) == rt.X.dim


# -- the five Hom formulas ------------------------------------------------------


def hom_formula_applicable(kind: int, source: CommaObject, target: CommaObject) -> bool:
    if kind == 1:
        return target.B.dim == 0
    if kind == 2:
        return source.A.dim == 0
    if kind == 3:
        return phi_descends_to_iso(source)
    if kind == 4:
        tp = tilde_phi(target)
        return tp.map.target.dim == target.A.dim and rank(target.p, tp.map.matrix) == target.A.dim
    if kind == 5:
        if source.B.dim != 0:
            return False
        reg = regular_module(source.bimodule.r_algebra, LEFT)
        return is_isomorphic(source.A, reg).isomorphic
    raise ValueError(f"kind must be 1..5, got {kind}")


def hom_formula(kind: int, source: CommaObject, target: CommaObject) -> int:
    """Predicted Hom dimension from one-sided data, per shape.

    1: target (C, 0)            -> dim Hom_R(A, C)
    2: source (0, B)            -> dim Hom_S(B, D)
    3: source (A, U (x) A)      -> dim Hom_R(A, C)
    4: target (Hom_S(U, D), D)  -> dim Hom_S(B, D)
    5: source (R, 0), R regular -> dim ker tilde_phi of the target
    """
    if not hom_formula_applicable(kind, source, target):
        raise ValueError(f"shape {kind} does not apply to this pair")
    if kind in (1, 3):
        return hom_dim(source.A, target.A)
    if kind in (2, 4):
        return hom_dim(source.B, target.B)
    tp = tilde_phi(target)
    return kernel_basis(target.p, tp.map.matrix).shape[1]


# -- tensor over T ---------------------------------------------------------------


def tensor_T(rt: RightTModule, c: CommaObject) -> int:
    """dim ((X (x)_R A) + (Y (x)_S B)) / H, with H spanned by
    psi(y (x) u) (x) a - y (x) phi(u (x) a) over basis triples."""
    if rt.bimodule != c.bimodule:
        raise AlgebraMismatch("mismatched triangular data")
    p = c.p
    dx, dy, du, da, db = rt.X.dim, rt.Y.dim, c.bimodule.dim, c.A.dim, c.B.dim
    px, _ = balanced_tensor(rt.X, c.A)
    py, _ = balanced_tensor(rt.Y, c.B)
    # generator (y, u, a) is column (y * du + u) * da + a: psi(y (x) u) (x) a on the full
    # X (x) A, and y (x) phi(u (x) a) on the full Y (x) B
    n = dy * du * da
    psi, phi = rt.psi.reshape(dx, dy, du), c.phi.reshape(db, du, da)
    on_xa = np.einsum("xyu,am->xayum", psi, np.eye(da, dtype=np.int64)).reshape(dx * da, n)
    on_yb = np.einsum("zy,bum->zbyum", np.eye(dy, dtype=np.int64), phi).reshape(dy * db, n)
    h = np.vstack([px @ on_xa, -(py @ on_yb)]) % p
    return len(px) + len(py) - rank(p, h)


def tensor_T_bruteforce(rt: RightTModule, c: CommaObject) -> int:
    """Independent span computation on the full tensor spaces.

    Stacks all balancing relations of both components and all H
    generators as raw columns and takes the codimension, without going
    through the quotient-space machinery.
    """
    from .modules import bimodule_as_left_module, bimodule_as_right_module

    p = c.p
    u = c.bimodule
    da, db = c.A.dim, c.B.dim
    dx, dy = rt.X.dim, rt.Y.dim
    nxa, nyb = dx * da, dy * db
    full = nxa + nyb
    cols = []
    bx = balancing_generators(rt.X, c.A)
    for j in range(bx.shape[1]):
        v = np.zeros(full, dtype=np.int64)
        v[:nxa] = bx[:, j]
        cols.append(v)
    by = balancing_generators(rt.Y, c.B)
    for j in range(by.shape[1]):
        v = np.zeros(full, dtype=np.int64)
        v[nxa:] = by[:, j]
        cols.append(v)
    for yi in range(dy):
        for uj in range(u.dim):
            xvec = rt.psi[:, yi * u.dim + uj]
            for am in range(da):
                v = np.zeros(full, dtype=np.int64)
                for xl in range(dx):
                    v[xl * da + am] += xvec[xl]
                bvec = c.phi[:, uj * da + am]
                for bl in range(db):
                    v[nxa + yi * db + bl] -= bvec[bl]
                cols.append(v % p)
    if not cols:
        return full
    return full - rank(p, np.stack(cols, axis=1))


def tensor_T_via_algebra(rt: RightTModule, c: CommaObject, t: Optional[TriangularAlgebra] = None) -> int:
    """Dimension of the honest balanced tensor product over the algebra T."""
    t = t or triangular_for(c.bimodule)
    return tensor_dim(right_t_to_module(rt, t), to_T_module(c, t))


def tensor_shape_predictions(rt: RightTModule, c: CommaObject) -> list[tuple[int, int]]:
    """(shape, predicted dimension) for each special shape that applies."""
    preds = []
    u = c.bimodule
    if rt.Y.dim == 0:
        preds.append((1, tensor_dim(rt.X, c.A)))
    if c.A.dim == 0:
        preds.append((2, tensor_dim(rt.Y, c.B)))
    if phi_descends_to_iso(c):
        preds.append((3, tensor_dim(rt.X, c.A)))
    if psi_descends_to_iso(rt):
        preds.append((4, tensor_dim(rt.Y, c.B)))
    if rt.X.dim == 0:
        reg = regular_module(u.s_algebra, RIGHT)
        if is_isomorphic(rt.Y, reg).isomorphic:
            preds.append((5, c.B.dim - rank(c.p, c.phi)))
    return preds


# -- the families U, B, J --------------------------------------------------------


FAMILY_U = "U"
FAMILY_B = "B"
FAMILY_J = "J"


@memo("family_parts")
def family_parts(c: CommaObject, kind: str) -> Optional[tuple[ModuleRep, ModuleRep]]:
    """(R-module tested against C, S-module tested against D) for membership of
    c in the comma family ``kind``: (A, B) for U, (A, B / im phi) for B and
    (ker tilde_phi, B) for J; None when phi is not injective on U (x) A (B) or
    tilde_phi is not surjective (J).  Neither depends on C or D.  Memoized."""
    if kind == FAMILY_U:
        return c.A, c.B
    if kind == FAMILY_B:
        if rank(c.p, c.phi) != tensor_over(c.bimodule, c.A).module.dim:
            return None
        coker, _ = quotient_module(c.B, column_space_basis(c.p, c.phi), label="B/im(phi)")
        return c.A, coker
    if kind == FAMILY_J:
        tp = tilde_phi(c)
        if rank(c.p, tp.map.matrix) != tp.map.target.dim:
            return None
        return image_kernel_cokernel(tp.map).kernel, c.B
    raise ValueError(f"family kind must be one of U, B, J: {kind!r}")


def family_membership(c: CommaObject, kind: str, cfam, dfam) -> bool:
    """Membership in the comma family ``kind`` built from a class C of R-modules
    and a class D of S-modules (:func:`family_parts`); D is asked first for J."""
    parts = family_parts(c, kind)
    if parts is None:
        return False
    if kind == FAMILY_J:
        return dfam.contains(parts[1]) and cfam.contains(parts[0])
    return cfam.contains(parts[0]) and dfam.contains(parts[1])


# -- presentations of p(A, B) ------------------------------------------------------


def sigma_for_p(
    t: TriangularAlgebra, a: ModuleRep, sigma_a: Presentation, b: ModuleRep, sigma_b: Presentation
) -> Presentation:
    """Block-diagonal T-presentation of (0, B) + (A, FA) from component ones.

    The first block presents (0, B) through (0, Q1) -> (0, Q0); the
    second presents (A, FA) through (P1, FP1) -> (P0, FP0), using that
    the tensor functor preserves cokernels.
    """
    u = t.u
    if sigma_a.target != a or sigma_b.target != b:
        raise ValueError("presentations must present the given modules")
    tq1 = to_T_module(comma_from_components(u, b=sigma_b.sigma.source, label="(0,Q1)"), t)
    tq0 = to_T_module(comma_from_components(u, b=sigma_b.sigma.target, label="(0,Q0)"), t)
    tp1 = to_T_module(canonical_tensor_comma(u, sigma_a.sigma.source, label="(P1,FP1)"), t)
    tp0 = to_T_module(canonical_tensor_comma(u, sigma_a.sigma.target, label="(P0,FP0)"), t)
    p1 = direct_sum([tq1, tp1], algebra=t, side=LEFT)
    p0 = direct_sum([tq0, tp0], algebra=t, side=LEFT)
    f_sigma_a = tensor_map(u, sigma_a.sigma)
    sigma_mat = _block_diag(sigma_b.sigma.matrix, sigma_a.sigma.matrix, f_sigma_a.matrix)
    target = direct_sum(
        [
            to_T_module(comma_from_components(u, b=b, label=f"(0,{b.label})"), t),
            to_T_module(canonical_tensor_comma(u, a, label=f"({a.label},F{a.label})"), t),
        ],
        algebra=t,
        side=LEFT,
    )
    f_witness_a = tensor_map(u, sigma_a.witness)
    witness_mat = _block_diag(sigma_b.witness.matrix, sigma_a.witness.matrix, f_witness_a.matrix)
    return Presentation(
        sigma=ModuleMap(p1.module, p0.module, sigma_mat),
        target=target.module.relabel(f"(0,{b.label})+({a.label},F{a.label})"),
        witness=ModuleMap(p0.module, target.module, witness_mat),
    )


# -- universe builder ---------------------------------------------------------------


def components_key(a: ModuleRep, b: ModuleRep) -> tuple:
    """(dim A, dim B, the rank of every action matrix of A, and of B): the part of
    the :func:`comma_universe` key that phi does not enter."""
    return a.dim, b.dim, *(tuple(rank(m.p, x) for x in m.action) for m in (a, b))


def comma_universe(
    u: Bimodule,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    max_total_dim: int = 4,
    iso_cap: int = 16,
) -> list[CommaObject]:
    """All comma objects over pairs from the component universes, every
    valid phi, deduplicated up to comma isomorphism.

    Deterministic order: component universes in the given order, phi
    candidates by lexicographic coefficients over the S-linear basis.

    A candidate is searched only against the kept objects with the same key
    (dim A, dim B, the rank of every action matrix of A and of B, rank phi),
    in the order they were kept; objects with different keys are never
    searched.  The key is an isomorphism invariant: a comma isomorphism
    (f, g) conjugates the actions (f r f^-1 on A, g s g^-1 on B) and sends
    phi to g phi (1_U (x) f)^-1, and none of these changes a rank.
    """
    out: list[CommaObject] = []
    kept: dict[tuple, list[CommaObject]] = {}
    p = u.p
    for a in r_universe:
        for b in s_universe:
            if a.dim + b.dim > max_total_dim:
                continue
            pair_key = components_key(a, b)
            tensor = tensor_over(u, a)
            for chunk in combination_chunks(p, hom_space(tensor.module, b)):
                for phi in chunk @ tensor.projection:
                    cand = CommaObject(u, a, b, phi, label=f"({a.label},{b.label})#{len(out)}")
                    bucket = kept.setdefault((pair_key, rank(p, cand.phi)), [])
                    if any(comma_is_isomorphic(cand, seen, cap=iso_cap).isomorphic for seen in bucket):
                        continue
                    bucket.append(cand)
                    out.append(cand)
    return out

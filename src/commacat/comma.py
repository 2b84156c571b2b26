"""Comma-category objects for the triangular matrix ring, and their calculus.

A comma object is a triple (A, B, phi) with A a left R-module, B a left
S-module and phi an S-linear map U (x)_R A -> B.  The matrix of phi is
stored on the full tensor space k^(dim U * dim A) in u-major
lexicographic order (column index = u_index * dim A + a_index); vanishing
on the balancing subspace is a validation invariant, so documents stay
basis-free.

A morphism (A, B, phi) -> (A', B', phi') is a pair (f, g) in Hom_R(A, A') x
Hom_S(B, B') with g phi = phi' (1_U (x) f), as for modules over a triangular
matrix ring (Fossum, Griffith and Reiten, LNM 456, 1975; Green, Pacific J.
Math. 100, 1982), so :func:`hom_comma` solves only that square on the component
Hom bases of :func:`~commacat.modules.hom_space`.  Comma objects correspond to
left modules over T = [[R, 0], [U, S]]: (r, u, s) acts on (a, b) by
(r a, phi(u (x) a) + s b).  Both directions are implemented; Hom between the
T-modules is its own solve over T's generators, a check of :func:`hom_comma_dim`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import Bimodule, TriangularAlgebra
from .linalg import (
    canonical_rows,
    column_space_basis,
    combination_chunks,
    fp_array,
    has_rank,
    kernel_basis,
    rank,
    solve_each,
)
from .modules import (
    ISO_CAP,
    LEFT,
    RIGHT,
    AlgebraMismatch,
    IsoResult,
    IsoSearchCapExceeded,
    ModuleMap,
    ModuleRep,
    balancing_generators,
    balanced_tensor,
    bimodule_as_left_module,
    bimodule_as_right_module,
    direct_sum,
    hom_coords,
    hom_dim,
    hom_module,
    hom_space,
    is_isomorphic,
    quotient_module,
    regular_module,
    submodule,
    tensor_dim,
    tensor_map,
    tensor_over,
    validate_module,
    zero_module,
)
from .memo import ContentKeyed, content_bytes, memo
from .presentations import Presentation


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
        phi = fp_array(bimodule.p, phi, "phi", (b.dim, bimodule.dim * a.dim))
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
    violations = []
    for name, comp in (("A", c.A), ("B", c.B)):
        for v in validate_module(comp):
            violations.append({"kind": f"component-{name}", "detail": v})
    u = c.bimodule
    gens = balancing_generators(bimodule_as_right_module(u), c.A)
    if gens.shape[1] and (balance := c.phi @ gens % c.p).any():
        violations.append({"kind": "phi-balance", "relations": np.flatnonzero(balance.any(axis=0)).tolist()})
    # phi @ kron(s_i, I_A), as in modules.tensor_over, against s_i @ phi
    phi = c.phi
    through = np.einsum("rub,iuv->irvb", phi.reshape(c.B.dim, u.dim, c.A.dim), u.left_action)
    linear = (through.reshape(u.s_algebra.dim, c.B.dim, u.dim * c.A.dim) - c.B.action @ phi) % c.p
    violations += [{"kind": "phi-linearity", "basis": int(i)} for i in np.flatnonzero(linear.any(axis=(1, 2)))]
    return violations


def comma_from_components(
    u: Bimodule, a: Optional[ModuleRep] = None, b: Optional[ModuleRep] = None, label: str = ""
) -> CommaObject:
    """Comma object with zero phi; either component may be omitted (zero)."""
    a = a if a is not None else zero_module(u.r_algebra, LEFT)
    b = b if b is not None else zero_module(u.s_algebra, LEFT)
    return CommaObject(u, a, b, np.zeros((b.dim, u.dim * a.dim), dtype=np.int64), label=label)


def canonical_tensor_comma(u: Bimodule, a: ModuleRep, label: str) -> CommaObject:
    """The object (A, U (x) A) with phi the canonical projection."""
    tensor = tensor_over(u, a)
    return CommaObject(u, a, tensor.module, tensor.projection, label=label)


# -- the functors p and h on objects ------------------------------------------


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
    bsum = direct_sum([tensor.module, b])
    phi = np.vstack([tensor.projection, np.zeros((b.dim, tensor.projection.shape[1]), dtype=np.int64)])
    return CommaObject(u, a, bsum, phi, label=f"p({a.label},{b.label})")


def functor_h(u: Bimodule, a: ModuleRep, b: ModuleRep) -> CommaObject:
    """h(A, B) = (A + Hom_S(U, B), B) with phi the evaluation on the Hom part."""
    hm = hom_module(u, b)
    asum = direct_sum([a, hm.module])
    da = asum.dim
    # column u_i * da + (a.dim + l) of phi is the image of u_i under basis map l
    phi = np.zeros((b.dim, u.dim, da), dtype=np.int64)
    phi[:, :, a.dim :] = hm.basis.transpose(1, 2, 0)
    return CommaObject(u, asum, b, phi.reshape(b.dim, u.dim * da), label=f"h({a.label},{b.label})")


# -- the T-module correspondence ----------------------------------------------


@memo("to_T_module")
def to_T_module(c: CommaObject, t: TriangularAlgebra) -> ModuleRep:
    """The left T-module on A + B with (r, u, s).(a, b) = (ra, phi(u (x) a) + sb).
    Memoized."""
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
        psi = fp_array(bimodule.p, psi, "psi", (x.dim, y.dim * bimodule.dim))
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
def right_t_to_module(rt: RightTModule, t: TriangularAlgebra) -> ModuleRep:
    """The right T-module on X + Y with (x, y).(r, u, s) = (xr + psi(y (x) u), ys).  Memoized."""
    bad = validate_right_t(rt)
    if bad:
        raise ValueError(f"invalid right T-module: {bad[0]}")
    dx, dy = rt.X.dim, rt.Y.dim
    stack = np.zeros((t.dim, dx + dy, dx + dy), dtype=np.int64)
    stack[t.r_slice, :dx, :dx] = rt.X.action
    # u_j acts by the block of psi's columns y (x) u_j, from Y into X
    stack[t.u_slice, :dx, dx:] = rt.psi.reshape(dx, dy, rt.bimodule.dim).transpose(2, 0, 1)
    stack[t.s_slice, dx:, dx:] = rt.Y.action
    return ModuleRep(t, RIGHT, dx + dy, stack, label=rt.label or "right-T")


# -- Hom computations ----------------------------------------------------------


def _square(x: CommaObject, y: CommaObject) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bases F of Hom_R(x.A, y.A) and G of Hom_S(x.B, y.B) (:func:`hom_space`), and the
    matrix of the square map on their coefficients, (a, b) -> phi_y (1_U (x) aF) - bG phi_x."""
    if x.bimodule != y.bimodule:
        raise AlgebraMismatch("comma objects over different data")
    fs, gs = hom_space(x.A, y.A), hom_space(x.B, y.B)
    width = y.B.dim * x.bimodule.dim * x.A.dim
    # entry (r, u, a) of phi_y (1_U (x) f) is sum_b phi_y[r, u, b] f[b, a]
    through_f = np.einsum("rub,hba->hrua", y.phi.reshape(y.B.dim, x.bimodule.dim, y.A.dim), fs)
    square = np.concatenate([through_f.reshape(len(fs), width), -(gs @ x.phi).reshape(len(gs), width)]).T % x.p
    return fs, gs, square


def hom_comma(x: CommaObject, y: CommaObject) -> tuple[np.ndarray, np.ndarray]:
    """Basis of the morphism space: the canonical kernel basis of the joint
    system in (vec f, vec g), from the kernel of the square map on the component
    Hom bases (:func:`_square`), put in canonical form by :func:`~commacat.linalg.canonical_rows`.

    Returns the f parts and the g parts of the basis maps as two frozen int64
    stacks, (h, y.A.dim, x.A.dim) and (h, y.B.dim, x.B.dim).
    """
    fs, gs, square = _square(x, y)
    p, nf, ng = x.p, y.A.dim * x.A.dim, y.B.dim * x.B.dim
    coeffs = kernel_basis(p, square)
    maps = np.concatenate([coeffs[: len(fs)].T @ fs.reshape(len(fs), nf),
                           coeffs[len(fs) :].T @ gs.reshape(len(gs), ng)], axis=1) % p
    basis = canonical_rows(p, maps)
    return basis[:, :nf].reshape(len(basis), y.A.dim, x.A.dim), basis[:, nf:].reshape(len(basis), y.B.dim, x.B.dim)


@memo("hom_comma_dim")
def hom_comma_dim(x: CommaObject, y: CommaObject) -> int:
    """dim Hom(x, y): dim Hom_R + dim Hom_S less the rank of the square map; builds
    no comma map.  Memoized."""
    fs, gs, square = _square(x, y)
    return len(fs) + len(gs) - (rank(x.p, square) if len(square) else 0)


def comma_is_isomorphic(x: CommaObject, y: CommaObject) -> IsoResult:
    """Exhaustive search for a comma isomorphism (both components invertible)
    among the p^h morphisms, h = dim Hom(x, y); raises IsoSearchCapExceeded
    when h > ISO_CAP.  The zero object is isomorphic to itself."""
    if x.A.dim != y.A.dim or x.B.dim != y.B.dim:
        return IsoResult(False)
    if x.total_dim == 0:
        return IsoResult(True)
    fs, gs = hom_comma(x, y)
    h = len(fs)
    if h == 0:
        return IsoResult(False)
    if h > ISO_CAP:
        raise IsoSearchCapExceeded(f"comma hom dimension {h} exceeds cap {ISO_CAP}")
    # (f, g) is invertible exactly when the block-diagonal diag(f, g) is,
    # because f and g are square.
    da, db = x.A.dim, x.B.dim
    diag = np.zeros((h, da + db, da + db), dtype=np.int64)
    diag[:, :da, :da] = fs
    diag[:, da:, da:] = gs
    return IsoResult(has_rank(x.p, diag, da + db))


# -- the adjunct map and shape tests ------------------------------------------


def tilde_phi(c: CommaObject) -> ModuleMap:
    """The adjunct of phi, A -> Hom_S(U, B) as left R-modules: tilde_phi(a)(u) = phi(u (x) a)."""
    u = c.bimodule
    hm = hom_module(u, c.B)
    # column u_i * dim A + a_j of phi is phi(u_i (x) a_j), so comps[:, :, j]
    # is the map u -> phi(u (x) a_j)
    comps = c.phi.reshape(c.B.dim, u.dim, c.A.dim)
    mat = hom_coords(c.p, hm.basis, comps.transpose(2, 0, 1))
    return ModuleMap(c.A, hm.module, mat)


@memo("phi_descends_to_iso")
def phi_descends_to_iso(c: CommaObject) -> bool:
    """True when phi induces an isomorphism U (x)_R A -> B.  Memoized."""
    q_dim = tensor_over(c.bimodule, c.A).module.dim
    return q_dim == c.B.dim and rank(c.p, c.phi) == q_dim


@memo("tilde_phi_is_iso")
def tilde_phi_is_iso(c: CommaObject) -> bool:
    """True when tilde_phi is an isomorphism A -> Hom_S(U, B).  Memoized."""
    tp = tilde_phi(c)
    return tp.target.dim == c.A.dim and rank(c.p, tp.matrix) == c.A.dim


@memo("psi_descends_to_iso")
def psi_descends_to_iso(rt: RightTModule) -> bool:
    """True when psi induces an isomorphism Y (x)_S U -> X.  Memoized."""
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
        return tilde_phi_is_iso(target)
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
    return kernel_basis(target.p, tilde_phi(target).matrix).shape[1]


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


def tensor_T_via_algebra(rt: RightTModule, c: CommaObject, t: TriangularAlgebra) -> int:
    """Dimension of the honest balanced tensor product over the algebra T."""
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
        coker = quotient_module(c.B, column_space_basis(c.p, c.phi), label="B/im(phi)")
        return c.A, coker
    if kind == FAMILY_J:
        tp = tilde_phi(c)
        if rank(c.p, tp.matrix) != tp.target.dim:
            return None
        return submodule(c.A, kernel_basis(c.p, tp.matrix), label="ker"), c.B
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


def sigma_for_p(t: TriangularAlgebra, sigma_a: Presentation, sigma_b: Presentation) -> Presentation:
    """Block-diagonal T-presentation of (0, B) + (A, FA), for A the R-module
    ``sigma_a`` presents and B the S-module ``sigma_b`` presents.

    The first block presents (0, B) through (0, Q1) -> (0, Q0); the
    second presents (A, FA) through (P1, FP1) -> (P0, FP0), using that
    the tensor functor preserves cokernels.
    """
    u, a, b = t.u, sigma_a.target, sigma_b.target
    tq1 = to_T_module(comma_from_components(u, b=sigma_b.sigma.source, label="(0,Q1)"), t)
    tq0 = to_T_module(comma_from_components(u, b=sigma_b.sigma.target, label="(0,Q0)"), t)
    tp1 = to_T_module(canonical_tensor_comma(u, sigma_a.sigma.source, label="(P1,FP1)"), t)
    tp0 = to_T_module(canonical_tensor_comma(u, sigma_a.sigma.target, label="(P0,FP0)"), t)
    p1 = direct_sum([tq1, tp1])
    p0 = direct_sum([tq0, tp0])
    f_sigma_a = tensor_map(u, sigma_a.sigma)
    sigma_mat = _block_diag(sigma_b.sigma.matrix, sigma_a.sigma.matrix, f_sigma_a.matrix)
    target = direct_sum([
        to_T_module(comma_from_components(u, b=b, label=f"(0,{b.label})"), t),
        to_T_module(canonical_tensor_comma(u, a, label=f"({a.label},F{a.label})"), t),
    ]).relabel(f"(0,{b.label})+({a.label},F{a.label})")
    f_witness_a = tensor_map(u, sigma_a.witness)
    witness_mat = _block_diag(sigma_b.witness.matrix, sigma_a.witness.matrix, f_witness_a.matrix)
    return Presentation(sigma=ModuleMap(p1, p0, sigma_mat), witness=ModuleMap(p0, target, witness_mat))


# -- universe builder ---------------------------------------------------------------


def components_key(a: ModuleRep, b: ModuleRep) -> tuple:
    """(dim A, dim B, the rank of every action matrix of A, and of B): the part of
    the :func:`comma_universe` key that phi does not enter."""
    return a.dim, b.dim, *(tuple(rank(m.p, x) for x in m.action) for m in (a, b))


# The total dimension within which the built-in comma universe is generated.
MAX_TOTAL_DIM = 4


def comma_universe(
    u: Bimodule,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    max_total_dim: int = MAX_TOTAL_DIM,
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
                    if any(comma_is_isomorphic(cand, seen).isomorphic for seen in bucket):
                        continue
                    bucket.append(cand)
                    out.append(cand)
    return out

"""Modules as action-matrix representations, and the operations on them.

A left module of dimension n over an algebra with basis e_1..e_d is one
frozen (d, n, n) int64 stack of action matrices, one per basis element,
satisfying the module law; operations read and build whole stacks.  Right
modules store the matrix of x -> x*e_i per basis element, so composition
reverses: action(e_i) @ action(e_j) = action(e_j e_i).

Everything here is pure and deterministic; hom spaces, traces, tensor
products and extension enumeration all reduce to exact kernel and rank
computations over F_p.  Coboundary systems, and transposed the tensor
balancing generators, are :func:`~commacat.linalg.intertwining_system`;
the cocycle system is three einsum terms plus the unit rows.

Hom(-, N) is left exact, so Hom(M, N) is the images in N of M's generators
that satisfy M's relations (Assem, Simson and Skowronski, Elements of the
Representation Theory of Associative Algebras 1, ch. I-III).  A MeatAxe spin
(Parker 1984) under the algebra generators, enough by the module law, presents
each diagonal block of M (:func:`_spin`); each block pair is solved once
(:func:`_hom_block`).  :func:`hom_dim` counts its kernel, :func:`trace_span`
spans its images, and only :func:`hom_space` lifts it to a basis: one frozen
(h, n.dim, m.dim) stack of matrices, which callers compose in one batched
product and enumerate with :func:`~commacat.linalg.combination_chunks`.

A module given in a random basis is one dense block.  Over an algebra with
one generator x, a module where x is nilpotent and some block holds two
Jordan chains is cut in a Jordan basis S (:func:`_frame`), where isomorphic
summands of all modules share their spins and block solves.  :func:`hom_space`
and :func:`trace_span` map their results back by S and make them canonical.

Equality contract: algebras, bimodules, modules, maps, comma objects and right
T-modules are equal exactly when their content keys are (:mod:`commacat.memo`):
every part and every entry, never the label.  A memoized result is the one
first stored for equal arguments and keeps that call's labels; e.g.
``tensor_over(u, a.relabel("x"))`` after ``tensor_over(u, a)`` returns the
module labelled ``"U*" + a.label``, not ``U*x``.  The report bytes depend on this.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from .algebra import Bimodule, FDAlgebra, module_law
from .linalg import (
    FpMatrix,
    canonical_rows,
    column_space_basis,
    combination_chunks,
    diagonal_blocks,
    fp_array,
    has_rank,
    intertwining_system,
    inverse,
    jordan_frame,
    kernel_basis,
    quotient_space,
    rank,
    rref,
    solve,
    solve_each,
)
from .memo import ContentKeyed, content_bytes, memo, packed_dtype, unpack_bytes

LEFT = "left"
RIGHT = "right"


class AlgebraMismatch(ValueError):
    """Operands live over different algebras or on different sides."""


class IsoSearchCapExceeded(RuntimeError):
    """The Hom space is too large for exhaustive isomorphism search."""


# An exhaustive isomorphism search tries p^h maps, so it is refused past Hom
# dimension ISO_CAP; at most EXT_CAP extension classes are enumerated per pair.
ISO_CAP = 16
EXT_CAP = 64


class ModuleRep(ContentKeyed):
    """A left or right module given by one action matrix per basis element: ``action``
    is the read-only (algebra.dim, dim, dim) int64 stack of them, reduced mod p."""

    __slots__ = ("algebra", "side", "dim", "action", "label")

    def __init__(
        self,
        algebra: FDAlgebra,
        side: str,
        dim: int,
        action,
        label: str = "",
    ) -> None:
        if side not in (LEFT, RIGHT):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.algebra = algebra
        self.side = side
        self.dim = dim
        self.action = fp_array(algebra.p, action, "action", (algebra.dim, dim, dim))
        self.label = label

    @property
    def p(self) -> int:
        return self.algebra.p

    def act(self, coeffs) -> np.ndarray:
        """Action matrix of a general algebra element."""
        c = np.asarray(coeffs, dtype=np.int64) % self.p
        return np.einsum("k,kab->ab", c, self.action) % self.p

    def relabel(self, label: str) -> "ModuleRep":
        return ModuleRep(self.algebra, self.side, self.dim, self.action, label)

    def _content(self) -> tuple:
        return ("module", self.algebra.key, self.side, self.dim, content_bytes(self.p, self.action))

    def __repr__(self) -> str:
        name = self.label or "module"
        return f"<{name}: {self.side} dim={self.dim} over {self.algebra!r}>"


class ModuleMap(ContentKeyed):
    """A linear map intertwining the actions of source and target: ``matrix``
    is its read-only (target.dim, source.dim) int64 array, reduced mod p.

    The constructor validates the matrix (anything
    :func:`~commacat.linalg.fp_array` takes) and copies it.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: ModuleRep, target: ModuleRep, matrix) -> None:
        _require_compatible(source, target)
        matrix = fp_array(source.p, matrix, "map matrix", (target.dim, source.dim))
        self.source = source
        self.target = target
        self.matrix = matrix

    def is_valid(self) -> bool:
        return not violated_intertwining(self)

    def _content(self) -> tuple:
        p = self.source.p
        return ("map", self.source.key, self.target.key, p, content_bytes(p, self.matrix))


def violated_intertwining(f: ModuleMap) -> list[int]:
    """Basis indices where the intertwining condition fails."""
    h = f.matrix
    return np.flatnonzero(((f.target.action @ h - h @ f.source.action) % f.source.p).any(axis=(1, 2))).tolist()


def validate_module(m: ModuleRep) -> list[dict]:
    """Violations of the module law (unit acts as identity, composition)."""
    alg = m.algebra
    mul = alg.mul if m.side == LEFT else alg.mul.transpose(1, 0, 2)
    unit_ok, bad = module_law(m.p, mul, alg.unit, m.action)
    violations = [] if unit_ok else [{"kind": "unit-action"}]
    return violations + [{"kind": "composition", "pair": ij} for ij in bad]


def _require_compatible(m: ModuleRep, n: ModuleRep) -> None:
    if m.algebra != n.algebra or m.side != n.side:
        raise AlgebraMismatch("modules are not over the same algebra and side")


# -- basic constructors ---------------------------------------------------


def zero_module(algebra: FDAlgebra, side: str = LEFT) -> ModuleRep:
    return ModuleRep(algebra, side, 0, np.zeros((algebra.dim, 0, 0), dtype=np.int64), label="0")


def regular_module(algebra: FDAlgebra, side: str = LEFT) -> ModuleRep:
    """The algebra acting on itself by multiplication on the chosen side."""
    # entry (k, j) of e_i on the left is mul[i, j, k]; on the right, mul[j, i, k]
    stack = algebra.mul.transpose(0, 2, 1) if side == LEFT else algebra.mul.transpose(1, 2, 0)
    return ModuleRep(algebra, side, algebra.dim, stack, label=f"{algebra.label or 'A'}_{side}")


def module_dual(m: ModuleRep) -> ModuleRep:
    """Linear dual with the side flipped; actions are the transposes."""
    side = RIGHT if m.side == LEFT else LEFT
    return ModuleRep(m.algebra, side, m.dim, m.action.transpose(0, 2, 1), label=f"{m.label}+")


def dual_module(s: FDAlgebra) -> ModuleRep:
    """The left S-module on the linear dual of S, with (s.f)(x) = f(x s).

    Stands in for the character module: over a finite-dimensional F_p
    algebra the linear dual carries the same module structure.
    """
    return module_dual(regular_module(s, RIGHT)).relabel(f"{s.label or 'S'}+")


# -- hom spaces ------------------------------------------------------------


def generator_stack(m: ModuleRep) -> np.ndarray:
    """The action matrices of the algebra generators (:func:`generator_indices`),
    as a (generators, dim, dim) stack."""
    return m.action[list(generator_indices(m.algebra))]


@memo("generator_indices")
def generator_indices(algebra: FDAlgebra) -> tuple[int, ...]:
    """Basis indices that generate the algebra together with the unit.

    Picked greedily in basis order: an index is taken when its basis
    element lies outside the subalgebra that the unit and the indices
    taken before it generate.  Memoized.
    """
    p, d = algebra.p, algebra.dim
    chosen: list[int] = []
    span = _generated_subalgebra(algebra, chosen)
    for i in range(d):
        if len(span) == d:
            break
        if rank(p, np.vstack([span, np.eye(d, dtype=np.int64)[i]])) > len(span):
            chosen.append(i)
            span = _generated_subalgebra(algebra, chosen)
    return tuple(chosen)


def _generated_subalgebra(algebra: FDAlgebra, gens: Sequence[int]) -> np.ndarray:
    """Row basis of the span of all words in the basis elements ``gens``, the
    empty word being the unit: the span is closed under right multiplication
    by each generator."""
    p = algebra.p
    span = algebra.unit[None, :]
    while True:
        moved = [span] + [span @ algebra.mul[:, g, :] % p for g in gens]
        red, pivots = rref(FpMatrix._of(p, np.concatenate(moved)))
        if len(pivots) == len(span):
            return red[: len(pivots)]
        span = red[: len(pivots)]


@memo("frame")
def _frame(m: ModuleRep) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The Jordan frame (S, S^-1) of m's generator x (:func:`~commacat.linalg.jordan_frame`),
    or None when m's algebra has no single generator or x has no frame.  Memoized."""
    stack = generator_stack(m)
    return jordan_frame(m.p, stack[0]) if len(stack) == 1 else None


@memo("packed_blocks")
def _packed_blocks(m: ModuleRep) -> tuple[tuple[int, int, bytes], ...]:
    """The diagonal blocks of m's generator stack, in its Jordan frame
    (:func:`_frame`) when it has one, as (start, stop, packed block stack)
    triples.  Memoized."""
    stack = generator_stack(m)
    if frame := _frame(m):
        stack = frame[1] @ stack % m.p @ frame[0] % m.p
    bounds = diagonal_blocks(stack)
    return tuple((a, b, content_bytes(m.p, stack[:, a:b, a:b])) for a, b in zip(bounds, bounds[1:]))


@memo("spin")
def _spin(p: int, g: int, dim: int, source: bytes) -> tuple[np.ndarray, ...]:
    """Spin presentation (parent, via, S^-1 R_a S, S^-1) of a block with packed
    (g, dim, dim) generator stack R: each standard basis vector outside the span
    so far is a generator of the basis S (parent -1), spun breadth-first under
    R; spin vector k is R_via[k] times vector parent[k] < k.  Memoized."""
    stack = unpack_bytes(p, source, (g, dim, dim))
    vectors, tree, echelon = [], [], []  # echelon: (pivot, row with 1 there) of the span
    for unit in np.eye(dim, dtype=np.int64):
        queue = [(unit, -1, 0)]
        for v, k, a in queue:
            r = v
            for pivot, row in echelon:
                r = (r - r[pivot] * row) % p
            if r.any():
                pivot = np.flatnonzero(r)[0]
                echelon.append((pivot, r * pow(int(r[pivot]), -1, p) % p))
                queue += [(stack[b] @ v % p, len(vectors), b) for b in range(g)]
                vectors.append(v)
                tree.append((k, a))
    (parent, via), basis = np.array(tree).T, np.array(vectors).T
    inv = inverse(p, basis)
    for a in (parent, via, coords := inv @ (stack @ basis % p) % p, inv):
        a.setflags(write=False)
    return parent, via, coords, inv


@memo("hom_block")
def _hom_block(p: int, g: int, rows: int, cols: int, target: bytes, source: bytes) -> np.ndarray:
    """Hom between blocks with packed (g, rows, rows) and (g, cols, cols) generator
    stacks L and R, as the frozen (h, rows, cols) array of H S, S the spin basis of
    the source (:func:`_spin`), stored at :func:`~commacat.memo.packed_dtype`
    (readers convert it to int64 before any arithmetic).  H s_k = W_k v for the
    images v of the G spin generators: W_k is the identity in generator k's slot,
    or L_a W_parent.  H intertwines when L_a W_k = sum_i C_a[i, k] W_i, C_a =
    S^-1 R_a S, on v for each (a, k) off the tree: G * rows unknowns, not
    rows * cols.  Memoized."""
    parent, via, coords, _ = _spin(p, g, cols, source)
    left = unpack_bytes(p, target, (g, rows, rows))
    w = np.zeros((cols, rows, (parent < 0).sum() * rows), dtype=np.int64)
    w[parent < 0] = np.eye(w.shape[2], dtype=np.int64).reshape(-1, rows, w.shape[2])
    for k in np.flatnonzero(parent >= 0):
        w[k] = left[via[k]] @ w[parent[k]] % p
    system = (np.einsum("aij,kjx->akix", left, w) - np.einsum("aik,ijx->akjx", coords, w)).reshape(-1, w.shape[2]) % p
    kernel = kernel_basis(p, system[system.any(axis=1)])  # tree rows are 0
    block = (np.einsum("kix,xh->hik", w, kernel) % p).astype(packed_dtype(p))
    block.setflags(write=False)
    return block


def scatter_blocks(width: int, parts: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Canonical kernel basis, one frozen row per vector, of a system split into
    blocks, from (increasing positions of its unknowns among all ``width``, rows
    of its canonical kernel basis) per block.  A canonical kernel vector's last
    nonzero entry is its free column, which orders :func:`kernel_basis`."""
    if len(parts) == 1 and len(parts[0][0]) == width:
        return parts[0][1]
    basis = np.zeros((sum(len(k) for _, k in parts), width), dtype=np.int64)
    for (cols, k), h in zip(parts, np.cumsum([0] + [len(k) for _, k in parts])):
        basis[h : h + len(k), cols] = k
    if len(basis) > 1:
        basis = basis[np.argsort(width - np.argmax(basis[:, ::-1] != 0, axis=1))]
    basis.setflags(write=False)
    return basis


def _block_pairs(m: ModuleRep, n: ModuleRep) -> list[tuple[int, int, int, int, tuple]]:
    """(rows r0:r1 of n, columns c0:c1 of m, :func:`_hom_block` arguments) per block pair."""
    _require_compatible(m, n)
    p, g = m.p, len(generator_indices(m.algebra))
    return [(r0, r1, c0, c1, (p, g, r1 - r0, c1 - c0, tb, sb))
            for r0, r1, tb in _packed_blocks(n) for c0, c1, sb in _packed_blocks(m)]


@memo("hom_lift")
def _hom_lift(p: int, g: int, rows: int, cols: int, target: bytes, source: bytes) -> np.ndarray:
    """Canonical kernel basis, one frozen row per vector, of a block pair: the
    lifted maps of :func:`_hom_block`, canonicalized by :func:`canonical_rows`."""
    block = _hom_block(p, g, rows, cols, target, source)
    lifted = (block.astype(np.int64) @ _spin(p, g, cols, source)[3] % p).reshape(len(block), rows * cols)
    return canonical_rows(p, lifted)


@memo("hom_space")
def hom_space(m: ModuleRep, n: ModuleRep) -> np.ndarray:
    """Basis of the space of maps intertwining the two actions.

    The basis is the canonical kernel basis (:func:`kernel_basis`) of the
    system rho_n(e) H = H rho_m(e) over all basis elements e, in the
    row-major entries of H, so its order is deterministic.  Each pair of
    diagonal blocks is solved on the algebra generators only (see the module
    docstring), which needs both arguments to satisfy the module law
    (:func:`validate_module`, which documents enforce at load), lifted to its
    canonical basis (:func:`_hom_lift`) and placed by :func:`scatter_blocks`.
    Maps H found in the Jordan frames of m and n (:func:`_frame`) are mapped
    back as S_n H S_m^-1 and made canonical again (:func:`canonical_rows`).

    Returns the basis as one frozen (h, n.dim, m.dim) int64 stack of
    matrices, reduced mod p.  Memoized.
    """
    cells = np.arange(n.dim * m.dim).reshape(n.dim, m.dim)
    parts = [(cells[r0:r1, c0:c1].ravel(), _hom_lift(*key)) for r0, r1, c0, c1, key in _block_pairs(m, n)]
    basis = scatter_blocks(cells.size, parts)
    basis = basis.reshape(len(basis), n.dim, m.dim)
    if frame_n := _frame(n):
        basis = frame_n[0] @ basis % m.p
    if frame_m := _frame(m):
        basis = basis @ frame_m[1] % m.p
    if frame_n or frame_m:
        basis = canonical_rows(m.p, basis.reshape(len(basis), cells.size)).reshape(basis.shape)
    return basis


@memo("hom_dim")
def hom_dim(m: ModuleRep, n: ModuleRep) -> int:
    """dim Hom(m, n): the sum of the block kernel sizes; builds no map.  Memoized."""
    return sum(len(_hom_block(*key)) for *_, key in _block_pairs(m, n))


def hom_coords(p: int, basis: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Coordinates of each matrix of the stack ``mats`` in a Hom-space basis stack, as columns.

    Returns the len(basis) x len(mats) matrix whose j-th column writes
    mats[j] in ``basis``.  All columns come from one multi-column solve,
    which gives the same columns as solving for each matrix alone.  Every
    matrix must lie in the span of the basis (AssertionError otherwise);
    with an empty basis only zero matrices are accepted.  Callers compose
    the whole basis in one product, e.g. ``hom_coords(p, tgt, g @ src % p)``
    for the matrix of composition with g.
    """
    if not len(basis):
        assert not mats.any(), "matrix outside the span of an empty Hom basis"
        return np.zeros((0, len(mats)), dtype=np.int64)
    if not len(mats):
        return np.zeros((len(basis), 0), dtype=np.int64)
    coords = solve(p, basis.reshape(len(basis), -1).T, mats.reshape(len(mats), -1).T)
    assert coords is not None, "matrix outside the span of the Hom basis"
    return coords


# -- sums, subs, quotients --------------------------------------------------


def direct_sum(summands: Sequence[ModuleRep]) -> ModuleRep:
    """Block-diagonal direct sum of a nonempty list of modules."""
    first = summands[0]
    for m in summands[1:]:
        _require_compatible(first, m)
    alg = first.algebra
    offsets = np.cumsum([0] + [m.dim for m in summands]).tolist()
    total = offsets[-1]
    stack = np.zeros((alg.dim, total, total), dtype=np.int64)
    for m, offset in zip(summands, offsets):
        stack[:, offset : offset + m.dim, offset : offset + m.dim] = m.action
    label = "(" + "+".join(m.label or "?" for m in summands) + ")"
    return ModuleRep(alg, first.side, total, stack, label=label)


def submodule(m: ModuleRep, basis_cols: np.ndarray, label: str = "") -> ModuleRep:
    """Submodule on an invariant column span.

    ``basis_cols`` is a 2-d int64 array reduced mod p.  Its columns must be
    linearly independent and their span invariant under every action
    matrix; otherwise ValueError.
    """
    width = basis_cols.shape[1]
    if rank(m.p, basis_cols) != width:
        raise ValueError("submodule basis columns must be independent")
    action = solve_each(m.p, basis_cols, m.action @ basis_cols % m.p)
    if action is None:
        raise ValueError("span is not invariant under the action")
    return ModuleRep(m.algebra, m.side, width, action[0], label=label)


def quotient_module(m: ModuleRep, sub_cols: np.ndarray, label: str = "") -> ModuleRep:
    """Quotient by the invariant column span of ``sub_cols`` (a 2-d int64
    array reduced mod p), on the complement :func:`~commacat.linalg.quotient_space` picks."""
    p = m.p
    proj, sect = quotient_space(p, m.dim, sub_cols)
    if sub_cols.shape[1]:
        moved = (proj @ (m.action @ sub_cols % p) % p).any(axis=(1, 2))
        if moved.any():
            raise ValueError(f"span is not invariant under basis element {np.flatnonzero(moved)[0]}")
    action = proj @ m.action % p @ sect % p
    return ModuleRep(m.algebra, m.side, len(proj), action, label=label)


# -- tensor products --------------------------------------------------------


def balancing_generators(x_right: ModuleRep, a_left: ModuleRep) -> np.ndarray:
    """Columns spanning the balancing subspace of the full tensor space.

    Basis of the full space is x-major lexicographic (index =
    x_index * dim A + a_index); the generators are
    (x e)⊗a - x⊗(e a) over all basis triples (e, x, a), in that order.
    Column (e, i, j) is column (i, j) of kron(X_e, I) - kron(I, A_e), so
    the matrix is the transposed intertwining system of the transposed
    right actions X_e^T with the left actions A_e.
    """
    if x_right.algebra != a_left.algebra or x_right.side != RIGHT or a_left.side != LEFT:
        raise AlgebraMismatch("balanced tensor needs a right and a left module over one algebra")
    return intertwining_system(x_right.p, x_right.action.transpose(0, 2, 1), a_left.action).T


def balanced_tensor(x_right: ModuleRep, a_left: ModuleRep) -> tuple[np.ndarray, np.ndarray]:
    """Projection and section for X (x)_A M as a plain F_p-space."""
    sub = balancing_generators(x_right, a_left)
    return quotient_space(x_right.p, x_right.dim * a_left.dim, sub)


def tensor_dim(x_right: ModuleRep, a_left: ModuleRep) -> int:
    """dim X (x)_A M, the codimension of the balancing subspace, ranked as rows
    like :func:`balanced_tensor` does; builds no projection or section."""
    sub = balancing_generators(x_right, a_left)
    return len(sub) - (rank(x_right.p, sub.T) if sub.shape[1] else 0)


class TensorModule(NamedTuple):
    module: ModuleRep
    projection: np.ndarray
    section: np.ndarray


def bimodule_as_left_module(u: Bimodule) -> ModuleRep:
    return ModuleRep(u.s_algebra, LEFT, u.dim, u.left_action, label=f"{u.label or 'U'}_S")


def bimodule_as_right_module(u: Bimodule) -> ModuleRep:
    return ModuleRep(u.r_algebra, RIGHT, u.dim, u.right_action, label=f"{u.label or 'U'}_R")


@memo("tensor_over")
def tensor_over(u: Bimodule, a: ModuleRep) -> TensorModule:
    """U (x)_R A as a left S-module, with the canonical projection.

    The full tensor space has basis u_i (x) a_j in u-major lexicographic
    order (index = i * dim A + j); the module is its quotient by the
    balancing subspace, with the S-action induced from s.(u (x) a) =
    (s u) (x) a.  The projection and section are read-only.  Memoized.
    """
    if a.algebra != u.r_algebra or a.side != LEFT:
        raise AlgebraMismatch("tensor_over expects a left module over the bimodule's right algebra")
    proj, sect = balanced_tensor(bimodule_as_right_module(u), a)
    proj.setflags(write=False)
    sect.setflags(write=False)
    p, q = u.p, len(proj)
    # column v * dim A + b of proj @ kron(s_i, I_A) is the sum over w of proj[:, w * dim A + b] s_i[w, v]
    through = np.einsum("rub,iuv->irvb", proj.reshape(q, u.dim, a.dim), u.left_action) % p
    action = through.reshape(u.s_algebra.dim, q, u.dim * a.dim) @ sect % p
    module = ModuleRep(u.s_algebra, LEFT, q, action, label=f"U*{a.label or '?'}")
    return TensorModule(module, proj, sect)


def tensor_map(u: Bimodule, f: ModuleMap) -> ModuleMap:
    """The induced map U (x) f between the tensor quotients."""
    src = tensor_over(u, f.source)
    tgt = tensor_over(u, f.target)
    p = u.p
    mat = tgt.projection @ np.kron(np.eye(u.dim, dtype=np.int64), f.matrix) % p @ src.section % p
    return ModuleMap(src.module, tgt.module, mat)


# -- trace, Gen, isomorphism -------------------------------------------------


def trace_span(generators: Sequence[ModuleRep], m: ModuleRep) -> np.ndarray:
    """Canonical column basis of the trace of the given modules in m.

    The trace is the span of the images of a Hom-space basis from each
    generator, read as H S (:func:`_hom_block`), which has the span of H;
    the span of basis images equals the sum of all images.  Each block of m
    is solved against each distinct source block of all the generators, and
    the columns, mapped back by S_m where m has a frame (:func:`_frame`), go
    into one array for a single :func:`column_space_basis`.
    """
    for g in generators:
        _require_compatible(g, m)
    p, k = m.p, len(generator_indices(m.algebra))
    sources = dict.fromkeys((c1 - c0, sb) for g in generators for c0, c1, sb in _packed_blocks(g))
    blocks = [(r0, r1, block) for r0, r1, tb in _packed_blocks(m) for cols, sb in sources
              if len(block := _hom_block(p, k, r1 - r0, cols, tb, sb))]
    widths = [block.shape[0] * block.shape[2] for *_, block in blocks]
    cols = np.zeros((m.dim, sum(widths)), dtype=np.int64)
    for (r0, r1, block), c, w in zip(blocks, np.cumsum([0] + widths).tolist(), widths):
        cols[r0:r1, c : c + w] = block.transpose(1, 0, 2).reshape(r1 - r0, w)
    if frame := _frame(m):
        cols = frame[0] @ cols % p
    return column_space_basis(p, cols)


@memo("gen_member")
def gen_member(t: ModuleRep, x: ModuleRep) -> bool:
    """x lies in Gen(t): some power of t maps onto x, i.e. the trace of t in x
    is all of x; builds no submodule.  Memoized."""
    return trace_span([t], x).shape[1] == x.dim


def gen_member_epi_oracle(t: ModuleRep, x: ModuleRep) -> bool:
    """Brute-force surjection search t^j -> x for j <= dim x; raises
    IsoSearchCapExceeded past a Hom dimension of ISO_CAP."""
    _require_compatible(t, x)
    if x.dim == 0:
        return True
    for j in range(1, x.dim + 1):
        basis = hom_space(direct_sum([t] * j), x)
        if len(basis) > ISO_CAP:
            raise IsoSearchCapExceeded(f"hom space dimension {len(basis)} exceeds cap {ISO_CAP}")
        if has_rank(t.p, basis, x.dim):
            return True
    return False


class IsoResult(NamedTuple):
    isomorphic: bool


@memo("is_isomorphic")
def is_isomorphic(m: ModuleRep, n: ModuleRep) -> IsoResult:
    """Whether m and n are isomorphic.

    Isomorphic modules have dim Hom(m, n) = dim End m = dim End n =
    dim Hom(n, m).  Over an algebra with at most one generator
    (:func:`generator_indices`), F_p[x]/(f), the converse holds too: on each
    primary part g, dim Hom(M, N) = deg g * sum_k r_k(M) r_k(N), r_k the
    number of Jordan blocks of size >= k for g(x), so
    dim End m + dim End n - 2 dim Hom(m, n) = sum_g deg g |r(m) - r(n)|^2
    (Byrnes and Gauger, Linear and Multilinear Algebra 5, 1977).  There the
    answer is that equality, with no search and no cap.

    Over other algebras, all p^h combinations of a Hom-space basis
    (h = dim Hom(m, n)) are searched for an invertible one, and
    IsoSearchCapExceeded is raised when h > ISO_CAP rather than guessing.
    The cap is checked first; only then are pairs whose Hom dimensions differ
    rejected without a search.  Memoized.
    """
    _require_compatible(m, n)
    if m.dim != n.dim:
        return IsoResult(False)
    if len(generator_indices(m.algebra)) <= 1:
        h = hom_dim(m, n)
        return IsoResult(hom_dim(m, m) == h and hom_dim(n, n) == h and hom_dim(n, m) == h)
    if m.dim == 0:
        return IsoResult(True)
    basis = hom_space(m, n)
    h = len(basis)
    if h == 0:
        return IsoResult(False)
    if h > ISO_CAP:
        raise IsoSearchCapExceeded(f"hom space dimension {h} exceeds cap {ISO_CAP}")
    if hom_dim(n, n) != h or hom_dim(m, m) != h or hom_dim(n, m) != h:
        return IsoResult(False)
    return IsoResult(has_rank(m.p, basis, m.dim))


# -- extensions --------------------------------------------------------------


class ExtensionResult(NamedTuple):
    middle_terms: list[ModuleRep]
    truncated: bool


def _cocycle_system(m: ModuleRep, n: ModuleRep) -> np.ndarray:
    """Conditions on the row-major blocks c(e_k) for [[rho_n(e), c(e)], [0, rho_m(e)]]
    to be a module: rows (i, j, a, b) hold entry (a, b) of rho_n(e_i) c(e_j)
    + c(e_i) rho_m(e_j) - c(e_i e_j) (e_j e_i on a right module), and the
    last n.dim * m.dim rows make c(1) = 0.  Reduced mod p.
    """
    alg = m.algebra
    d = alg.dim
    block = n.dim * m.dim
    mul = alg.mul if m.side == LEFT else alg.mul.transpose(1, 0, 2)
    i_d, i_n, i_m = (np.eye(k, dtype=np.int64) for k in (d, n.dim, m.dim))
    cocycle = (
        np.einsum("jk,iac,be->ijabkce", i_d, n.action, i_m)
        + np.einsum("ik,ac,jeb->ijabkce", i_d, i_n, m.action)
        - np.einsum("ijk,ac,be->ijabkce", mul, i_n, i_m)
    ).reshape(d * d * block, d * block)
    unit = np.einsum("k,ac,be->abkce", alg.unit, i_n, i_m).reshape(block, d * block)
    return np.concatenate([cocycle, unit]) % m.p


def extension_middle_terms(m: ModuleRep, n: ModuleRep) -> ExtensionResult:
    """Middle terms E of extensions 0 -> n -> E -> m -> 0, one per extension class.

    Solves for the cocycle blocks c(e) making
    [[rho_n(e), c(e)], [0, rho_m(e)]] a module structure, quotients by
    coboundaries, and realizes one E per class in enumeration order (split
    class first), isomorphic middle terms of distinct classes included.  The
    list of enumerated classes is capped at EXT_CAP; ``truncated`` reports
    whether classes were dropped.
    """
    _require_compatible(m, n)
    alg, p, d = m.algebra, m.p, m.algebra.dim
    if n.dim * m.dim == 0:
        return ExtensionResult([direct_sum([n, m])], False)

    cocycles = kernel_basis(p, _cocycle_system(m, n))
    # coboundaries c(e) = rho_n(e) h - h rho_m(e) of arbitrary linear maps h: m -> n
    cob = intertwining_system(p, n.action, m.action)
    if cocycles.shape[1] == 0:
        assert not cob.any(), "coboundaries must be cocycles"
        cob_in_z = np.zeros((0, cob.shape[1]), dtype=np.int64)
    else:
        cob_in_z = solve(p, cocycles, cob)
        assert cob_in_z is not None, "coboundaries must be cocycles"
    proj, sect = quotient_space(p, cocycles.shape[1], cob_in_z)
    q = len(proj)

    # row k of the first chunk holds the cocycle blocks c(e) of the k-th class,
    # combined from the lifts of a basis of cocycles modulo coboundaries
    lifts = (cocycles @ sect % p).T
    blocks = next(combination_chunks(p, lifts[:, :, None], EXT_CAP))
    base = np.zeros((d, n.dim + m.dim, n.dim + m.dim), dtype=np.int64)
    base[:, : n.dim, : n.dim] = n.action
    base[:, n.dim :, n.dim :] = m.action
    terms = []
    for cs in blocks:  # one stack at a time: all classes at once can be a large transient
        stack = base.copy()
        stack[:, : n.dim, n.dim :] = cs.reshape(d, n.dim, m.dim)
        terms.append(ModuleRep(alg, m.side, n.dim + m.dim, stack, label=f"ext({m.label},{n.label})"))
    return ExtensionResult(terms, p ** q > EXT_CAP)


# -- Hom_S(U, B) as a left R-module -----------------------------------------


class HomModule(NamedTuple):
    module: ModuleRep
    basis: np.ndarray  # the hom_space(U, B) stack


@memo("hom_module")
def hom_module(u: Bimodule, b: ModuleRep) -> HomModule:
    """Hom_S(U, B) as a left R-module via (r.f)(u) = f(u r).  Memoized."""
    if b.algebra != u.s_algebra or b.side != LEFT:
        raise AlgebraMismatch("hom_module expects a left module over the bimodule's left algebra")
    basis = hom_space(bimodule_as_left_module(u), b)
    h, dr = len(basis), u.r_algebra.dim
    # (r.f) = f r, for all r at once: column i * h + k of the coordinates is basis[k] @ r_i
    moved = (basis[None] @ u.right_action[:, None] % u.p).reshape(dr * h, b.dim, u.dim)
    action = hom_coords(u.p, basis, moved).reshape(h, dr, h).transpose(1, 0, 2)
    module = ModuleRep(u.r_algebra, LEFT, h, action, label=f"Hom(U,{b.label})")
    return HomModule(module, basis)

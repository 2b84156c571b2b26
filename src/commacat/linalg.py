"""Exact dense linear algebra over a prime field F_p.

A matrix over F_p is a 2-d int64 array with entries reduced mod p, and a
stack of matrices, such as a module's action or a Hom-space basis, is one
(k, rows, cols) int64 array.  The kernels take the modulus beside the array
(``rank(p, a)``, ``solve(p, m, b)``) and return fresh arrays.  All arithmetic
is integer arithmetic followed by reduction, so results are exact, and
everything is dense and deterministic.  Most systems are tiny: the 3,254
eliminations of a dual-numbers fixture run average 31 entries (2x2, 4x4 and 1x1
are the commonest shapes, and 3,040 have at most 64 entries), and the 885 of a
seeded F_3[x]/(x^3) document average 84 entries, at most 88x8.  So
:func:`rref` has two regimes, chosen by the entry count alone: a
matrix of at most :data:`SMALL_RREF_CELLS` entries is eliminated on Python
``int`` rows, where numpy's fixed cost per operation would dominate, and a
larger one by Gauss-Jordan elimination in numpy, with one nonzero scan of the
pivot column and one masked rank-1 update of all rows it hits per pivot.

Entries are stored as int64, so the modulus is validated once per value
of p (:func:`_check_modulus`, shared with the document parser): it must be
prime and below 2**24.  Below that bound a dot product of up to 2**15
terms of size (p-1)**2 stays below 2**63, so no product overflows, but a
product of unreduced products can: chained products reduce between them,
as in ``a @ b % p @ c % p``.

Validation happens once, at the boundary: :func:`fp_array` alone turns outside
entries into F_p data.  It checks the modulus, that each entry is an exact
integer in int64 range (:func:`int64_array`, else only called on report input,
which has no p) and the full shape, then reduces and freezes the result.  Its
callers are the constructors of algebras (``mul`` and ``unit``), modules and
bimodules (action stacks), maps, comma objects and right T-modules, and the
document parser, to name a matrix's path; none checks a shape again.  Results
this module computes are reduced by construction, since its arithmetic applies
``% p`` itself.  A result cut out of a larger array (:func:`inverse`,
:func:`column_space_basis`) is copied, so a small matrix never keeps a larger
array alive.

:class:`FpMatrix` is only the argument of :func:`rref`: the benchmark tracer
(``perfbench/tracer.py``) reads the shape of every traced elimination off
``rows`` and ``cols``.  Each kernel wraps its array with the unvalidated ``FpMatrix._of``
once per elimination, and :func:`rref` returns the reduced array.

Exhaustive searches over a space of maps share one enumeration kernel:
:func:`combination_chunks` yields all p**h linear combinations of a basis
given as one (h, rows, cols) int64 stack, such as ``modules.hom_space``
returns, as (k, rows, cols) int64 chunks of bounded size, with coefficient
tuples in ``itertools.product(range(p), repeat=h)`` order, and
:func:`batched_rref` runs one Gauss-Jordan elimination mod p across a whole
chunk at once, giving the reduced form and rank of every matrix in it.
"""

from __future__ import annotations

import functools
from typing import Iterator, Optional

import numpy as np

# Moduli must be below this bound for exact int64 arithmetic (see above).
MODULUS_LIMIT = 2 ** 24
# Most combinations one enumeration chunk holds.
ENUM_CHUNK = 4096
# Most entries of a matrix that rref eliminates on Python ints rather than in
# numpy.  On dense random matrices Python rows take a quarter of numpy's time at
# 4x4 and half at 8x8, about the same at 16x16, and ten times as long at 192x64.
SMALL_RREF_CELLS = 64


@functools.lru_cache(maxsize=64, typed=True)
def _check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime for which int64 arithmetic is exact.  The
    cache is typed: keyed by value alone, 3.0 would hit the entry of 3 (3 == 3.0)."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be an integer >= 2, got {p!r}")
    if p >= MODULUS_LIMIT:
        raise ValueError(
            f"modulus {p} is too large: exact int64 arithmetic needs p < 2**24, "
            "so that sums of up to 2**15 products of residues stay below 2**63"
        )
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"modulus {p} is not prime")
        d += 1


_INT64 = np.iinfo(np.int64)


def int64_array(entries, name: str = "entries") -> np.ndarray:
    """``entries`` (nested lists or an array) as an int64 array.

    Raises ValueError, naming ``name``, unless every entry is an exact
    integer (not a bool, not a float) in int64 range, so that nothing is
    truncated, wrapped or overflows.  An integer array that int64 holds
    (signed, or unsigned below 64 bits) is not checked entry by entry, and a
    row of Python ints by its extremes.  An explicit stack, not recursion,
    walks the entries, so too deep a nesting is rejected by its shape.
    """
    if isinstance(entries, np.ndarray) and (
        entries.dtype.kind == "i" or entries.dtype.kind == "u" and entries.dtype.itemsize < 8
    ):
        return entries.astype(np.int64, copy=False)
    stack = [entries]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple, np.ndarray)):
            if set(map(type, x)) <= {int}:
                x = [min(x), max(x)] if len(x) else []
            stack.extend(reversed(x))
        elif isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not _INT64.min <= x <= _INT64.max:
            raise ValueError(f"{name}: entry {x!r} is not an exact integer in int64 range")
    return np.asarray(entries, dtype=np.int64)


def fp_array(p: int, entries, name: str = "entries", shape: Optional[tuple[int, ...]] = None) -> np.ndarray:
    """``entries`` (nested lists or an array) as a fresh read-only int64 array,
    reduced mod p, of ``shape`` (any rank), or else a 2-d array of rows.

    Raises ValueError, naming ``name``, unless p is a modulus
    :func:`_check_modulus` accepts, every entry passes :func:`int64_array` and
    the shape matches in full.  ``[]`` is the 0x0 matrix; entries that hold no
    number, however they nest, take a ``shape`` that holds none either.
    """
    _check_modulus(p)
    a = int64_array(entries, name)
    if shape is None:
        if a.ndim == 1 and not a.size:
            a = a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError(f"{name} must be a 2-d array of rows")
    elif a.shape != shape:
        if a.size or 0 not in shape:
            raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
        a = a.reshape(shape)
    a = np.mod(a, p)
    a.setflags(write=False)
    return a


class FpMatrix:
    """The argument of :func:`rref`: a 2-d int64 array reduced mod ``p``, with its shape."""

    __slots__ = ("p", "_a")

    @classmethod
    def _of(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """Wrap ``a``, a 2-d int64 array already reduced mod ``p`` (a modulus
        already checked), without validation or copy."""
        m = cls.__new__(cls)
        m.p = p
        m._a = a
        return m

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]


def intertwining_system(p: int, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The system L_i H = H R_i in the row-major entries of an n x m matrix H.

    ``left`` and ``right`` are (d, n, n) and (d, m, m) action stacks.
    Returns the (d*n*m) x (n*m) matrix vstack_i(kron(L_i, I_m) - kron(I_n, R_i^T)),
    reduced mod p, since vec(L H) = kron(L, I) vec(H) and vec(H R) = kron(I, R^T)
    vec(H), built in one broadcast.
    """
    d, n, m = left.shape[0], left.shape[1], right.shape[1]
    system = (
        left[:, :, None, :, None] * np.eye(m, dtype=np.int64)[:, None, :]
        - np.eye(n, dtype=np.int64)[:, None, :, None] * right.transpose(0, 2, 1)[:, None, :, None, :]
    )
    return system.reshape(d * n * m, n * m) % p


def rref(m: FpMatrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form, as a fresh array, and the tuple of pivot columns.

    The elimination runs on a copy, so ``m`` may wrap a view such as ``a.T``;
    one of at most :data:`SMALL_RREF_CELLS` entries runs on Python ints.
    """
    p, rows, cols = m.p, m.rows, m.cols
    if rows * cols <= SMALL_RREF_CELLS:
        return _rref_rows(p, m._a.tolist(), cols)
    a = m._a.copy()
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[:, c].nonzero()[0]
        below = nz[nz >= r]
        if not below.size:
            continue
        pr = below[0]
        # Rows r..pr-1 are zero in column c, so after the swap the rows to
        # clear are the nonzero ones other than pr.
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        if a[r, c] != 1:
            a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        # Rows at or below r are zero left of c, so only columns c.. change.
        hit = nz[nz != pr]
        if hit.size:
            a[hit, c:] = (a[hit, c:] - a[hit, c : c + 1] * a[r, c:]) % p
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


def _rref_rows(p: int, a: list[list[int]], cols: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`rref` of the rows ``a``, lists of ``cols`` residues mod p, reduced in place."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        for pr in range(r, len(a)):
            if a[pr][c]:
                break
        else:
            continue
        row = a[pr]
        if (inv := pow(row[c], -1, p)) != 1:
            row = [x * inv % p for x in row]
        a[pr], a[r] = a[r], row
        for i, other in enumerate(a):
            if i != r and (f := other[c]):
                a[i] = [(x - f * y) % p for x, y in zip(other, row)]
        pivots.append(c)
    return np.array(a, dtype=np.int64).reshape(len(a), cols), tuple(pivots)


def rank(p: int, a: np.ndarray) -> int:
    return len(rref(FpMatrix._of(p, a))[1])


def kernel_basis(p: int, a: np.ndarray) -> np.ndarray:
    """Columns form a basis of the null space of ``a`` (canonical RREF basis)."""
    red, pivots = rref(FpMatrix._of(p, a))
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[list(pivots)] = -red[: len(pivots)][:, free] % p
    return basis


def solve(p: int, m: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """One solution x of m x = b, or None when the system is inconsistent.

    ``b`` may carry several right-hand sides as columns; a solution is
    returned only when every column is consistent.
    """
    (rows, cols), width = m.shape, b.shape[1]
    if b.shape[0] != rows:
        raise ValueError(f"rhs has {b.shape[0]} rows, expected {rows}")
    red, pivots = rref(FpMatrix._of(p, np.concatenate([m, b], axis=1)))
    if pivots and pivots[-1] >= cols:
        return None
    x = np.zeros((cols, width), dtype=np.int64)
    x[list(pivots)] = red[: len(pivots), cols:]
    return x


def solve_each(p: int, m: np.ndarray, *stacks: np.ndarray) -> Optional[list[np.ndarray]]:
    """Solutions X of m X = B for every matrix B of each (k, m.rows, w) int64
    stack, reduced mod p, from one elimination.

    Returns one (k, m.cols, w) stack per given stack, each matrix the one
    :func:`solve` gives for it alone; None when any B is inconsistent.
    """
    rows, cols = m.shape
    rhs = np.concatenate([s.transpose(1, 0, 2).reshape(rows, s.shape[0] * s.shape[2]) for s in stacks], axis=1)
    x = solve(p, m, rhs)
    if x is None:
        return None
    ends = np.cumsum([s.shape[0] * s.shape[2] for s in stacks]).tolist()
    return [x[:, e - k * w : e].reshape(cols, k, w).transpose(1, 0, 2)
            for (k, _, w), e in zip((s.shape for s in stacks), ends)]


def inverse(p: int, a: np.ndarray) -> Optional[np.ndarray]:
    n = a.shape[0]
    if a.shape[1] != n:
        return None
    red, pivots = rref(FpMatrix._of(p, np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)))
    if pivots != tuple(range(n)):
        return None
    return red[:, n:].copy()


def diagonal_blocks(stack: np.ndarray) -> list[int]:
    """Bounds 0 = b_0 < b_1 < ... < b_k = dim of the finest cut of a (g, dim, dim)
    stack into contiguous diagonal blocks that every matrix of it shares.

    c is a cut when no matrix has a nonzero entry coupling an index below c
    with one at or above c.
    """
    dim = stack.shape[1]
    if dim == 0:
        return [0]
    coupled = stack.any(axis=0)
    coupled |= coupled.T
    # counts[c - 1, -1] - counts[c - 1, c - 1] couplings join rows below c
    # to columns at or above c
    counts = coupled.cumsum(0).cumsum(1)
    cuts = np.flatnonzero(counts[:-1, -1] == counts.diagonal()[:-1]) + 1
    return [0, *cuts.tolist(), dim]


def jordan_frame(p: int, x: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(S, S^-1), both read-only, for a basis S of Jordan chains of the square
    matrix x, or None unless x is nilpotent and some diagonal block of x
    (:func:`diagonal_blocks`) holds more than one chain.

    S has the columns v, xv, ..., x^(k-1)v per chain of length k, longest
    first, so S^-1 x S is lower-shift Jordan.  Level by level from the top,
    the tops v in ker x^k are picked whose bottoms x^(k-1)v are pivot columns
    past the bottoms of longer chains: chains with independent bottoms are
    independent (Byrnes and Gauger, Linear and Multilinear Algebra 5, 1977).
    """
    powers = [np.eye(len(x), dtype=np.int64)]
    while powers[-1].any() and len(powers) <= len(x):
        powers.append(powers[-1] @ x % p)
    if powers[-1].any() or len(x) - rank(p, x) < len(diagonal_blocks(x[None])):
        return None
    columns, bottoms = [], np.zeros((len(x), 0), dtype=np.int64)
    for k in range(len(powers) - 1, 0, -1):
        tops = kernel_basis(p, powers[k]) if k < len(powers) - 1 else powers[0]
        b = bottoms.shape[1]
        pivots = rref(FpMatrix._of(p, np.hstack([bottoms, powers[k - 1] @ tops % p])))[1]
        tops = tops[:, [c - b for c in pivots[b:]]]
        bottoms = np.hstack([bottoms, powers[k - 1] @ tops % p])
        columns += [a @ v % p for v in tops.T for a in powers[:k]]
    s = np.array(columns).T
    for a in (s, s_inv := inverse(p, s)):
        a.setflags(write=False)
    return s, s_inv


def canonical_rows(p: int, rows: np.ndarray) -> np.ndarray:
    """Canonical basis, one frozen row per vector, of the row span of ``rows``: the rows
    :func:`kernel_basis` gives for a system with that kernel.  A canonical kernel vector
    ends in its free column, so this is the reduced form of the reversed columns, reversed."""
    red, pivots = rref(FpMatrix._of(p, rows[:, ::-1]))
    basis = red[: len(pivots)][::-1, ::-1].copy()
    basis.setflags(write=False)
    return basis


def column_space_basis(p: int, a: np.ndarray) -> np.ndarray:
    """Canonical basis of the column span (RREF of the transpose, transposed back)."""
    red, pivots = rref(FpMatrix._of(p, a.T))
    return red[: len(pivots)].T.copy()


def quotient_space(p: int, dim: int, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projection and section for F_p^dim modulo the column span of ``sub``.

    Returns (projection, section) with projection @ sub = 0,
    projection @ section = identity on the quotient, and
    ker(projection) exactly the span of ``sub``.

    Both are the blocks of B = [R^T | e_C] and B^-1 that belong to e_C, where
    R is the reduced rows of sub^T, P their pivot columns and C the other
    columns.  They are read off R, with no inverse: the section is e_C, and
    the projection is the identity on columns C and -R[:, C]^T on columns P.
    """
    rows, cols = sub.shape
    if cols and rows != dim:
        raise ValueError(f"subspace columns live in dimension {rows}, expected {dim}")
    red, pivots = rref(FpMatrix._of(p, sub.T)) if cols else (np.zeros((0, dim), dtype=np.int64), ())
    complement = [j for j in range(dim) if j not in pivots]
    section = np.zeros((dim, len(complement)), dtype=np.int64)
    section[complement, range(len(complement))] = 1
    projection = section.T.copy()
    projection[:, list(pivots)] = -red[: len(pivots)][:, complement].T % p
    return projection, section


# -- the enumeration kernel ------------------------------------------------


def combination_chunks(p: int, basis: np.ndarray, chunk_size: int = ENUM_CHUNK) -> Iterator[np.ndarray]:
    """Every linear combination of the (h, rows, cols) int64 stack ``basis``, reduced mod p.

    Yields (k, rows, cols) int64 arrays with k <= chunk_size.  Concatenated,
    they hold sum_i c_i basis[i] for each of the p**h coefficient tuples c
    of ``itertools.product(range(p), repeat=h)``, in that order; for h = 0
    that is the single zero matrix.  Only one chunk is built at a time.
    """
    h, rows, cols = basis.shape
    stack = basis.reshape(h, rows * cols)
    total = p ** h
    for start in range(0, total, chunk_size):
        n = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        k = n.size
        coeffs = np.empty((k, h), dtype=np.int64)
        for j in range(h - 1, -1, -1):
            n, coeffs[:, j] = np.divmod(n, p)
        yield (coeffs @ stack % p).reshape(k, rows, cols)


def _inverse_mod(p: int, x: np.ndarray) -> np.ndarray:
    """Elementwise inverse mod p of nonzero residues, as x**(p-2)."""
    out = np.ones_like(x)
    base = x % p
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def batched_rref(p: int, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row-echelon form and rank mod p of each matrix of a (k, rows, cols) stack.

    One Gauss-Jordan elimination runs over the whole stack: each column step
    finds, swaps, normalizes and clears a pivot in every matrix that has
    one, so the Python-level work is per column, not per matrix.  Every row
    is cleared, and the reduced form is unique, so slice i of the result
    equals the reduced matrix :func:`rref` gives for matrix i.
    """
    a = np.mod(np.asarray(stack, dtype=np.int64), p)
    k, rows, cols = a.shape
    ranks = np.zeros(k, dtype=np.int64)
    row_ids = np.arange(rows)
    for c in range(cols):
        candidates = (a[:, :, c] != 0) & (row_ids >= ranks[:, None])
        b = np.flatnonzero(candidates.any(axis=1))
        if b.size == 0:
            continue
        piv = candidates[b].argmax(axis=1)
        r = ranks[b]
        prow = a[b, piv]
        a[b, piv] = a[b, r]
        prow = prow * _inverse_mod(p, prow[:, c])[:, None] % p
        a[b] = (a[b] - a[b, :, c][:, :, None] * prow[:, None, :]) % p
        a[b, r] = prow
        ranks[b] += 1
    return a, ranks


def has_rank(p: int, basis: np.ndarray, target: int) -> bool:
    """Whether some combination of the stack ``basis`` has rank ``target``."""
    return any((batched_rref(p, chunk)[1] == target).any() for chunk in combination_chunks(p, basis))


"""Exact dense linear algebra over a prime field F_p.

Every matrix in the package is an :class:`FpMatrix`: an immutable,
row-major integer matrix with entries reduced mod p.  All arithmetic is
integer arithmetic followed by reduction, so results are exact.  Systems
reach a few hundred rows (a Hom system of two 8-dimensional modules over a
3-dimensional algebra is 192x64); everything is dense and deterministic.
:func:`rref` does Gauss-Jordan elimination with one nonzero scan of the
pivot column and one masked rank-1 update of all rows it hits per pivot.

Entries are stored as int64, so the modulus is validated once per value
of p (:func:`_check_modulus`, shared with :class:`FDAlgebra`): it must be
prime and below 2**24.  Below that bound a dot product of up to 2**15
terms of size (p-1)**2 stays below 2**63, so no product overflows.

Validation happens once, at the boundary: ``FpMatrix(p, entries)`` checks
the modulus, that each entry is an exact integer in int64 range
(:func:`int64_array`, shared with :class:`FDAlgebra` and the certificate
schema) and the shape, and reduces the entries, and is what other
modules call (``modules.hom_space`` is the one exception: its basis maps
wrap row views of its memoized kernel basis).  Results this module computes are
reduced by construction, since its arithmetic applies ``% p`` itself, so
they are wrapped by the trusted ``FpMatrix._of``, which only freezes the
array.  Those results own their memory: a slice (``block``,
``column_vector``, an enumeration witness) is copied before it is
wrapped, so a small matrix never keeps a larger array, such as a whole
enumeration chunk, alive.  (A transpose is a view of a matrix of its
own size.)

Exhaustive searches over a space of maps share one enumeration kernel:
:func:`combination_chunks` yields all p**h linear combinations of h basis
matrices as (k, rows, cols) int64 chunks of bounded size, in the order of
:func:`enumerate_vectors`, and :func:`batched_rank` does Gaussian
elimination mod p across a whole chunk at once.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Moduli must be below this bound for exact int64 arithmetic (see above).
MODULUS_LIMIT = 2 ** 24
# Most combinations one enumeration chunk holds.
ENUM_CHUNK = 4096


@functools.lru_cache(maxsize=64, typed=True)
def _check_modulus(p: int) -> None:
    """Raise ValueError unless p is a prime for which int64 arithmetic is exact."""
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


def _check_int64(x, name: str) -> None:
    if isinstance(x, (list, tuple, np.ndarray)):
        if set(map(type, x)) <= {int}:  # a row of Python ints: only its extremes can be out of range
            x = [min(x), max(x)] if x else []
        for y in x:
            _check_int64(y, name)
    elif isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not _INT64.min <= x <= _INT64.max:
        raise ValueError(f"{name}: entry {x!r} is not an exact integer in int64 range")


def int64_array(entries, name: str = "entries") -> np.ndarray:
    """``entries`` (nested lists or an array) as an int64 array.

    Raises ValueError, naming ``name``, unless every entry is an exact
    integer (not a bool, not a float) in int64 range, so that nothing is
    truncated, wrapped or overflows.  An integer array that int64 holds
    (signed, or unsigned below 64 bits) is not checked entry by entry.
    """
    if isinstance(entries, np.ndarray) and (
        entries.dtype.kind == "i" or entries.dtype.kind == "u" and entries.dtype.itemsize < 8
    ):
        return entries.astype(np.int64, copy=False)
    _check_int64(entries, name)
    return np.asarray(entries, dtype=np.int64)


class FpMatrix:
    """Immutable matrix over F_p, stored row-major as reduced residues."""

    __slots__ = ("p", "_a")

    def __init__(self, p: int, entries) -> None:
        _check_modulus(p)
        a = int64_array(entries)
        if a.ndim == 1:
            # Only the empty 1-d array is accepted, as the 0x0 matrix.
            if a.size:
                raise ValueError("entries must be a 2-d array of rows")
            a = a.reshape(0, 0)
        if a.ndim != 2:
            raise ValueError("entries must be a 2-d array of rows")
        a = np.mod(a, p)
        a.setflags(write=False)
        self.p = p
        self._a = a

    @classmethod
    def _of(cls, p: int, a: np.ndarray) -> "FpMatrix":
        """Wrap ``a`` without validation: a 2-d int64 array already reduced mod
        ``p``, a modulus already checked.  ``a`` is frozen in place, not copied,
        so it must be a fresh array (or a copy of a slice) owned by no one else."""
        a.setflags(write=False)
        m = cls.__new__(cls)
        m.p = p
        m._a = a
        return m

    # -- constructors ------------------------------------------------

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def column(cls, p: int, vec: Sequence[int]) -> "FpMatrix":
        return cls(p, np.asarray(vec, dtype=np.int64).reshape(-1, 1))

    # -- shape and access --------------------------------------------

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def array(self) -> np.ndarray:
        return self._a

    def entry(self, i: int, j: int) -> int:
        return int(self._a[i, j])

    def to_lists(self) -> list:
        return [[int(x) for x in row] for row in self._a]

    def column_vector(self, j: int) -> "FpMatrix":
        return FpMatrix._of(self.p, self._a[:, j : j + 1].copy())

    def take_columns(self, idx: Sequence[int]) -> "FpMatrix":
        return FpMatrix._of(self.p, self._a[:, list(idx)].reshape(self.rows, len(idx)))

    def block(self, r0: int, r1: int, c0: int, c1: int) -> "FpMatrix":
        return FpMatrix._of(self.p, self._a[r0:r1, c0:c1].copy())

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError(f"moduli differ: {self.p} vs {other.p}")

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: ({self.rows}x{self.cols}) @ ({other.rows}x{other.cols})"
            )
        return FpMatrix._of(self.p, self._a @ other._a % self.p)

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        return FpMatrix._of(self.p, (self._a + other._a) % self.p)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._check(other)
        return FpMatrix._of(self.p, (self._a - other._a) % self.p)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix._of(self.p, -self._a % self.p)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, self._a * (c % self.p))

    def transpose(self) -> "FpMatrix":
        return FpMatrix._of(self.p, self._a.T)

    def is_zero(self) -> bool:
        return not self._a.any()

    # -- equality -----------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self._a.shape == other._a.shape
            and np.array_equal(self._a, other._a)
        )

    def __hash__(self) -> int:
        return hash((self.p, self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, {self.to_lists()})"


def _common_modulus(ms: Sequence[FpMatrix]) -> int:
    p = ms[0].p
    if any(m.p != p for m in ms):
        raise ValueError("moduli differ")
    return p


def hstack(ms: Sequence[FpMatrix]) -> FpMatrix:
    if not ms:
        raise ValueError("hstack of no matrices")
    p = _common_modulus(ms)
    return FpMatrix._of(p, np.concatenate([m.array() for m in ms], axis=1))


def vstack(ms: Sequence[FpMatrix]) -> FpMatrix:
    if not ms:
        raise ValueError("vstack of no matrices")
    p = _common_modulus(ms)
    return FpMatrix._of(p, np.concatenate([m.array() for m in ms], axis=0))


def block_diag(ms: Sequence[FpMatrix], p: Optional[int] = None) -> FpMatrix:
    if not ms:
        if p is None:
            raise ValueError("block_diag of no matrices needs an explicit modulus")
        return FpMatrix.zeros(p, 0, 0)
    p = _common_modulus(ms)
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    out = np.zeros((rows, cols), dtype=np.int64)
    r = c = 0
    for m in ms:
        out[r : r + m.rows, c : c + m.cols] = m.array()
        r += m.rows
        c += m.cols
    return FpMatrix._of(p, out)


def intertwining_system(p: int, left: np.ndarray, right: np.ndarray) -> FpMatrix:
    """The system L_i H = H R_i in the row-major entries of an n x m matrix H.

    ``left`` and ``right`` are (d, n, n) and (d, m, m) action stacks.
    Returns the (d*n*m) x (n*m) matrix vstack_i(kron(L_i, I_m) - kron(I_n, R_i^T)),
    since vec(L H) = kron(L, I) vec(H) and vec(H R) = kron(I, R^T) vec(H),
    built in one broadcast.
    """
    d, n, m = left.shape[0], left.shape[1], right.shape[1]
    system = (
        left[:, :, None, :, None] * np.eye(m, dtype=np.int64)[:, None, :]
        - np.eye(n, dtype=np.int64)[:, None, :, None] * right.transpose(0, 2, 1)[:, None, :, None, :]
    )
    return FpMatrix(p, system.reshape(d * n * m, n * m))


def kron(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    if a.p != b.p:
        raise ValueError("moduli differ")
    return FpMatrix(a.p, np.kron(a.array(), b.array()))


def rref(m: FpMatrix) -> tuple[FpMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the tuple of pivot columns."""
    p = m.p
    a = m.array().copy()
    rows, cols = a.shape
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
    return FpMatrix._of(p, a), tuple(pivots)


def rank(m: FpMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Columns form a basis of the null space of ``m`` (canonical RREF basis)."""
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = np.zeros((m.cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[list(pivots)] = -red.array()[: len(pivots)][:, free] % m.p
    return FpMatrix._of(m.p, basis)


def solve(m: FpMatrix, b: FpMatrix) -> Optional[FpMatrix]:
    """One solution x of m x = b, or None when the system is inconsistent.

    ``b`` may carry several right-hand sides as columns; a solution is
    returned only when every column is consistent.
    """
    if b.rows != m.rows:
        raise ValueError(f"rhs has {b.rows} rows, expected {m.rows}")
    red, pivots = rref(hstack([m, b]))
    if any(c >= m.cols for c in pivots):
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    x[list(pivots)] = red.array()[: len(pivots), m.cols :]
    return FpMatrix._of(m.p, x)


def solve_each(m: FpMatrix, bs: Sequence[FpMatrix]) -> Optional[list[FpMatrix]]:
    """Solutions x_i of m x_i = b_i, one per right-hand side, from one elimination.

    The blocks of ``solve(m, hstack(bs))``: None when any b_i is
    inconsistent, and [] for no right-hand sides.
    """
    if not bs:
        return []
    x = solve(m, hstack(bs))
    if x is None:
        return None
    ends = np.cumsum([b.cols for b in bs])
    return [x.block(0, x.rows, int(e) - b.cols, int(e)) for b, e in zip(bs, ends)]


def inverse(m: FpMatrix) -> Optional[FpMatrix]:
    if m.rows != m.cols:
        return None
    red, pivots = rref(hstack([m, FpMatrix.identity(m.p, m.rows)]))
    if len(pivots) != m.rows or any(c >= m.cols for c in pivots):
        return None
    return red.block(0, m.rows, m.cols, 2 * m.cols)


def column_space_basis(m: FpMatrix) -> FpMatrix:
    """Canonical basis of the column span (RREF of the transpose, transposed back)."""
    red, pivots = rref(m.transpose())
    k = len(pivots)
    return red.block(0, k, 0, m.rows).transpose()


def quotient_space(p: int, dim: int, sub: FpMatrix) -> tuple[FpMatrix, FpMatrix]:
    """Projection and section for F_p^dim modulo the column span of ``sub``.

    Returns (projection, section) with projection @ sub = 0,
    projection @ section = identity on the quotient, and
    ker(projection) exactly the span of ``sub``.
    """
    if sub.cols and sub.rows != dim:
        raise ValueError(f"subspace columns live in dimension {sub.rows}, expected {dim}")
    red, pivots = rref(sub.transpose()) if sub.cols else (FpMatrix.zeros(p, 0, dim), ())
    k = len(pivots)
    complement = [j for j in range(dim) if j not in pivots]
    cols = [red.array()[i, :] for i in range(k)]
    for j in complement:
        e = np.zeros(dim, dtype=np.int64)
        e[j] = 1
        cols.append(e)
    basis = FpMatrix(p, np.stack(cols, axis=1) if cols else np.zeros((dim, 0), dtype=np.int64))
    inv = inverse(basis)
    if dim == 0:
        return FpMatrix.zeros(p, 0, 0), FpMatrix.zeros(p, 0, 0)
    assert inv is not None
    projection = inv.block(k, dim, 0, dim)
    section = basis.block(0, dim, k, dim)
    return projection, section


def spans_equal(a: FpMatrix, b: FpMatrix) -> bool:
    return column_space_basis(a) == column_space_basis(b)


def enumerate_vectors(p: int, dim: int) -> Iterable[tuple[int, ...]]:
    """All coordinate tuples of F_p^dim in lexicographic order."""
    if dim == 0:
        yield ()
        return
    total = p ** dim
    for n in range(total):
        vec = []
        m = n
        for _ in range(dim):
            vec.append(m % p)
            m //= p
        yield tuple(reversed(vec))


# -- the enumeration kernel ------------------------------------------------


def combination_chunks(
    p: int, basis: Sequence[FpMatrix], rows: int, cols: int, chunk_size: int = ENUM_CHUNK
) -> Iterator[np.ndarray]:
    """Every linear combination of ``basis`` (rows x cols matrices), reduced mod p.

    Yields (k, rows, cols) int64 arrays with k <= chunk_size.  Concatenated,
    they hold sum_i c_i basis[i] for each of the p**h coefficient tuples c
    of :func:`enumerate_vectors` (h = len(basis)), in that order; for h = 0
    that is the single zero matrix.  Only one chunk is built at a time.
    """
    for b in basis:
        if b.p != p or b.rows != rows or b.cols != cols:
            raise ValueError(f"basis matrices must be {rows}x{cols} over F_{p}")
    h = len(basis)
    stack = np.zeros((h, rows * cols), dtype=np.int64)
    for i, b in enumerate(basis):
        stack[i] = b.array().reshape(-1)
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


def batched_rank(p: int, stack: np.ndarray) -> np.ndarray:
    """Rank mod p of each matrix of a (k, rows, cols) stack.

    One Gaussian elimination runs over the whole stack: each column step
    finds, swaps, normalizes and clears a pivot in every matrix that has
    one, so the Python-level work is per column, not per matrix.
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
    return ranks


def first_of_rank(
    p: int, basis: Sequence[FpMatrix], rows: int, cols: int, target: int
) -> Optional[FpMatrix]:
    """First combination of ``basis`` (in enumeration order) of rank ``target``."""
    for chunk in combination_chunks(p, basis, rows, cols):
        hits = np.flatnonzero(batched_rank(p, chunk) == target)
        if hits.size:
            return FpMatrix._of(p, chunk[hits[0]].copy())
    return None


def combinations(p: int, basis: Sequence[FpMatrix], rows: int, cols: int) -> Iterator[FpMatrix]:
    """Every combination of ``basis`` as an FpMatrix, in enumeration order."""
    for chunk in combination_chunks(p, basis, rows, cols):
        for a in chunk:
            yield FpMatrix._of(p, a.copy())

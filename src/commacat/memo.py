"""Content keys for the package's values, and the one registry of memo tables.

Algebras, bimodules, modules, maps, comma objects and right T-modules
compare and hash by an exact key built once from their parts (the equality contract is in
:mod:`commacat.modules`).  Every memoized function is declared with
:func:`memo`, which keys on the positional arguments.

A table that keeps residues mod p only to read them back (the Hom blocks of
:func:`commacat.modules._hom_block`) stores them at :func:`packed_dtype`, like
the content keys, and its readers convert them to int64 before any arithmetic;
two packed arrays are never multiplied together, since uint32 products overflow
for p near 2**24.  Arrays that back an ``FpMatrix``, and the action stacks of
modules and bimodules, stay int64.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


def packed_dtype(p: int) -> type:
    """The dtype :func:`content_bytes` packs residues mod p as."""
    return np.uint8 if p <= 256 else np.uint32


def content_bytes(p: int, *arrays: np.ndarray) -> bytes:
    """The residues mod p of ``arrays``, concatenated as uint8 (p <= 256)
    or uint32 bytes.  Shapes are not recorded; the key holding the bytes must
    fix them."""
    dtype = packed_dtype(p)
    return b"".join(a.astype(dtype).tobytes() for a in arrays)


def unpack_bytes(p: int, data: bytes, shape: tuple) -> np.ndarray:
    """The int64 array of ``shape`` that :func:`content_bytes` packed as ``data``."""
    return np.frombuffer(data, packed_dtype(p)).astype(np.int64).reshape(shape)


class ContentKeyed:
    """Equality and hash by ``key``, built once by the subclass's ``_content()``.

    Every ``_content()`` starts with a tag naming its kind of value, so
    values of different kinds never compare equal.
    """

    __slots__ = ("_key", "_hash")

    @property
    def key(self) -> tuple:
        try:
            return self._key
        except AttributeError:
            self._key = self._content()
            return self._key

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, ContentKeyed) and self.key == other.key)

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self.key)
            return self._hash


@dataclass(slots=True)
class MemoTable:
    """One named memo table with its hit and miss counts."""

    table: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


_REGISTRY: dict[str, MemoTable] = {}


def memo(name: str):
    """Decorator memoizing a function on its positional arguments, as table ``name``.

    A stored value counts as a hit whatever it is (``False`` included), and
    the first value stored for a key is kept, together with the labels its
    arguments carried.  Callers must not mutate a returned value.
    """
    if name in _REGISTRY:
        raise ValueError(f"memo table {name!r} is already registered")
    memo_table = _REGISTRY[name] = MemoTable()
    table = memo_table.table

    def decorate(fn):
        @functools.wraps(fn)
        def memoized(*args):
            try:
                value = table[args]
            except KeyError:
                memo_table.misses += 1
                return table.setdefault(args, fn(*args))
            memo_table.hits += 1
            return value

        return memoized

    return decorate


def clear() -> None:
    """Empty every memo table and reset its counts."""
    for memo_table in _REGISTRY.values():
        memo_table.table.clear()
        memo_table.hits = memo_table.misses = 0


def memo_stats() -> dict[str, dict[str, int]]:
    """Size, hits and misses of each memo table, by name."""
    return {
        name: {"size": len(t.table), "hits": t.hits, "misses": t.misses}
        for name, t in sorted(_REGISTRY.items())
    }

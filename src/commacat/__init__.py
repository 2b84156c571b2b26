"""Exact comma-category machinery for modules over triangular matrix rings."""

from .linalg import fp_array, kernel_basis, quotient_space, rank, solve

__all__ = [
    "fp_array",
    "rank",
    "kernel_basis",
    "solve",
    "quotient_space",
]

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commacat import linalg
from commacat.algebra import Bimodule, FDAlgebra, dual_numbers_algebra, field_algebra
from commacat.comma import canonical_tensor_comma, functor_p, hom_comma, hom_comma_dim
from commacat.linalg import (
    MODULUS_LIMIT,
    FpMatrix,
    batched_rref,
    canonical_rows,
    column_space_basis,
    combination_chunks,
    fp_array,
    int64_array,
    intertwining_system,
    inverse,
    kernel_basis,
    quotient_space,
    rank,
    rref,
    solve,
    solve_each,
)
from commacat.modules import (
    LEFT,
    RIGHT,
    ModuleMap,
    ModuleRep,
    quotient_module,
    regular_module,
    tensor_map,
    tensor_over,
)
from tests.maps import compose
from tests.test_comma import assert_matches_probed_system


def eye(n):
    return np.eye(n, dtype=np.int64)


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=np.int64)


def same(a, b):
    """Equal shapes and entries."""
    return a.shape == b.shape and np.array_equal(a, b)


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        fp_array(4, [[1]])
    with pytest.raises(ValueError):
        fp_array(1, [[1]])
    fp_array(2, [[1]])
    fp_array(65521, [[1]])


def test_modulus_primality_is_exact_above_two_to_the_sixteen():
    with pytest.raises(ValueError, match="not prime"):
        fp_array(65536, [[1]])
    with pytest.raises(ValueError, match="not prime"):
        FDAlgebra(65536, [[[1]]], [1])
    fp_array(65537, [[1]])
    FDAlgebra(65537, [[[1]]], [1])


def test_modulus_too_large_for_int64_is_rejected():
    big = 2 ** 61 - 1
    with pytest.raises(ValueError, match=r"2\*\*24"):
        fp_array(big, [[big - 1, big - 1], [big - 1, big - 1]])
    with pytest.raises(ValueError, match=r"2\*\*24"):
        FDAlgebra(big, [[[1]]], [1])
    with pytest.raises(ValueError):
        fp_array(MODULUS_LIMIT, [[1]])


def _python_product(p, *mats):
    """The product of ``mats`` mod p, in Python ints, as nested lists."""
    out = np.array(mats[0], dtype=object)
    for m in mats[1:]:
        out = out.dot(np.array(m, dtype=object)) % p
    return (out % p).tolist()


def _large_entries(p, rows, cols, seed):
    return np.random.default_rng(seed).integers(p - 1000, p, size=(rows, cols), dtype=np.int64)


def test_largest_accepted_modulus_multiplies_exactly():
    p = 16777213  # the largest prime below 2**24
    a = fp_array(p, [[p - 1] * 3] * 3)
    # each entry is 3 (p-1)^2 = 3 mod p
    assert (a @ a % p).tolist() == [[3] * 3] * 3
    # Chained products in the package reduce between factors: an unreduced
    # product of products overflows int64 at this modulus.
    field = field_algebra(p, "F")
    spaces = [ModuleRep(field, LEFT, n, [eye(n)]) for n in (3, 4, 5)]
    f = ModuleMap(spaces[0], spaces[1], _large_entries(p, 4, 3, 0))
    g = ModuleMap(spaces[1], spaces[2], _large_entries(p, 5, 4, 1))
    assert compose(g, f).matrix.tolist() == _python_product(p, g.matrix, f.matrix)
    # U = R = F_p[x]/(x^2) as an (F_p, R)-bimodule, so that U (x)_R - has a
    # proper balancing subspace, and the regular module conjugated by a matrix
    # of large entries
    r = dual_numbers_algebra(p, "R")
    u = Bimodule(field, r, 2, [eye(2)], regular_module(r, RIGHT).action, label="U")
    conj_inv = inverse(p, _large_entries(p, 2, 2, 2))
    assert conj_inv is not None
    ra = regular_module(r, LEFT)
    moved = ModuleRep(r, LEFT, 2, conj_inv @ (ra.action @ inverse(p, conj_inv) % p) % p)
    h = ModuleMap(ra, moved, _large_entries(p, 2, 2, 3))
    want = _python_product(p, tensor_over(u, moved).projection, np.kron(eye(2), h.matrix), tensor_over(u, ra).section)
    assert tensor_map(u, h).matrix.tolist() == want
    # the radical of the conjugated regular module, and the quotient by it
    rad = conj_inv @ np.array([[0], [1]]) % p
    quot = quotient_module(moved, rad)
    proj_m, sect = quotient_space(p, 2, rad)
    assert ModuleMap(moved, quot, proj_m).is_valid()
    for action, got in zip(moved.action, quot.action):
        assert got.tolist() == _python_product(p, proj_m, action, sect)
    # comma Hom, whose square multiplies phi by the component Hom bases
    objects = [canonical_tensor_comma(u, moved, "x"), canonical_tensor_comma(u, ra, "y"),
               functor_p(u, moved, spaces[0])]
    for x in objects:
        for y in objects:
            assert_matches_probed_system(x, y)
            assert hom_comma_dim(x, y) == len(hom_comma(x, y)[0])


def test_entries_reduced():
    a = np.array([[4, -1], [6, 2]])
    m = fp_array(3, a)
    assert m.tolist() == [[1, 2], [0, 2]]
    assert m.dtype == np.int64 and not m.flags.writeable
    a[0, 0] = 0  # a fresh array: the caller's entries are not shared
    assert m[0, 0] == 1


def test_fp_array_shapes():
    assert fp_array(2, []).shape == (0, 0)
    assert fp_array(2, [], shape=(0, 3)).shape == (0, 3)
    assert fp_array(2, [[], []], shape=(2, 0)).shape == (2, 0)
    # entries that hold no number take a shape of any rank that holds none
    assert fp_array(2, [], shape=(2, 0, 0)).shape == (2, 0, 0)
    assert fp_array(2, [[[]]], shape=(0, 3)).shape == (0, 3)
    assert fp_array(2, np.zeros((0, 1), dtype=np.int64), shape=(1, 0)).shape == (1, 0)
    stack = fp_array(5, [[[1, 7]], [[-1, 0]]], "action", (2, 1, 2))
    assert stack.tolist() == [[[1, 2]], [[4, 0]]] and not stack.flags.writeable
    assert fp_array(3, [1, 5], "unit", (2,)).tolist() == [1, 2]
    # a shape is checked in full, and the error names the field
    for entries, shape in [
        ([[1]], (2, 2)),
        ([], (2, 2)),
        ([[1, 0], [0, 1]], (2, 1)),
        ([[[0]]], (1, 1)),
        (np.zeros((1, 3, 3), dtype=np.int64), (2, 3, 3)),
        (1, (1,)),
        ([1], ()),
    ]:
        with pytest.raises(ValueError) as err:
            fp_array(2, entries, "action", shape)
        assert str(err.value) == f"action must have shape {shape}, got {np.shape(entries)}"
    for bad in ([1, 2], [[[1]]], [[[]]], 5):
        with pytest.raises(ValueError, match="2-d array of rows"):
            fp_array(2, bad)
    with pytest.raises(ValueError):
        fp_array(2, [[1, 2], [3]])


def test_rref_identity():
    m = eye(2)
    red, pivots = rref(FpMatrix._of(2, m))
    assert same(red, m)
    assert pivots == (0, 1)


def test_rref_zero():
    m = zeros(3, 3)
    red, pivots = rref(FpMatrix._of(2, m))
    assert same(red, m)
    assert pivots == ()


def test_rref_rank_one():
    # hand Gaussian elimination: [[1,1],[1,1]] -> [[1,1],[0,0]]
    m = fp_array(2, [[1, 1], [1, 1]])
    red, pivots = rref(FpMatrix._of(2, m))
    assert red.tolist() == [[1, 1], [0, 0]]
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(2, eye(3)).shape[1] == 0


def test_kernel_zero_map():
    k = kernel_basis(2, zeros(2, 3))
    assert k.shape[1] == 3
    assert rank(2, k) == 3


def test_kernel_sum_relation():
    # solve x + y = 0 over F_2: basis {(1,1)}
    k = kernel_basis(2, fp_array(2, [[1, 1]]))
    assert k.tolist() == [[1], [1]]


def test_solve_identity():
    b = fp_array(5, [[3], [1]])
    assert same(solve(5, eye(2), b), b)


def test_solve_inconsistent():
    assert solve(2, zeros(2, 2), fp_array(2, [[1], [0]])) is None


def test_solve_underdetermined():
    m = fp_array(2, [[1, 1]])
    x = solve(2, m, fp_array(2, [[1]]))
    assert x is not None
    assert (m @ x % 2).tolist() == [[1]]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(2, eye(2), fp_array(2, [[1], [0], [0]]))


def test_quotient_by_full_space():
    proj, sect = quotient_space(2, 2, eye(2))
    assert proj.shape == (0, 2)
    assert sect.shape == (2, 0)


def test_quotient_by_zero():
    proj, sect = quotient_space(2, 2, zeros(2, 0))
    assert len(proj) == 2
    assert same(proj @ sect % 2, eye(2))


def test_quotient_kernel_is_subspace():
    sub = fp_array(2, [[1], [1]])
    proj, sect = quotient_space(2, 2, sub)
    assert len(proj) == 1
    assert not (proj @ sub % 2).any()
    assert same(proj @ sect % 2, eye(1))
    assert same(column_space_basis(2, kernel_basis(2, proj)), column_space_basis(2, sub))


def inverse_quotient_space(p, dim, sub):
    """Reference: quotient_space as built through the inverse of the basis
    [R^T | e_C] (R the reduced rows of sub^T, C the non-pivot columns)."""
    red, pivots = rref(FpMatrix._of(p, sub.T)) if sub.shape[1] else (zeros(0, dim), ())
    k = len(pivots)
    cols = [red[i, :] for i in range(k)]
    for j in range(dim):
        if j not in pivots:
            e = np.zeros(dim, dtype=np.int64)
            e[j] = 1
            cols.append(e)
    if dim == 0:
        return zeros(0, 0), zeros(0, 0)
    basis = np.stack(cols, axis=1)
    inv = inverse(p, basis)
    return inv[k:dim, :dim], basis[:dim, k:dim]


@st.composite
def subspaces(draw):
    """A modulus, a dimension and dim x k columns of rank at most r."""
    p = draw(st.sampled_from([2, 3, 5, 7, 16777213]))
    dim, r, k = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))

    def matrix(rows, cols):
        flat = draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=rows * cols, max_size=rows * cols)
        )
        return fp_array(p, np.array(flat, dtype=np.int64).reshape(rows, cols))

    return p, dim, matrix(dim, r) @ matrix(r, k) % p


@given(subspaces())
@settings(max_examples=300, deadline=None)
def test_quotient_space_matches_inverse_construction(case):
    p, dim, sub = case
    got, want = quotient_space(p, dim, sub), inverse_quotient_space(p, dim, sub)
    assert all(same(g, w) for g, w in zip(got, want))


def test_inverse():
    m = fp_array(5, [[1, 2], [3, 4]])
    inv = inverse(5, m)
    assert inv is not None
    assert same(m @ inv % 5, eye(2))
    assert inverse(2, fp_array(2, [[1, 1], [1, 1]])) is None


def test_column_space_basis_canonical():
    a = fp_array(2, [[1, 1], [1, 1], [0, 1]])
    b = fp_array(2, [[0, 1], [0, 1], [1, 1]])
    assert same(column_space_basis(2, a), column_space_basis(2, b))
    assert column_space_basis(2, a).shape[1] == 2


@st.composite
def fp_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entries = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return p, fp_array(p, np.array(entries, dtype=np.int64).reshape(rows, cols))


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(case):
    p, m = case
    assert rank(p, m) + kernel_basis(p, m).shape[1] == m.shape[1]


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_columns_annihilated(case):
    p, m = case
    k = kernel_basis(p, m)
    assert not (m @ k % p).any()
    assert rank(p, k) == k.shape[1]


@given(fp_matrices())
@settings(max_examples=100, deadline=None)
def test_quotient_projection_properties(case):
    p, m = case
    proj, sect = quotient_space(p, len(m), m)
    assert len(proj) == len(m) - rank(p, m)
    if m.shape[1]:
        assert not (proj @ m % p).any()
    assert same(proj @ sect % p, eye(len(proj)))
    assert rank(p, proj) == len(proj)


@given(fp_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_iff_rank_criterion(case, data):
    """Each column solves alone by the rank criterion; 0-3 columns solved
    together fail exactly when one of them does, and otherwise give the
    columns solved alone (free variables zero)."""
    p, m = case
    (rows, cols), k = m.shape, data.draw(st.integers(min_value=0, max_value=3))
    entries = st.integers(min_value=0, max_value=p - 1)
    bs = [
        np.array(data.draw(st.lists(entries, min_size=rows, max_size=rows)), dtype=np.int64)[:, None]
        for _ in range(k)
    ]
    singles = []
    for b in bs:
        x = solve(p, m, b)
        consistent = rank(p, np.hstack([m, b])) == rank(p, m)
        assert (x is not None) == consistent
        if x is not None:
            assert same(m @ x % p, b)
        singles.append(x)
    joint = solve(p, m, np.hstack([zeros(rows, 0)] + bs))
    stack = np.zeros((k, rows, 1), dtype=np.int64)
    for b, slot in zip(bs, stack):
        slot[:] = b
    if any(x is None for x in singles):
        assert joint is None
        assert solve_each(p, m, stack) is None
    else:
        assert same(joint, np.hstack([zeros(cols, 0)] + singles))
        assert all(same(x, single) for x, single in zip(solve_each(p, m, stack)[0], singles))


@st.composite
def action_stacks(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    left = np.array(draw(st.lists(st.integers(0, p - 1), min_size=d * n * n, max_size=d * n * n)))
    right = np.array(draw(st.lists(st.integers(0, p - 1), min_size=d * m * m, max_size=d * m * m)))
    return p, left.reshape(d, n, n).astype(np.int64), right.reshape(d, m, m).astype(np.int64)


@settings(max_examples=200, deadline=None)
@given(action_stacks())
def test_intertwining_system_matches_kron_reference(stacks):
    p, left, right = stacks
    d, n, m = left.shape[0], left.shape[1], right.shape[1]
    reference = np.vstack([
        np.kron(left[i], np.eye(m, dtype=np.int64)) - np.kron(np.eye(n, dtype=np.int64), right[i].T)
        for i in range(d)
    ]) % p
    system = intertwining_system(p, left, right)
    assert system.shape == (d * n * m, n * m)
    assert np.array_equal(system, reference)


# -- the enumeration kernel ------------------------------------------------


def test_deeply_nested_entries_are_rejected_without_recursion():
    # far deeper than the interpreter's recursion limit, as a parsed document may be
    entries = 1
    for _ in range(10_000):
        entries = [entries]
    with pytest.raises(ValueError):
        fp_array(2, entries)


def test_int64_array_of_empty_arrays_in_a_list():
    # a list of 0 x 0 actions, as a module of dimension 0 has one per basis element
    empty = np.zeros((0, 0), dtype=np.int64)
    assert int64_array([empty] * 2).shape == (2, 0, 0)
    assert int64_array([[empty]]).shape == (1, 1, 0, 0)


@st.composite
def fp_stacks(draw):
    """A modulus and a (k, rows, cols) stack of residues, 0-size shapes included.

    Entries are zero about half the time, so zero rows and columns,
    repeated pivots and every rank occur at every modulus.
    """
    p = draw(st.sampled_from([2, 3, 5, 16777213]))
    k = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.integers(min_value=0, max_value=5))
    cols = draw(st.integers(min_value=0, max_value=5))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1))
    flat = draw(st.lists(entry, min_size=k * rows * cols, max_size=k * rows * cols))
    return p, np.array(flat, dtype=np.int64).reshape(k, rows, cols)


@given(fp_stacks())
@example((2, np.zeros((0, 3, 2), dtype=np.int64)))
@example((3, np.ones((2, 0, 4), dtype=np.int64)))
@example((16777213, np.ones((2, 3, 0), dtype=np.int64)))
@settings(max_examples=200, deadline=None)
def test_batched_rref_matches_rref_on_every_slice(case):
    p, stack = case
    reduced, ranks = batched_rref(p, stack)
    assert reduced.shape == stack.shape and ranks.shape == (stack.shape[0],)
    for a, red, r in zip(stack, reduced, ranks):
        want, pivots = rref(FpMatrix._of(p, a))
        assert np.array_equal(red, want)
        assert r == len(pivots)


def scale_and_add_combinations(p, basis):
    """Reference: the scale-and-add loop the kernel replaces."""
    out = []
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        mat = np.zeros(basis.shape[1:], dtype=np.int64)
        for c, b in zip(coeffs, basis):
            if c:
                mat = (mat + b * c) % p
        out.append(mat)
    return out


@given(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=1, max_value=7),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_combination_chunks_match_scale_and_add(p, h, rows, cols, chunk_size, data):
    basis = np.array(
        data.draw(
            st.lists(
                st.integers(min_value=0, max_value=p - 1),
                min_size=h * rows * cols,
                max_size=h * rows * cols,
            )
        ),
        dtype=np.int64,
    ).reshape(h, rows, cols)
    chunks = list(combination_chunks(p, basis, chunk_size=chunk_size))
    assert all(c.shape[0] <= chunk_size and c.shape[1:] == (rows, cols) for c in chunks)
    got = np.concatenate(chunks)
    expected = scale_and_add_combinations(p, basis)
    assert got.shape[0] == p ** h == len(expected)
    assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_combination_chunks_cross_a_chunk_boundary():
    basis = np.array([[[1, 2]], [[0, 1]], [[2, 2]]])
    chunks = list(combination_chunks(3, basis, chunk_size=10))
    assert [c.shape[0] for c in chunks] == [10, 10, 7]
    got = np.concatenate(chunks)
    assert all(np.array_equal(g, e) for g, e in zip(got, scale_and_add_combinations(3, basis)))


def test_combination_chunks_of_no_basis_is_one_zero_matrix():
    for rows, cols in [(0, 0), (2, 0), (0, 3), (2, 3)]:
        chunks = list(combination_chunks(2, np.zeros((0, rows, cols), dtype=np.int64)))
        assert len(chunks) == 1
        assert chunks[0].shape == (1, rows, cols) and not chunks[0].any()


def reference_rref(p, rows, cols):
    """Gauss-Jordan elimination on lists of Python ints: (reduced rows, pivots)."""
    a = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


@st.composite
def large_fp_matrices(draw):
    """Up to 24x24 over F_p, p up to the largest prime below 2**24, often of low rank.

    The matrix is a product (rows x k) (k x cols) of factors whose entries
    are zero about half the time, so zero rows and columns, repeated
    pivots and every rank up to min(rows, cols) all occur.
    """
    p = draw(st.sampled_from([2, 3, 5, 16777213]))
    rows = draw(st.integers(min_value=0, max_value=24))
    cols = draw(st.integers(min_value=0, max_value=24))
    k = draw(st.integers(min_value=0, max_value=min(rows, cols)))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1))
    left = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=rows, max_size=rows))
    right = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=k, max_size=k))
    product = [[sum(x * right[t][j] for t, x in enumerate(row)) % p for j in range(cols)] for row in left]
    return p, rows, cols, product


@given(large_fp_matrices())
@settings(max_examples=120, deadline=None)
def test_rref_matches_python_int_reference(case):
    p, rows, cols, entries = case
    m = fp_array(p, np.array(entries, dtype=np.int64).reshape(rows, cols))
    red, pivots = rref(FpMatrix._of(p, m))
    want, want_pivots = reference_rref(p, entries, cols)
    assert pivots == want_pivots
    assert red.tolist() == want
    k = kernel_basis(p, m)
    free = [c for c in range(cols) if c not in pivots]
    assert k.shape == (cols, len(free))
    assert k[free].tolist() == np.eye(len(free), dtype=np.int64).tolist()
    assert not (m @ k % p).any()


# Both regimes of rref: Python int rows up to SMALL_RREF_CELLS entries, numpy above.
BOTH_RREF_PATHS = (0, 10 ** 9)


@st.composite
def rref_path_cases(draw):
    """A modulus and a writable rows x cols matrix on either side of SMALL_RREF_CELLS,
    often of low rank (a product of factors whose entries are zero about half the time)."""
    p = draw(st.sampled_from([2, 3, 5, 16777213]))
    rows = draw(st.integers(min_value=0, max_value=12))
    cols = draw(st.integers(min_value=0, max_value=12))
    k = draw(st.integers(min_value=0, max_value=max(rows, cols)))
    entry = st.one_of(st.just(0), st.integers(min_value=0, max_value=p - 1))
    left = np.array(draw(st.lists(entry, min_size=rows * k, max_size=rows * k)), dtype=np.int64)
    right = np.array(draw(st.lists(entry, min_size=k * cols, max_size=k * cols)), dtype=np.int64)
    return p, left.reshape(rows, k) @ right.reshape(k, cols) % p


@given(rref_path_cases())
@example((2, np.zeros((0, 70), dtype=np.int64)))
@example((3, np.ones((70, 0), dtype=np.int64)))
@example((5, np.zeros((0, 0), dtype=np.int64)))
@example((16777213, np.full((9, 9), 16777212, dtype=np.int64)))
@settings(max_examples=200, deadline=None)
def test_rref_paths_agree(case):
    p, a = case
    before = a.copy()
    for m in (a, a.T):
        results = []
        for limit in BOTH_RREF_PATHS:
            with mock.patch.object(linalg, "SMALL_RREF_CELLS", limit):
                red, pivots = rref(FpMatrix._of(p, m))
            assert red.dtype == np.int64 and red.shape == m.shape
            assert red.flags.writeable and not np.shares_memory(red, a)
            results.append((red.tolist(), pivots))
        assert results[0] == results[1]
        assert results[0] == reference_rref(p, m.tolist(), m.shape[1])
    assert same(a, before)


@given(rref_path_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_kernels_agree_on_both_rref_paths(case, data):
    p, a = case
    x = np.array(
        data.draw(st.lists(st.integers(0, p - 1), min_size=a.shape[1] * 2, max_size=a.shape[1] * 2)), dtype=np.int64
    ).reshape(a.shape[1], 2)
    square = a[: min(a.shape), : min(a.shape)]
    results = []
    for limit in BOTH_RREF_PATHS:
        with mock.patch.object(linalg, "SMALL_RREF_CELLS", limit):
            results.append(
                [
                    kernel_basis(p, a),
                    solve(p, a, a @ x % p),
                    solve(p, a, np.ones((len(a), 1), dtype=np.int64)),
                    inverse(p, square),
                    column_space_basis(p, a),
                    canonical_rows(p, a),
                    *quotient_space(p, len(a), a),
                ]
            )
    for small, large in zip(*results):
        assert (small is None) == (large is None)
        assert small is None or same(small, large)


# -- kernel results ---------------------------------------------------------


def _assert_trusted_result(p, a):
    """``a`` is what validating its entries would give: a reduced 2-d int64 array."""
    assert isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 2
    assert ((a >= 0) & (a < p)).all()
    assert same(fp_array(p, a), a)


@st.composite
def trusted_cases(draw):
    """A modulus, an r x c matrix and a c x k matrix."""
    p = draw(st.sampled_from([2, 3, 5, 16777213]))
    r, c, k = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))

    def matrix(rows, cols):
        flat = draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=rows * cols, max_size=rows * cols)
        )
        return fp_array(p, np.array(flat, dtype=np.int64).reshape(rows, cols))

    return p, matrix(r, c), matrix(c, k)


@given(trusted_cases())
@settings(max_examples=150, deadline=None)
def test_trusted_results_equal_validated_construction(case):
    p, a, x = case
    results = [
        rref(FpMatrix._of(p, a))[0],
        kernel_basis(p, a),
        column_space_basis(p, a),
        *quotient_space(p, len(a), a),
    ]
    y = solve(p, a, a @ x % p)
    assert y is not None
    results.append(y)
    square = a[: min(a.shape), : min(a.shape)]
    inv = inverse(p, square)
    if inv is not None:
        results.append(inv)
    for m in results:
        _assert_trusted_result(p, m)


def test_trusted_slices_own_their_memory():
    # A slice that kept its base would pin the whole parent array.
    a = fp_array(3, np.arange(12).reshape(3, 4))
    owned = [
        column_space_basis(3, a),
        inverse(3, fp_array(3, [[1, 1], [0, 1]])),
    ]
    assert all(m.base is None for m in owned)

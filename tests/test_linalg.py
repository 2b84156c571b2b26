import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commacat.algebra import FDAlgebra
from commacat.linalg import (
    MODULUS_LIMIT,
    FpMatrix,
    int64_array,
    batched_rref,
    block_diag,
    column_space_basis,
    combination_chunks,
    enumerate_vectors,
    first_of_rank,
    hstack,
    intertwining_system,
    inverse,
    kernel_basis,
    kron,
    quotient_space,
    rank,
    rref,
    solve,
    solve_each,
    vstack,
)


def test_modulus_must_be_prime():
    with pytest.raises(ValueError):
        FpMatrix(4, [[1]])
    with pytest.raises(ValueError):
        FpMatrix(1, [[1]])
    FpMatrix(2, [[1]])
    FpMatrix(65521, [[1]])


def test_modulus_primality_is_exact_above_two_to_the_sixteen():
    with pytest.raises(ValueError, match="not prime"):
        FpMatrix(65536, [[1]])
    with pytest.raises(ValueError, match="not prime"):
        FDAlgebra(65536, [[[1]]], [1])
    FpMatrix(65537, [[1]])
    FDAlgebra(65537, [[[1]]], [1])


def test_modulus_too_large_for_int64_is_rejected():
    big = 2 ** 61 - 1
    with pytest.raises(ValueError, match=r"2\*\*24"):
        FpMatrix(big, [[big - 1, big - 1], [big - 1, big - 1]])
    with pytest.raises(ValueError, match=r"2\*\*24"):
        FDAlgebra(big, [[[1]]], [1])
    with pytest.raises(ValueError):
        FpMatrix(MODULUS_LIMIT, [[1]])


def test_largest_accepted_modulus_multiplies_exactly():
    p = 16777213  # the largest prime below 2**24
    a = FpMatrix(p, [[p - 1] * 3] * 3)
    # each entry is 3 (p-1)^2 = 3 mod p
    assert (a @ a).to_lists() == [[3] * 3] * 3


def test_entries_reduced():
    m = FpMatrix(3, [[4, -1], [6, 2]])
    assert m.to_lists() == [[1, 2], [0, 2]]


def test_rref_identity():
    m = FpMatrix.identity(2, 2)
    red, pivots = rref(m)
    assert red == m
    assert pivots == (0, 1)


def test_rref_zero():
    m = FpMatrix.zeros(2, 3, 3)
    red, pivots = rref(m)
    assert red == m
    assert pivots == ()


def test_rref_rank_one():
    # hand Gaussian elimination: [[1,1],[1,1]] -> [[1,1],[0,0]]
    m = FpMatrix(2, [[1, 1], [1, 1]])
    red, pivots = rref(m)
    assert red.to_lists() == [[1, 1], [0, 0]]
    assert pivots == (0,)


def test_kernel_identity_empty():
    assert kernel_basis(FpMatrix.identity(2, 3)).cols == 0


def test_kernel_zero_map():
    k = kernel_basis(FpMatrix.zeros(2, 2, 3))
    assert k.cols == 3
    assert rank(k) == 3


def test_kernel_sum_relation():
    # solve x + y = 0 over F_2: basis {(1,1)}
    k = kernel_basis(FpMatrix(2, [[1, 1]]))
    assert k.to_lists() == [[1], [1]]


def test_solve_identity():
    b = FpMatrix(5, [[3], [1]])
    assert solve(FpMatrix.identity(5, 2), b) == b


def test_solve_inconsistent():
    assert solve(FpMatrix.zeros(2, 2, 2), FpMatrix(2, [[1], [0]])) is None


def test_solve_underdetermined():
    m = FpMatrix(2, [[1, 1]])
    x = solve(m, FpMatrix(2, [[1]]))
    assert x is not None
    assert (m @ x).to_lists() == [[1]]


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(FpMatrix.identity(2, 2), FpMatrix(2, [[1], [0], [0]]))


def test_quotient_by_full_space():
    proj, sect = quotient_space(2, 2, FpMatrix.identity(2, 2))
    assert proj.rows == 0 and proj.cols == 2
    assert sect.rows == 2 and sect.cols == 0


def test_quotient_by_zero():
    proj, sect = quotient_space(2, 2, FpMatrix.zeros(2, 2, 0))
    assert proj.rows == 2
    assert (proj @ sect) == FpMatrix.identity(2, 2)


def test_quotient_kernel_is_subspace():
    sub = FpMatrix(2, [[1], [1]])
    proj, sect = quotient_space(2, 2, sub)
    assert proj.rows == 1
    assert (proj @ sub).is_zero()
    assert (proj @ sect) == FpMatrix.identity(2, 1)
    assert column_space_basis(kernel_basis(proj)) == column_space_basis(sub)


def inverse_quotient_space(p, dim, sub):
    """Reference: quotient_space as built through the inverse of the basis
    [R^T | e_C] (R the reduced rows of sub^T, C the non-pivot columns)."""
    red, pivots = rref(sub.transpose()) if sub.cols else (FpMatrix.zeros(p, 0, dim), ())
    k = len(pivots)
    cols = [red.array()[i, :] for i in range(k)]
    for j in range(dim):
        if j not in pivots:
            e = np.zeros(dim, dtype=np.int64)
            e[j] = 1
            cols.append(e)
    if dim == 0:
        return FpMatrix.zeros(p, 0, 0), FpMatrix.zeros(p, 0, 0)
    basis = FpMatrix(p, np.stack(cols, axis=1))
    inv = inverse(basis)
    return inv.block(k, dim, 0, dim), basis.block(0, dim, k, dim)


@st.composite
def subspaces(draw):
    """A modulus, a dimension and dim x k columns of rank at most r."""
    p = draw(st.sampled_from([2, 3, 5, 7, 16777213]))
    dim, r, k = (draw(st.integers(min_value=0, max_value=6)) for _ in range(3))

    def matrix(rows, cols):
        flat = draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=rows * cols, max_size=rows * cols)
        )
        return FpMatrix(p, np.array(flat, dtype=np.int64).reshape(rows, cols))

    return p, dim, matrix(dim, r) @ matrix(r, k)


@given(subspaces())
@settings(max_examples=300, deadline=None)
def test_quotient_space_matches_inverse_construction(case):
    p, dim, sub = case
    assert quotient_space(p, dim, sub) == inverse_quotient_space(p, dim, sub)


def test_inverse():
    m = FpMatrix(5, [[1, 2], [3, 4]])
    inv = inverse(m)
    assert inv is not None
    assert (m @ inv) == FpMatrix.identity(5, 2)
    assert inverse(FpMatrix(2, [[1, 1], [1, 1]])) is None


def test_column_space_basis_canonical():
    a = FpMatrix(2, [[1, 1], [1, 1], [0, 1]])
    b = FpMatrix(2, [[0, 1], [0, 1], [1, 1]])
    assert column_space_basis(a) == column_space_basis(b)
    assert column_space_basis(a).cols == 2


def test_enumerate_vectors_order():
    vs = list(enumerate_vectors(2, 2))
    assert vs == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(enumerate_vectors(3, 0)) == [()]


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
    m = np.array(entries, dtype=np.int64).reshape(rows, cols)
    return FpMatrix(p, m)


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@given(fp_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_columns_annihilated(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.cols


@given(fp_matrices())
@settings(max_examples=100, deadline=None)
def test_quotient_projection_properties(m):
    proj, sect = quotient_space(m.p, m.rows, m)
    assert proj.rows == m.rows - rank(m)
    if m.cols:
        assert (proj @ m).is_zero()
    assert (proj @ sect) == FpMatrix.identity(m.p, proj.rows)
    assert rank(proj) == proj.rows


@given(fp_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_iff_rank_criterion(m, data):
    """Each column solves alone by the rank criterion; 0-3 columns solved
    together fail exactly when one of them does, and otherwise give the
    columns solved alone (free variables zero)."""
    k = data.draw(st.integers(min_value=0, max_value=3))
    entries = st.integers(min_value=0, max_value=m.p - 1)
    bs = [
        FpMatrix(m.p, np.array(data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows)), dtype=np.int64)[:, None])
        for _ in range(k)
    ]
    singles = []
    for b in bs:
        x = solve(m, b)
        consistent = rank(hstack([m, b])) == rank(m)
        assert (x is not None) == consistent
        if x is not None:
            assert (m @ x) == b
        singles.append(x)
    joint = solve(m, hstack([FpMatrix.zeros(m.p, m.rows, 0)] + bs))
    stack = np.zeros((k, m.rows, 1), dtype=np.int64)
    for b, slot in zip(bs, stack):
        slot[:] = b.array()
    if any(x is None for x in singles):
        assert joint is None
        assert solve_each(m, stack) is None
    else:
        assert joint == hstack([FpMatrix.zeros(m.p, m.cols, 0)] + singles)
        assert [FpMatrix(m.p, x) for x in solve_each(m, stack)[0]] == singles


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
    assert (system.rows, system.cols) == (d * n * m, n * m)
    assert np.array_equal(system.array(), reference)


def test_kron_convention():
    a = FpMatrix(2, [[1, 0], [0, 1]])
    b = FpMatrix(2, [[1, 1]])
    assert kron(a, b).to_lists() == [[1, 1, 0, 0], [0, 0, 1, 1]]


# -- the enumeration kernel ------------------------------------------------


def test_deeply_nested_entries_are_rejected_without_recursion():
    # far deeper than the interpreter's recursion limit, as a parsed document may be
    entries = 1
    for _ in range(10_000):
        entries = [entries]
    with pytest.raises(ValueError):
        FpMatrix(2, entries)


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
        want, pivots = rref(FpMatrix(p, a))
        assert np.array_equal(red, want.array())
        assert r == len(pivots)


def scale_and_add_combinations(p, basis):
    """Reference: the scale-and-add loop the kernel replaces."""
    out = []
    for coeffs in enumerate_vectors(p, len(basis)):
        mat = FpMatrix.zeros(p, *basis.shape[1:])
        for c, b in zip(coeffs, basis):
            if c:
                mat = mat + FpMatrix(p, b * c)
        out.append(mat.array())
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
    m = FpMatrix(p, np.array(entries, dtype=np.int64).reshape(rows, cols))
    red, pivots = rref(m)
    want, want_pivots = reference_rref(p, entries, cols)
    assert pivots == want_pivots
    assert red.to_lists() == want
    k = kernel_basis(m)
    free = [c for c in range(cols) if c not in pivots]
    assert k.rows == cols and k.cols == len(free)
    assert k.array()[free].tolist() == np.eye(len(free), dtype=np.int64).tolist()
    assert (m @ k).is_zero()


# -- the trusted constructor -----------------------------------------------


def _assert_trusted_result(p, m):
    """``m`` is what validating its entries would give: reduced, 2-d int64, frozen."""
    a = m.array()
    assert m.p == p
    assert a.dtype == np.int64 and a.ndim == 2
    assert not a.flags.writeable
    assert ((a >= 0) & (a < p)).all()
    assert FpMatrix(p, a) == m


@st.composite
def trusted_cases(draw):
    """A modulus, two r x c matrices, a c x k matrix, and a row and a column to cut at."""
    p = draw(st.sampled_from([2, 3, 5, 16777213]))
    r, c, k = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))

    def matrix(rows, cols):
        flat = draw(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=rows * cols, max_size=rows * cols)
        )
        return FpMatrix(p, np.array(flat, dtype=np.int64).reshape(rows, cols))

    a, b, x = matrix(r, c), matrix(r, c), matrix(c, k)
    r0 = draw(st.integers(min_value=0, max_value=r))
    c0 = draw(st.integers(min_value=0, max_value=c))
    return p, a, b, x, r0, c0


@given(trusted_cases())
@settings(max_examples=150, deadline=None)
def test_trusted_results_equal_validated_construction(case):
    p, a, b, x, r0, c0 = case
    results = [
        a.block(r0, a.rows, c0, a.cols),
        a.transpose(),
        a @ x,
        a + b,
        a - b,
        -a,
        hstack([a, b]),
        vstack([a, b]),
        block_diag([a, x]),
        rref(a)[0],
        kernel_basis(a),
    ]
    y = solve(a, a @ x)
    assert y is not None
    results.append(y)
    results.append(first_of_rank(p, np.stack([a.array(), b.array()]), rank(b)))
    for m in results:
        _assert_trusted_result(p, m)


def test_trusted_slices_own_their_memory():
    # A slice that kept its base would pin the whole parent array, and a
    # cached enumeration witness would pin a whole chunk of combinations.
    a = FpMatrix(3, np.arange(12).reshape(3, 4))
    basis = np.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    owned = [
        a.block(1, 3, 1, 3),
        first_of_rank(3, basis, 2),
    ]
    assert all(m.array().base is None for m in owned)


def test_stacking_rejects_mixed_moduli():
    # Trusted results are not reduced again, so entries mod 3 must not
    # pass as a matrix over F_2.
    a, b = FpMatrix(2, [[1]]), FpMatrix(3, [[2]])
    for stack in (hstack, vstack, block_diag):
        with pytest.raises(ValueError, match="moduli differ"):
            stack([a, b])

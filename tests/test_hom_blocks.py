"""Hom solves on algebra generators, per diagonal block, in the spin presentation
of the source block; every reader must agree with the full all-basis-element
system: hom_space with its canonical kernel basis, hom_dim with its nullity and
trace_span with the span of the images."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commacat import memo, modules
from commacat.algebra import (
    Bimodule,
    FDAlgebra,
    dual_numbers_algebra,
    field_algebra,
    scalar_bimodule,
    triangular_algebra,
)
from commacat.document import parse_document
from commacat.fixtures import load_fixture
from commacat.linalg import column_space_basis, diagonal_blocks, fp_array, intertwining_system, inverse, kernel_basis, rank
from commacat.modules import (
    ModuleRep,
    direct_sum,
    extension_middle_terms,
    generator_indices,
    generator_stack,
    hom_dim,
    hom_space,
    quotient_module,
    regular_module,
    trace_span,
    validate_module,
    zero_module,
)
from commacat.tasks import run_document, run_fixture


LARGEST_P = 16777213  # the largest prime below 2**24, the modulus bound


def truncated_polynomials(p, k):
    """F_p[x]/(x^k), basis 1, x, ..., x^(k-1)."""
    mul = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k - i):
            mul[i, j, i + j] = 1
    return FDAlgebra(p, mul, [1] + [0] * (k - 1), label=f"F_{p}[x]/(x^{k})")


def t_a2(p):
    r, s = field_algebra(p, "R"), field_algebra(p, "S")
    return triangular_algebra(scalar_bimodule(s, r, "U"), label="T(A2)")


def t_dual(p):
    r, s = dual_numbers_algebra(p, "R"), field_algebra(p, "S")
    u = Bimodule(s, r, 1, [[[1]]], [[[1]], [[0]]], label="U")
    return triangular_algebra(u, label="T(dual)")


ALGEBRAS = {
    "dual": dual_numbers_algebra,
    "x3": lambda p: truncated_polynomials(p, 3),
    "t_a2": t_a2,
    "t_dual": t_dual,
}


def test_generator_indices():
    assert generator_indices(dual_numbers_algebra(2)) == (1,)
    assert generator_indices(truncated_polynomials(3, 3)) == (1,)
    assert generator_indices(t_a2(2)) == (0, 1)
    assert generator_indices(t_dual(2)) == (0, 1, 2)
    assert generator_indices(field_algebra(3)) == ()
    assert generator_indices(load_fixture("dual-numbers").t) == (0, 1, 2)


def test_diagonal_blocks():
    a = np.zeros((2, 5, 5), dtype=np.int64)
    assert diagonal_blocks(a) == [0, 1, 2, 3, 4, 5]
    a[0, 3, 1] = 1  # couples 1 with 3, so 2 cannot be cut off
    a[1, 4, 4] = 1
    assert diagonal_blocks(a) == [0, 1, 4, 5]
    assert diagonal_blocks(np.ones((1, 3, 3), dtype=np.int64)) == [0, 3]
    assert diagonal_blocks(np.zeros((0, 2, 2), dtype=np.int64)) == [0, 1, 2]
    assert diagonal_blocks(np.zeros((2, 0, 0), dtype=np.int64)) == [0]


def full_system_basis(m, n):
    """Rows of the canonical kernel basis of the system over every basis element."""
    system = intertwining_system(m.p, n.action, m.action)
    return kernel_basis(m.p, system).T


def hom_rows(m, n):
    basis = hom_space(m, n)
    return basis.reshape(len(basis), n.dim * m.dim)


def assert_matches_full_system(m, n):
    if m.dim and n.dim:
        full = full_system_basis(m, n)
        np.testing.assert_array_equal(hom_rows(m, n), full)
        assert hom_dim(m, n) == len(full)
    else:
        assert hom_space(m, n).shape == (0, n.dim, m.dim)
        assert hom_dim(m, n) == 0
    images = [np.zeros((n.dim, 0), dtype=np.int64), *hom_space(m, n)]
    assert np.array_equal(trace_span([m], n), column_space_basis(n.p, np.hstack(images)))


def conjugate(m, g):
    """m with every action matrix conjugated by the invertible g."""
    gi = inverse(m.p, g)
    return ModuleRep(m.algebra, m.side, m.dim, gi @ (m.action @ g % m.p), label=m.label)


def cyclic_quotient(alg, vec):
    """The regular module modulo the submodule generated by the column ``vec``."""
    reg = regular_module(alg)
    span = vec
    while True:
        grown = column_space_basis(alg.p, np.hstack([span] + [a @ span % alg.p for a in reg.action]))
        if grown.shape[1] == span.shape[1]:
            return quotient_module(reg, grown, label="q")
        span = grown


@st.composite
def summands(draw, alg):
    """A cyclic module, sometimes in a random basis, or the zero module."""
    p = alg.p
    if draw(st.integers(0, 4)) == 0:
        return zero_module(alg)
    # zero half the time: over a large field a uniform vector is almost always
    # a unit, whose cyclic quotient is zero
    vec = draw(st.lists(st.just(0) | st.integers(0, p - 1), min_size=alg.dim, max_size=alg.dim))
    m = cyclic_quotient(alg, np.array(vec, dtype=np.int64)[:, None])
    if m.dim > 1 and draw(st.booleans()):
        entries = draw(st.lists(st.integers(0, p - 1), min_size=m.dim ** 2, max_size=m.dim ** 2))
        g = np.array(entries, dtype=np.int64).reshape(m.dim, m.dim)
        if rank(p, g) == m.dim:
            m = conjugate(m, g)
    return m


def hand_built_sum(parts):
    """The block-diagonal module of ``parts`` built entry by entry, not by direct_sum."""
    alg = parts[0].algebra
    dim = sum(m.dim for m in parts)
    actions = []
    for i in range(alg.dim):
        a = np.zeros((dim, dim), dtype=np.int64)
        k = 0
        for m in parts:
            a[k : k + m.dim, k : k + m.dim] = m.action[i]
            k += m.dim
        actions.append(a)
    return ModuleRep(alg, parts[0].side, dim, actions, label="hand")


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, LARGEST_P]), name=st.sampled_from(sorted(ALGEBRAS) + ["field"]))
def test_hom_of_direct_sums_is_the_full_system_kernel(data, p, name):
    alg = field_algebra(p) if name == "field" else ALGEBRAS[name](p)
    left = data.draw(st.lists(summands(alg), min_size=1, max_size=3))
    right = data.draw(st.lists(summands(alg), min_size=1, max_size=3))
    m, n = direct_sum(left), direct_sum(right)
    assert not validate_module(m) and not validate_module(n)
    assert_matches_full_system(m, n)
    assert_matches_full_system(n, m)
    hand = hand_built_sum(right[::-1])
    assert_matches_full_system(hand, m)
    assert_matches_full_system(m, hand)


@pytest.mark.parametrize("p", [2, 3, LARGEST_P])
def test_dim_one_algebra_has_no_generators(p):
    """Over F_p itself there are no generators and no relations: every block
    is 1 x 1 and every map intertwines."""
    alg = field_algebra(p)
    assert generator_indices(alg) == ()
    k = regular_module(alg)
    m = direct_sum([k, k, k])
    for a, b in [(k, m), (m, k), (m, m), (m, zero_module(alg))]:
        assert_matches_full_system(a, b)
    assert hom_dim(m, m) == 9


@pytest.mark.parametrize("p", [2, 3, LARGEST_P])
def test_spin_with_more_generators_than_needed(p):
    """J2 over the dual numbers with x e_2 = e_1: the spin takes e_1, which x
    kills, and then e_2, so it keeps two generators where e_2 alone suffices."""
    alg = dual_numbers_algebra(p)
    j2 = ModuleRep(alg, "left", 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], label="J2")
    assert not validate_module(j2)
    parent = modules._spin(p, 1, 2, modules._packed_blocks(j2)[0][2])[0]
    assert parent.tolist() == [-1, -1]
    k = cyclic_quotient(alg, fp_array(p, [[0], [1]]))
    mixed = conjugate(direct_sum([j2, k]), fp_array(p, [[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
    found = [j2, k, regular_module(alg), direct_sum([k, j2]), mixed]
    for a in found:
        for b in found:
            assert_matches_full_system(a, b)
    assert hom_dim(j2, j2) == 2


def test_spin_basis_stays_exact_at_the_largest_modulus():
    """Dual numbers acting by x = [[1, 1], [-1, -1]]: the spin basis (e_1, x e_1)
    and its inverse carry residues near p, so C_a = S^-1 R_a S overflows int64
    unless each product is reduced before the next one."""
    p = LARGEST_P
    alg = dual_numbers_algebra(p)
    m = ModuleRep(alg, "left", 2, [[[1, 0], [0, 1]], [[1, 1], [p - 1, p - 1]]], label="M")
    assert not validate_module(m)
    assert modules._spin(p, 1, 2, modules._packed_blocks(m)[0][2])[0].tolist() == [-1, 0]
    k = regular_module(alg)
    for a, b in [(m, m), (m, k), (k, m)]:
        assert_matches_full_system(a, b)
    assert hom_dim(m, m) == 2


@pytest.mark.parametrize("p", [2, 3, LARGEST_P])
def test_hom_blocks_are_memoized_packed_and_read_only(p):
    """Every hom_block value holds residues at memo.packed_dtype(p), the content
    key width (uint8 for p <= 256, uint32 above), and is frozen."""
    alg = dual_numbers_algebra(p)
    m = ModuleRep(alg, "left", 2, [[[1, 0], [0, 1]], [[1, 1], [p - 1, p - 1]]], label="M")
    k = regular_module(alg)
    for a, b in [(m, m), (m, k), (k, m), (k, k)]:
        assert_matches_full_system(a, b)
    table = memo._REGISTRY["hom_block"].table
    assert table and {key[0] for key in table} == {p}
    for block in table.values():
        assert block.dtype == memo.packed_dtype(p) and not block.flags.writeable
    assert memo.packed_dtype(p) == (np.uint8 if p <= 256 else np.uint32)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_non_split_extensions_are_not_split(p, name):
    alg = ALGEBRAS[name](p)
    eye = np.eye(alg.dim, dtype=np.int64)
    quotients = {}
    for j in range(alg.dim):
        q = cyclic_quotient(alg, eye[:, j : j + 1])
        if q.dim:
            quotients.setdefault(q, q)
    non_split = 0
    for a in quotients:
        for b in quotients:
            if a.dim + b.dim > 6:
                continue
            for e in extension_middle_terms(a, b).middle_terms[1:]:
                non_split += 1
                # the cocycle couples the block of b with the block of a
                assert b.dim not in diagonal_blocks(generator_stack(e))
                split = direct_sum([b, a])
                assert_matches_full_system(e, split)
                assert_matches_full_system(split, e)
                assert_matches_full_system(e, e)
    assert non_split


def _p3doc():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "p3doc.py"
    spec = importlib.util.spec_from_file_location("p3doc_generator", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("source", ["a2", "dual-numbers", "p3-doc"])
def test_modules_reaching_hom_solves_satisfy_the_module_law(source, monkeypatch):
    """The Hom readers drop the unit and product rows, which the module law
    implies; every module a run hands them must obey it.  hom_comma reaches
    them through the Hom of its components, and every reader cuts a module
    into blocks through _packed_blocks."""
    seen = {}
    packed_blocks = modules._packed_blocks

    def record(m):
        seen[m] = None
        return packed_blocks(m)

    monkeypatch.setattr(modules, "_packed_blocks", record)
    if source == "p3-doc":
        run_document(parse_document(_p3doc().generate(11)))
    else:
        run_fixture(load_fixture(source))
    assert len(seen) > 20
    assert all(validate_module(m) == [] for m in seen)


def jordan_matrix(parts):
    """Lower-shift nilpotent Jordan matrix with one block per part: x e_i = e_(i+1) within a block."""
    x = np.zeros((sum(parts), sum(parts)), dtype=np.int64)
    start = 0
    for a in parts:
        x[np.arange(start + 1, start + a), np.arange(start, start + a - 1)] = 1
        start += a
    return x


def jordan_module(alg, parts):
    """The module of Jordan type ``parts`` over F_p[x]/(x^k): x^i acts as the i-th power of the shift."""
    x, actions = jordan_matrix(parts), [np.eye(sum(parts), dtype=np.int64)]
    for _ in range(alg.dim - 1):
        actions.append(actions[-1] @ x)
    return ModuleRep(alg, "left", sum(parts), actions, label="J" + "".join(map(str, parts)))


def single_chain_blocks(m):
    """Every diagonal block of m's one generator matrix holds one chain: rank = size - 1."""
    x = generator_stack(m)[0]
    bounds = diagonal_blocks(x[None])
    return all(rank(m.p, x[a:b, a:b]) == b - a - 1 for a, b in zip(bounds, bounds[1:]))


def assert_jordan_frame(m, parts):
    """m has a frame exactly when some block of it holds two chains, and the
    frame brings its generator to the Jordan matrix of ``parts``."""
    frame = modules._frame(m)
    assert (frame is None) == single_chain_blocks(m)
    if frame is not None:
        s, s_inv = frame
        x = generator_stack(m)[0]
        np.testing.assert_array_equal(s @ s_inv % m.p, np.eye(m.dim, dtype=np.int64))
        np.testing.assert_array_equal(s_inv @ x % m.p @ s % m.p, jordan_matrix(parts))
        assert not s.flags.writeable and not s_inv.flags.writeable
    return frame is not None


def test_jordan_frames_of_the_p3_doc_modules():
    """Every p3-doc module is a conjugated Jordan type named by its label
    (J321 has parts 3, 2, 1).  J1, J2, J3 and the modules where x acts as 0
    keep their given basis, and so does seed 11's J21, whose conjugate comes
    out block diagonal; the other 29 (seed 11) and 30 (seed 12) get a frame."""
    generator = _p3doc()
    for seed, count in [(11, 29), (12, 30)]:
        doc = parse_document(generator.generate(seed))
        framed = [name for name, m in doc.modules.items() if assert_jordan_frame(m, generator._parts(name))]
        assert len(framed) == count


@pytest.mark.parametrize("p", [2, 3, LARGEST_P])
def test_no_frame_without_one_nilpotent_generator_or_two_chains(p):
    dual = dual_numbers_algebra(p)
    k = regular_module(field_algebra(p))
    j2, j1 = jordan_module(dual, (2,)), jordan_module(dual, (1,))
    g = fp_array(p, [[1, 1, 0], [0, 1, 1], [1, 0, 1 if p != 2 else 0]])
    assert rank(p, g) == 3
    mixed = conjugate(direct_sum([j2, j1]), g)
    assert assert_jordan_frame(mixed, (2, 1))
    unframed = [k, direct_sum([k, k, k]), j2, direct_sum([j2, j1, j2]), conjugate(j2, fp_array(p, [[1, 2], [0, 1]]))]
    unframed += [zero_module(dual), direct_sum([j1, j1, j1])]
    unframed += load_fixture("dual-numbers").t_universe_list() + list(load_fixture("a2").t_universe.values())
    # x = diag(0, 0, 1) over F_p[x]/(x^2 - x): two dimensional kernel in one block, but not nilpotent
    idempotent = FDAlgebra(p, [[[1, 0], [0, 1]], [[0, 1], [0, 1]]], [1, 0], label="idempotent")
    e = conjugate(ModuleRep(idempotent, "left", 3, [np.eye(3, dtype=np.int64), np.diag([0, 0, 1])]), g)
    assert not validate_module(e)
    for m in unframed + [e]:
        assert modules._frame(m) is None, m
    for a in [mixed, e, j2]:
        for b in [mixed, j2, j1]:
            if a.algebra == b.algebra:
                assert_matches_full_system(a, b)


def assert_trace_matches_full_system(generators, n):
    images = [np.zeros((n.dim, 0), dtype=np.int64)]
    images += [h for m in generators if m.dim and n.dim for h in full_system_basis(m, n).reshape(-1, n.dim, m.dim)]
    assert np.array_equal(trace_span(generators, n), column_space_basis(n.p, np.hstack(images)))


@st.composite
def jordan_conjugates(draw, alg):
    """A Jordan type with parts <= the nilpotency index, conjugated by a random
    invertible L U (both unitriangular) that is sometimes the identity."""
    parts = sorted(draw(st.lists(st.integers(1, alg.dim), min_size=0, max_size=4)), reverse=True)
    m = jordan_module(alg, tuple(parts))
    if m.dim > 1 and draw(st.booleans()):
        p, n = alg.p, m.dim
        entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
        a = np.array(entries, dtype=np.int64).reshape(n, n)
        low, up = np.tril(a, -1) + np.eye(n, dtype=np.int64), np.triu(a, 1) + np.eye(n, dtype=np.int64)
        m = conjugate(m, low @ up % p)
    return m, tuple(parts)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, LARGEST_P]), k=st.integers(2, 4))
def test_jordan_frames_match_the_full_system(data, p, k):
    """Over F_p[x]/(x^k), hom_space, hom_dim and trace_span of random conjugates
    of Jordan types, framed or not, agree with the full intertwining system;
    a generator list that repeats a module gives the same trace."""
    alg = truncated_polynomials(p, k)
    drawn = data.draw(st.lists(jordan_conjugates(alg), min_size=2, max_size=3))
    for m, parts in drawn:
        assert not validate_module(m)
        assert_jordan_frame(m, parts)
    found = [m for m, _ in drawn]
    for a in found:
        for b in found:
            assert_matches_full_system(a, b)
    for n in found:
        assert_trace_matches_full_system([found[0], *found, found[-1]], n)


@pytest.mark.parametrize("p", [5, LARGEST_P])
def test_p3_doc_at_other_moduli_matches_the_closed_forms(p, monkeypatch):
    """The p3-doc documents of seeds 11 and 12 at max_dim 6 over F_p[x]/(x^3),
    up to the largest modulus, agree with the generator's closed-form oracles."""
    generator = _p3doc()
    monkeypatch.setattr(generator, "P", p)
    for seed in (11, 12):
        doc = generator.generate(seed, max_dim=6)
        assert doc["field"] == {"p": p}
        report = json.loads(json.dumps({"tasks": run_document(parse_document(doc))}))
        assert generator.report_errors(doc, report) == []

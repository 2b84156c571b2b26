import functools
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commacat import memo, modules
from commacat.algebra import Bimodule, FDAlgebra, dual_numbers_algebra, field_algebra, validate_bimodule
from commacat.comma import CommaObject, RightTModule, validate_comma, validate_right_t
from commacat.document import parse_document
from commacat.fixtures import fixture_names, load_fixture
from commacat.linalg import batched_rref, column_space_basis, fp_array, inverse, kernel_basis, quotient_space, rank
from commacat.modules import (
    LEFT,
    RIGHT,
    AlgebraMismatch,
    IsoSearchCapExceeded,
    ModuleMap,
    ModuleRep,
    balancing_generators,
    bimodule_as_left_module,
    bimodule_as_right_module,
    direct_sum,
    dual_module,
    extension_middle_terms,
    gen_member,
    gen_member_epi_oracle,
    hom_coords,
    hom_dim,
    hom_space,
    is_isomorphic,
    module_dual,
    quotient_module,
    regular_module,
    submodule,
    tensor_map,
    tensor_over,
    trace_span,
    validate_module,
    violated_intertwining,
    zero_module,
)
from tests.test_hom_blocks import _p3doc


@pytest.fixture(scope="module")
def a2():
    return load_fixture("a2")


@pytest.fixture(scope="module")
def dual():
    return load_fixture("dual-numbers")


def test_universe_modules_validate(a2, dual):
    for fx in (a2, dual):
        for m in fx.t_universe.values():
            assert validate_module(m) == []
        for m in list(fx.r_universe.values()) + list(fx.s_universe.values()):
            assert validate_module(m) == []


def test_regular_module_dual_numbers_nilpotent():
    r = dual_numbers_algebra(2)
    reg = regular_module(r)
    # x acts by the nilpotent Jordan block in basis {1, x}
    assert reg.action[1].tolist() == [[0, 0], [1, 0]]
    assert not (reg.action[1] @ reg.action[1] % 2).any()
    assert validate_module(reg) == []


def test_regular_module_a2_decomposes_into_projectives(a2):
    treg = regular_module(a2.t)
    assert validate_module(treg) == []
    # fixture-supplied idempotent columns: T e11 spans (e_R, e_U), T e22 spans (e_S)
    cols_e11 = fp_array(2, [[1, 0], [0, 1], [0, 0]])
    cols_e22 = fp_array(2, [[0], [0], [1]])
    from commacat.modules import submodule

    p1 = submodule(treg, cols_e11)
    p2 = submodule(treg, cols_e22)
    assert is_isomorphic(p1, a2.t_universe["P"]).isomorphic
    assert is_isomorphic(p2, a2.t_universe["S_S"]).isomorphic
    total = direct_sum([p1, p2])
    assert is_isomorphic(total, treg).isomorphic


def test_dual_module_field_self_dual():
    s = field_algebra(2)
    d = dual_module(s)
    assert d.dim == 1
    assert is_isomorphic(d, regular_module(s)).isomorphic


def test_dual_module_dual_numbers_transpose():
    s = dual_numbers_algebra(2)
    d = dual_module(s)
    reg_right = regular_module(s, side="right")
    assert d.dim == 2
    for i in range(2):
        assert np.array_equal(d.action[i], reg_right.action[i].T)
    assert validate_module(d) == []


def test_double_dual_isomorphic():
    for alg in (field_algebra(2), dual_numbers_algebra(2), field_algebra(3)):
        m = regular_module(alg)
        dd = module_dual(module_dual(m))
        assert dd.side == m.side
        assert is_isomorphic(dd, m).isomorphic


def test_hom_scalars():
    s = field_algebra(2)
    k = regular_module(s)
    assert hom_dim(k, k) == 1
    assert hom_dim(k, zero_module(s)) == 0


def test_hom_a2_projective_vs_simples(a2):
    t = a2.t_universe
    assert hom_dim(t["P"], t["S_S"]) == 0
    assert hom_dim(t["S_S"], t["P"]) == 1


def test_hom_intertwiner_invariant(a2, dual):
    """hom_space is a read-only int64 stack of hom_dim intertwiners, on every
    universe pair of both fixtures."""
    for fx in (a2, dual):
        for universe in (fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()):
            for x in universe:
                for y in universe:
                    basis = hom_space(x, y)
                    assert basis.dtype == np.int64 and not basis.flags.writeable
                    assert basis.shape == (hom_dim(x, y), y.dim, x.dim)
                    assert all(ModuleMap(x, y, h).is_valid() for h in basis)


def test_hom_additivity(a2):
    t = list(a2.t_universe.values())
    for m in t:
        for n1 in t:
            for n2 in t:
                s = direct_sum([n1, n2])
                assert hom_dim(m, s) == hom_dim(m, n1) + hom_dim(m, n2)
                assert hom_dim(s, m) == hom_dim(n1, m) + hom_dim(n2, m)


@pytest.mark.parametrize("name", ["a2", "dual-numbers"])
def test_hom_coords_recovers_coefficients(name, a2, dual):
    fx = a2 if name == "a2" else dual
    rng = np.random.default_rng(0)
    p = fx.t.p
    for universe in (fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()):
        for m in universe:
            for n in universe:
                basis = hom_space(m, n)
                c = rng.integers(0, p, size=(len(basis), 3))
                mats = [np.zeros((n.dim, m.dim), dtype=np.int64) for _ in range(3)]
                for i, b in enumerate(basis):
                    mats = [(x + b * int(c[i, j])) % p for j, x in enumerate(mats)]
                got = hom_coords(p, basis, np.stack(mats))
                assert np.array_equal(got, c.reshape(len(basis), 3))


def test_hom_coords_empty_basis_accepts_only_zero(a2):
    t = a2.t_universe
    basis = hom_space(t["S_S"], t["S_R"])
    assert basis.shape == (0, 1, 1)
    assert hom_coords(a2.t.p, basis, np.zeros((2, 1, 1), dtype=np.int64)).shape == (0, 2)
    with pytest.raises(AssertionError):
        hom_coords(a2.t.p, basis, np.array([[[0]], [[1]]]))


def test_submodule_rejects_dependent_or_non_invariant_columns(a2):
    treg = regular_module(a2.t)
    e_r = fp_array(a2.t.p, [[1], [0], [0]])
    with pytest.raises(ValueError, match="independent"):
        submodule(treg, fp_array(a2.t.p, [[1, 1], [0, 0], [0, 0]]))
    # U moves e_R into e_U, so the span of e_R alone is not a submodule
    assert (treg.action[1] @ e_r % a2.t.p).tolist() == [[0], [1], [0]]
    with pytest.raises(ValueError, match="not invariant"):
        submodule(treg, e_r)


def test_direct_sum_with_zero_is_the_module(a2):
    m = a2.t_universe["P"]
    s = direct_sum([m, zero_module(a2.t)])
    assert is_isomorphic(s, m).isomorphic


def image_kernel_cokernel(f):
    """The image, kernel and cokernel of the map f, as modules."""
    p, img = f.source.p, column_space_basis(f.source.p, f.matrix)
    return (submodule(f.target, img), submodule(f.source, kernel_basis(p, f.matrix)),
            quotient_module(f.target, img))


def test_image_kernel_cokernel_identity_and_zero(a2):
    m = a2.t_universe["P"]
    from tests.maps import identity_map, zero_map

    image, kernel, cokernel = image_kernel_cokernel(identity_map(m))
    assert image.dim == m.dim and kernel.dim == 0 and cokernel.dim == 0
    image, kernel, cokernel = image_kernel_cokernel(zero_map(m, m))
    assert image.dim == 0 and kernel.dim == m.dim and cokernel.dim == m.dim


def test_kernel_of_projective_cover_is_socle(a2):
    t = a2.t_universe
    epi = ModuleMap(t["P"], t["S_R"], [[1, 0]])
    assert epi.is_valid()
    image, kernel, _ = image_kernel_cokernel(epi)
    assert image.dim == 1
    assert is_isomorphic(kernel, t["S_S"]).isomorphic


def test_tensor_zero_bimodule(dual):
    from commacat.algebra import Bimodule

    s, r = dual.t.s, dual.t.r
    zero_u = Bimodule(s, r, 0, np.zeros((1, 0, 0), dtype=np.int64), np.zeros((2, 0, 0), dtype=np.int64))
    res = tensor_over(zero_u, dual.r_universe["R"])
    assert res.module.dim == 0


def test_tensor_k_over_k(a2):
    res = tensor_over(a2.t.u, a2.r_universe["k"])
    assert res.module.dim == 1


def test_tensor_balancing_kills_radical(dual):
    # U (x)_R R: the balancing relation kills u (x) x
    res = tensor_over(dual.t.u, dual.r_universe["R"])
    assert res.module.dim == 1
    # and U (x)_R k is one-dimensional too
    assert tensor_over(dual.t.u, dual.r_universe["k"]).module.dim == 1


def test_tensor_map_functorial(dual):
    r_univ = dual.r_universe
    from tests.maps import compose, identity_map

    f = identity_map(r_univ["R"])
    tf = tensor_map(dual.t.u, f)
    assert tf.matrix.tolist() == [[1]]
    # zero map tensors to zero
    z = ModuleMap(r_univ["R"], r_univ["k"], [[0, 0]])
    assert not tensor_map(dual.t.u, z).matrix.any()
    # composition: (g . h) tensors to the composition, for h multiplication by 1 + x
    h = ModuleMap(r_univ["R"], r_univ["R"], [[1, 0], [1, 1]])
    g = ModuleMap(r_univ["R"], r_univ["k"], [[1, 0]])
    assert g.is_valid() and h.is_valid()
    lhs = tensor_map(dual.t.u, compose(g, h))
    assert np.array_equal(lhs.matrix, tensor_map(dual.t.u, g).matrix @ tensor_map(dual.t.u, h).matrix % dual.t.p)


def test_tensor_right_exactness(dual):
    # for every epi among hom-space elements, the tensored map is epi
    univ = list(dual.r_universe.values())
    for m in univ:
        for n in univ:
            for h in hom_space(m, n):
                if rank(dual.t.p, h) != n.dim:
                    continue
                th = tensor_map(dual.t.u, ModuleMap(m, n, h))
                assert rank(dual.t.p, th.matrix) == th.target.dim


def test_trace_examples(a2):
    t = a2.t_universe
    assert trace_span([t["P"]], t["S_S"]).shape[1] == 0
    assert trace_span([t["P"]], t["S_R"]).shape[1] == 1
    span = trace_span([t["P"]], t["P"])
    assert span.shape[1] == 2
    # the span is a submodule: its inclusion intertwines the actions
    assert ModuleMap(submodule(t["P"], span), t["P"], span).is_valid()


def test_trace_idempotent_and_monotone(a2):
    t = list(a2.t_universe.values())
    gens = [a2.t_universe["P"], a2.t_universe["S_S"]]
    for m in t:
        sub = submodule(m, trace_span(gens, m))
        assert sub.dim <= m.dim
        assert trace_span(gens, sub).shape[1] == sub.dim


def test_gen_member_examples(a2):
    t = a2.t_universe
    assert gen_member(t["P"], t["P"])
    assert not gen_member(t["P"], t["S_S"])
    treg = regular_module(a2.t)
    for m in t.values():
        assert gen_member(treg, m)
    assert not gen_member(t["S_R"], t["P"])
    assert trace_span([t["S_R"]], t["P"]).shape[1] == 0


def test_gen_member_matches_epi_oracle(a2):
    t = list(a2.t_universe.values())
    for g in t:
        for x in t:
            assert gen_member(g, x) == gen_member_epi_oracle(g, x)


def test_is_isomorphic_basic(a2):
    t = a2.t_universe
    assert is_isomorphic(t["P"], t["P"]).isomorphic
    assert exhaustive_isomorphism(t["P"], t["P"]).is_valid()
    assert not is_isomorphic(t["P"], t["S_R"]).isomorphic
    assert not is_isomorphic(t["N"], t["P"]).isomorphic


def test_is_isomorphic_cap(a2, monkeypatch):
    treg = regular_module(a2.t)
    big = direct_sum([treg] * 5)
    memo.clear()
    monkeypatch.setattr(modules, "ISO_CAP", 2)
    with pytest.raises(IsoSearchCapExceeded):
        is_isomorphic(big, big)


def exhaustive_isomorphism(m, n, cap=16):
    """Reference: the first invertible map among all combinations of a Hom(m, n)
    basis, one scale-and-add combination and one rank at a time, or None."""
    if m.dim != n.dim:
        return None
    basis = hom_space(m, n)
    if len(basis) > cap:
        raise IsoSearchCapExceeded(f"hom space dimension {len(basis)} exceeds cap {cap}")
    for coeffs in itertools.product(range(m.p), repeat=len(basis)):
        mat = np.zeros((n.dim, m.dim), dtype=np.int64)
        for c, b in zip(coeffs, basis):
            if c:
                mat = (mat + b * c) % m.p
        if rank(m.p, mat) == m.dim:
            return ModuleMap(m, n, mat)
    return None


def isomorphism_test_pairs(universe, max_dim=4):
    """Equal-dimension pairs among the universe, within the middle terms of
    one extension (distinct classes often have isomorphic middle terms), and
    between middle terms and universe members."""
    calls = [
        extension_middle_terms(m, n).middle_terms
        for m in universe
        for n in universe
        if m.dim + n.dim <= max_dim
    ]
    pairs = [(a, b) for a in universe for b in universe]
    pairs += [(a, b) for terms in calls for a in terms for b in terms]
    pairs += [(e, b) for terms in calls for e in terms for b in universe]
    return [(a, b) for a, b in dict.fromkeys(pairs) if a.dim == b.dim]


@pytest.mark.parametrize("name", ["a2", "dual-numbers"])
def test_prefilter_agrees_with_exhaustive_search(name, a2, dual):
    fx = a2 if name == "a2" else dual
    checked = positive = 0
    for universe in (fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()):
        for m, n in isomorphism_test_pairs(universe):
            expected = exhaustive_isomorphism(m, n)
            assert is_isomorphic(m, n).isomorphic == (expected is not None), (m, n)
            if expected is not None:
                positive += 1
                assert expected.is_valid()
            checked += 1
    assert positive and checked > positive


def polynomial_algebra(p, f):
    """F_p[x]/(f) on the basis 1, x, ..., x^(d-1); f is monic, coefficients lowest first."""
    d = len(f) - 1
    powers = [np.eye(d, dtype=np.int64)[0]]  # x^k mod f for k <= 2d - 2
    for _ in range(2 * d - 2):
        v = powers[-1]
        powers.append((np.concatenate([[0], v[:-1]]) - v[-1] * np.array(f[:d])) % p)
    mul = np.array([[powers[i + j] for j in range(d)] for i in range(d)])
    return FDAlgebra(p, mul, powers[0], label=f"F_{p}[x]/{f}")


def _nilpotent(a):
    return np.eye(a, k=-1, dtype=np.int64)


# (p, f, blocks of x whose minimal polynomials divide f): x^n, and f with two
# distinct factors, one of degree 2 over F_2 (companion of x^2 + x + 1).
POLYNOMIAL_CASES = [
    (2, [0, 0, 0, 1], [_nilpotent(1), _nilpotent(2), _nilpotent(3)]),
    (3, [0, 0, 1], [_nilpotent(1), _nilpotent(2)]),
    (2, [0, 0, 1, 1, 1], [_nilpotent(1), _nilpotent(2), np.array([[0, 1], [1, 1]])]),
    (3, [0, 0, 2, 1], [_nilpotent(1), _nilpotent(2), np.array([[1]])]),
]


@st.composite
def polynomial_module_pairs(draw):
    """Two equal-dimensional modules over some F_p[x]/(f) of POLYNOMIAL_CASES, each a
    sum of up to three blocks in a random basis; n is often a conjugate of m."""
    case = draw(st.integers(min_value=0, max_value=len(POLYNOMIAL_CASES) - 1))
    p, f, blocks = POLYNOMIAL_CASES[case]
    alg = polynomial_algebra(p, f)
    sums = [c for k in range(4) for c in itertools.combinations_with_replacement(range(len(blocks)), k)]

    def dim(choice):
        return sum(len(blocks[i]) for i in choice)

    def module(choice):
        x = np.zeros((dim(choice), dim(choice)), dtype=np.int64)
        start = 0
        for i in choice:
            x[start : start + len(blocks[i]), start : start + len(blocks[i])] = blocks[i]
            start += len(blocks[i])
        # a random invertible g, as a lower times an upper unitriangular matrix
        rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
        eye = np.eye(len(x), dtype=np.int64)
        g = (eye + np.tril(rng.integers(0, p, x.shape), -1)) @ (eye + np.triu(rng.integers(0, p, x.shape), 1)) % p
        x = inverse(p, g) @ x % p @ g % p
        action = [eye]
        for _ in range(alg.dim - 1):
            action.append(action[-1] @ x % p)
        return ModuleRep(alg, LEFT, len(x), np.array(action).reshape(alg.dim, len(x), len(x)))

    first = draw(st.sampled_from(sums))
    second = first if draw(st.booleans()) else draw(st.sampled_from([c for c in sums if dim(c) == dim(first)]))
    return module(first), module(second)


def searched_isomorphic(m, n):
    """Reference: whether any of the p^h combinations of a Hom(m, n) basis is invertible."""
    basis = hom_space(m, n)
    coeffs = np.array(list(itertools.product(range(m.p), repeat=len(basis))), dtype=np.int64)
    maps = coeffs.reshape(len(coeffs), len(basis)) @ basis.reshape(len(basis), n.dim * m.dim) % m.p
    maps = maps.reshape(len(maps), n.dim, m.dim)
    return any((batched_rref(m.p, chunk)[1] == m.dim).any() for chunk in np.array_split(maps, len(maps) // 4096 + 1))


@given(polynomial_module_pairs())
@settings(max_examples=60, deadline=None)
def test_hom_dimensions_decide_isomorphism_over_one_generator(pair):
    m, n = pair
    assert not validate_module(m) and not validate_module(n)
    assume(m.p ** hom_dim(m, n) <= 2**16)
    # cap 0: no search runs, so no cap is met
    memo.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modules, "ISO_CAP", 0)
        assert is_isomorphic(m, n).isomorphic == searched_isomorphic(m, n)


def test_p3_doc_modules_of_two_seeds_are_isomorphic_exactly_when_their_jordan_types_agree():
    """Every equal-dimensional pair of the seed-11 and seed-12 universes, whose
    modules are random conjugates of the Jordan types their labels name, is
    decided, also where dim Hom reaches 64."""
    first, second = (parse_document(_p3doc().generate(seed)).universes["U"] for seed in (11, 12))
    pairs = [(m, n) for m in first for n in second if m.dim == n.dim]
    assert len(pairs) == 268
    assert all(is_isomorphic(m, n).isomorphic == (m.label == n.label) for m, n in pairs)


def test_extension_split_only_for_zero(a2):
    t = a2.t_universe
    res = extension_middle_terms(t["P"], zero_module(a2.t))
    assert len(res.middle_terms) == 1
    assert is_isomorphic(res.middle_terms[0], t["P"]).isomorphic


def test_extensions_of_simples(a2):
    t = a2.t_universe
    # 0 -> S_S -> E -> S_R -> 0 has the split N and the nonsplit P
    res = extension_middle_terms(t["S_R"], t["S_S"])
    assert not res.truncated
    assert len(res.middle_terms) == 2
    found = {"N": False, "P": False}
    for e in res.middle_terms:
        for name in found:
            if is_isomorphic(e, t[name]).isomorphic:
                found[name] = True
    assert all(found.values())
    # the first enumerated class is the split one
    assert is_isomorphic(res.middle_terms[0], t["N"]).isomorphic
    # the other direction only splits
    res = extension_middle_terms(t["S_S"], t["S_R"])
    assert len(res.middle_terms) == 1
    assert is_isomorphic(res.middle_terms[0], t["N"]).isomorphic


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_middle_term_per_extension_class(p, monkeypatch):
    # over F_p[x]/(x^2), Ext(k, k) has dimension 1 and Ext(k, k + k) dimension 2
    alg = dual_numbers_algebra(p)
    k = ModuleRep(alg, LEFT, 1, [[[1]], [[0]]], label="k")
    kk = direct_sum([k, k])
    regular = regular_module(alg)
    for n, ext_dim in ((k, 1), (kk, 2)):
        res = extension_middle_terms(k, n)
        assert not res.truncated
        assert len(res.middle_terms) == p**ext_dim
        # a cap keeps the first classes in the same order
        memo.clear()
        with monkeypatch.context() as patch:
            patch.setattr(modules, "EXT_CAP", p)
            capped = extension_middle_terms(k, n)
        assert capped.truncated == (ext_dim > 1)
        assert capped.middle_terms == res.middle_terms[:p]
        split, *non_split = res.middle_terms
        assert split == direct_sum([n, k])
        assert all(not is_isomorphic(e, split).isomorphic for e in non_split)
        if n is k:
            # every non-split class has the regular module as its middle term,
            # and each class keeps its own copy
            assert all(is_isomorphic(e, regular).isomorphic for e in non_split)


def jordan_module(alg, parts):
    """The F_3[x]/(x^3)-module whose x has Jordan blocks of the given sizes, in a mixed basis.

    Conjugating by a unitriangular matrix with nonzero entries above the
    diagonal makes the Hom systems dense, as a seeded document's are.
    """
    dim = sum(parts)
    x = np.zeros((dim, dim), dtype=np.int64)
    start = 0
    for a in parts:
        for i in range(start, start + a - 1):
            x[i + 1, i] = 1
        start += a
    g = np.triu((np.arange(dim)[:, None] + 2 * np.arange(dim)) % 3 + 1)
    xm = inverse(3, g) @ x % 3 @ g % 3
    label = "J" + "".join(map(str, parts))
    action = np.array([np.eye(dim, dtype=np.int64), xm, xm @ xm % 3])
    return ModuleRep(alg, "left", dim, action, label=label)


@pytest.mark.parametrize(
    "a, b",
    [((3, 3, 2), (3, 3, 2)), ((3, 3, 2), (2, 2, 2, 2)), ((1,), (3, 2, 1, 1, 1)), ((2, 1, 1), (3, 1))],
)
def test_hom_dim_of_jordan_modules_matches_closed_form(a, b):
    """dim Hom(+J_a_i, +J_b_j) = sum_i sum_j min(a_i, b_j); 8 by 8 is a 192 x 64 system."""
    mul = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3 - i):
            mul[i, j, i + j] = 1
    alg = FDAlgebra(3, mul, [1, 0, 0], label="F_3[x]/(x^3)")
    m, n = jordan_module(alg, a), jordan_module(alg, b)
    assert not validate_module(m) and not validate_module(n)
    assert hom_dim(m, n) == sum(min(i, j) for i in a for j in b)
    assert all(ModuleMap(m, n, h).is_valid() for h in hom_space(m, n))


# -- content-key equality ----------------------------------------------------------

# Entries pack as uint8 up to p = 256 and as uint32 above; 256 % p is a residue
# a uint8 packing would wrap onto 0.
KEY_MODULI = [2, 3, 257, 16777213]
KEY_KINDS = ["algebra", "module", "map", "comma"]


def _key_shapes(kind, dims):
    d = dims[0]
    shapes = [(d, d, d), (d,)]
    if kind == "module":
        (n,) = dims[1:]
        shapes += [(d, n, n)]
    elif kind == "map":
        ns, nt = dims[1:]
        shapes += [(d, ns, ns), (d, nt, nt), (nt, ns)]
    elif kind == "comma":
        du, na, nb = dims[1:]
        shapes += [(d, du, du), (d, du, du), (d, na, na), (d, nb, nb), (nb, du * na)]
    return shapes


def _build(kind, p, side, dims, arrays, label):
    """A value of ``kind`` from its shapes and entries (no module laws checked)."""

    alg = FDAlgebra(p, arrays[0], arrays[1], label=label)
    if kind == "algebra":
        return alg
    if kind == "module":
        return ModuleRep(alg, side, dims[1], arrays[2], label=label)
    if kind == "map":
        src = ModuleRep(alg, side, dims[1], arrays[2], label=label)
        tgt = ModuleRep(alg, side, dims[2], arrays[3], label=label)
        return ModuleMap(src, tgt, arrays[4])
    du, na, nb = dims[1:]
    u = Bimodule(alg, alg, du, arrays[2], arrays[3], label=label)
    a = ModuleRep(alg, LEFT, na, arrays[4], label=label)
    b = ModuleRep(alg, LEFT, nb, arrays[5], label=label)
    return CommaObject(u, a, b, arrays[6], label=label)


@st.composite
def _raw_value(draw, kind):
    p = draw(st.sampled_from(KEY_MODULI))
    side = draw(st.sampled_from([LEFT, RIGHT])) if kind in ("module", "map") else LEFT
    dims = tuple(draw(st.integers(0, 2)) for _ in range(KEY_KINDS.index(kind) + 1))
    residues = st.sampled_from(sorted({0, 1, 256 % p, p - 1}))
    arrays = []
    for shape in _key_shapes(kind, dims):
        size = int(np.prod(shape))
        entries = draw(st.lists(residues, min_size=size, max_size=size))
        arrays.append(np.array(entries, dtype=np.int64).reshape(shape))
    return p, side, dims, arrays


@st.composite
def _raw_pair(draw, kind):
    """Two values of ``kind``: equal entries, one entry moved by 256 (or 1) mod
    p, or drawn independently (other modulus, shapes and sides included)."""
    x = draw(_raw_value(kind))
    mode = draw(st.sampled_from(["copy", "tweak", "fresh"]))
    if mode == "fresh":
        return x, draw(_raw_value(kind))
    p, side, dims, arrays = x
    arrays = [a.copy() for a in arrays]
    filled = [i for i, a in enumerate(arrays) if a.size]
    if mode == "tweak" and filled:
        flat = arrays[draw(st.sampled_from(filled))].reshape(-1)
        j = draw(st.integers(0, flat.size - 1))
        flat[j] = (flat[j] + (256 if 256 % p else 1)) % p
    return x, (p, side, dims, arrays)


def _arrays_equal(xs, ys):
    return xs.shape == ys.shape and np.array_equal(xs, ys)


def _reference_equal(x, y):
    """Component-wise equality, array_equal on every matrix, labels ignored."""
    if isinstance(x, FDAlgebra):
        return (
            x.p == y.p
            and x.dim == y.dim
            and np.array_equal(x.mul, y.mul)
            and np.array_equal(x.unit, y.unit)
        )
    if isinstance(x, Bimodule):
        return (
            _reference_equal(x.s_algebra, y.s_algebra)
            and _reference_equal(x.r_algebra, y.r_algebra)
            and x.dim == y.dim
            and _arrays_equal(x.left_action, y.left_action)
            and _arrays_equal(x.right_action, y.right_action)
        )
    if isinstance(x, ModuleRep):
        return (
            _reference_equal(x.algebra, y.algebra)
            and x.side == y.side
            and x.dim == y.dim
            and _arrays_equal(x.action, y.action)
        )
    if isinstance(x, ModuleMap):
        return (
            _reference_equal(x.source, y.source)
            and _reference_equal(x.target, y.target)
            and _arrays_equal(x.matrix, y.matrix)
        )
    return (
        _reference_equal(x.bimodule, y.bimodule)
        and _reference_equal(x.A, y.A)
        and _reference_equal(x.B, y.B)
        and _arrays_equal(x.phi, y.phi)
    )


@pytest.mark.parametrize("kind", KEY_KINDS)
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_content_key_equality_matches_componentwise_reference(kind, data):
    raw_x, raw_y = data.draw(_raw_pair(kind))
    x, y = _build(kind, *raw_x, label="x"), _build(kind, *raw_y, label="y")
    same = _reference_equal(x, y)
    assert (x == y) is same and (y == x) is same
    if same:
        assert hash(x) == hash(y)
    relabelled = _build(kind, *raw_x, label="relabelled")
    assert relabelled == x and hash(relabelled) == hash(x)


def test_content_keys_tell_shapes_apart():
    # over the zero algebra every module has no action matrices, so only the
    # dimension tells a 0-dimensional module from a 2-dimensional one
    zero_alg = FDAlgebra(2, np.zeros((0, 0, 0), dtype=np.int64), [])
    m0, m2 = ModuleRep(zero_alg, LEFT, 0, []), ModuleRep(zero_alg, LEFT, 2, [])
    assert m0 != m2
    assert ModuleMap(m0, m2, [[], []]) != ModuleMap(m2, m0, [])
    # equal residues over different moduli
    assert field_algebra(2) != field_algebra(3)


def test_memoized_hom_space_keeps_the_labels_of_the_first_call(a2):
    m, n = a2.t_universe["P"], a2.t_universe["N"]
    first = hom_space(m, n)
    m2 = m.relabel("P-copy")
    assert m2 == m and m2.label != m.label
    assert hom_space(m2, n) is first
    # a table that returns a module keeps the labels of the first call's arguments
    k = a2.r_universe["k"]
    tensor = tensor_over(a2.t.u, k)
    again = tensor_over(a2.t.u, k.relabel("k-copy"))
    assert again is tensor and again.module.label == f"U*{k.label}"


# -- the module law, checked at once -----------------------------------------------


def expand(p, dim, action, coeffs):
    """Reference: sum_k coeffs[k] action[k], scaled and added one term at a time
    (the loop ``ModuleRep.act`` was)."""
    out = np.zeros((dim, dim), dtype=np.int64)
    for k, c in enumerate(np.asarray(coeffs, dtype=np.int64)):
        if c % p:
            out = (out + action[k] * int(c) % p) % p
    return out


def _eq_mod(p, a, b):
    """a = b mod p."""
    return np.array_equal(a % p, b % p)


def looped_validate_module(m):
    """Reference: ``validate_module`` as one check per pair of basis elements."""
    violations = []
    p, alg, action = m.p, m.algebra, m.action
    if not _eq_mod(p, expand(p, m.dim, action, alg.unit), np.eye(m.dim, dtype=np.int64)):
        violations.append({"kind": "unit-action"})
    for i in range(alg.dim):
        for j in range(alg.dim):
            coeffs = alg.mul[i, j, :] if m.side == LEFT else alg.mul[j, i, :]
            if not _eq_mod(p, action[i] @ action[j], expand(p, m.dim, action, coeffs)):
                violations.append({"kind": "composition", "pair": [i, j]})
    return violations


def looped_validate_bimodule(u):
    """Reference: ``validate_bimodule`` as one check per pair of basis elements."""
    violations = []
    p, s, r = u.p, u.s_algebra, u.r_algebra
    left, right = u.left_action, u.right_action
    if not _eq_mod(p, expand(p, u.dim, left, s.unit), np.eye(u.dim, dtype=np.int64)):
        violations.append({"kind": "left-unit"})
    if not _eq_mod(p, expand(p, u.dim, right, r.unit), np.eye(u.dim, dtype=np.int64)):
        violations.append({"kind": "right-unit"})
    for i in range(s.dim):
        for j in range(s.dim):
            if not _eq_mod(p, left[i] @ left[j], expand(p, u.dim, left, s.mul[i, j, :])):
                violations.append({"kind": "left-composition", "pair": [i, j]})
    for i in range(r.dim):
        for j in range(r.dim):
            if not _eq_mod(p, right[i] @ right[j], expand(p, u.dim, right, r.mul[j, i, :])):
                violations.append({"kind": "right-composition", "pair": [i, j]})
    for i in range(s.dim):
        for j in range(r.dim):
            if not _eq_mod(p, left[i] @ right[j], right[j] @ left[i]):
                violations.append({"kind": "actions-commute", "pair": [i, j]})
    return violations


def looped_violated_intertwining(f):
    """Reference: ``violated_intertwining`` as one check per basis element."""
    p, source, target = f.source.p, f.source.action, f.target.action
    return [i for i in range(f.source.algebra.dim) if not _eq_mod(p, target[i] @ f.matrix, f.matrix @ source[i])]


def looped_validate_comma(c):
    """Reference: ``validate_comma`` with one check per balancing relation and per basis element of S."""
    violations = [{"kind": f"component-{name}", "detail": v}
                  for name, comp in (("A", c.A), ("B", c.B)) for v in looped_validate_module(comp)]
    u, p = c.bimodule, c.p
    gens = balancing_generators(bimodule_as_right_module(u), c.A)
    bad = [j for j in range(gens.shape[1]) if (c.phi @ gens[:, j : j + 1] % p).any()]
    if bad:
        violations.append({"kind": "phi-balance", "relations": bad})
    ia = np.eye(c.A.dim, dtype=np.int64)
    for i in range(u.s_algebra.dim):
        if not _eq_mod(p, c.phi @ np.kron(u.left_action[i], ia), c.B.action[i] @ c.phi):
            violations.append({"kind": "phi-linearity", "basis": i})
    return violations


def looped_validate_right_t(rt):
    """Reference: ``validate_right_t`` with one psi-linearity check per basis element of R."""
    violations = [{"kind": f"component-{name}", "detail": v}
                  for name, comp in (("X", rt.X), ("Y", rt.Y)) for v in looped_validate_module(comp)]
    u, p = rt.bimodule, rt.p
    gens = balancing_generators(rt.Y, bimodule_as_left_module(u))
    if gens.shape[1] and (rt.psi @ gens % p).any():
        violations.append({"kind": "psi-balance"})
    iy = np.eye(rt.Y.dim, dtype=np.int64)
    for i in range(u.r_algebra.dim):
        if not _eq_mod(p, rt.psi @ np.kron(iy, u.right_action[i]), rt.X.action[i] @ rt.psi):
            violations.append({"kind": "psi-linearity", "basis": i})
    return violations


def looped_non_invariant_index(m, sub):
    """Reference: the first basis element that moves the span of ``sub`` out of
    itself, or None, by the loop ``quotient_module`` was."""
    p = m.p
    proj, _ = quotient_space(p, m.dim, sub)
    return next((i for i in range(m.algebra.dim) if (proj @ (m.action[i] @ sub % p) % p).any()), None)


def _regular_bimodule(alg):
    return Bimodule(alg, alg, alg.dim, alg.mul.transpose(0, 2, 1), alg.mul.transpose(1, 2, 0))


@functools.lru_cache(maxsize=None)
def _law_cases():
    """Modules, bimodules, comma objects and right T-modules over a2, dual numbers
    (also at p = 16777213, where an unreduced product of two products overflows
    int64) and F_3[x]/(x^3)."""
    a2, dual = load_fixture("a2"), load_fixture("dual-numbers")
    p3 = parse_document(_p3doc().generate(11))
    big = dual_numbers_algebra(16777213)
    algebras = [a2.t, dual.t.r, dual.t, p3.algebras["A"], big]
    modules = [
        *a2.t_universe_list(), *a2.r_universe_list(), *a2.s_universe_list(),
        *dual.t_universe_list(), *dual.r_universe_list(), *dual.s_universe_list(),
        *p3.modules.values(),
        *(regular_module(alg, side) for alg in algebras for side in (LEFT, RIGHT)),
    ]
    commas = [*a2.comma_universe.values(), *dual.comma_universe.values()]
    right_ts = [*a2.right_t_universe.values(), *dual.right_t_universe.values()]
    return modules, [a2.t.u, dual.t.u, *map(_regular_bimodule, algebras)], commas, right_ts


def _perturbed(data, p, array):
    """A copy of ``array`` with up to three entries set to drawn residues."""
    out = np.array(array)
    flat = out.reshape(-1)
    for _ in range(data.draw(st.integers(0, 3)) if flat.size else 0):
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.integers(0, p - 1))
    return out


def test_map_between_algebras_or_sides_is_rejected():
    r, s = dual_numbers_algebra(2, "R"), field_algebra(2, "S")
    # before the check, this map validated: the zero module's stack broadcasts
    with pytest.raises(AlgebraMismatch):
        ModuleMap(zero_module(r), regular_module(s), np.zeros((1, 0), dtype=np.int64))
    with pytest.raises(AlgebraMismatch):
        ModuleMap(regular_module(r, LEFT), regular_module(r, RIGHT), np.eye(2, dtype=np.int64))


def _perturbed_module(data, m):
    return ModuleRep(m.algebra, m.side, m.dim, _perturbed(data, m.p, m.action), label=m.label)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_module_law_matches_looped_check(data):
    modules, bimodules, commas, right_ts = _law_cases()
    original = data.draw(st.sampled_from(modules))
    m = _perturbed_module(data, original)
    assert validate_module(m) == looped_validate_module(m)
    coeffs = data.draw(st.lists(st.integers(0, m.p - 1), min_size=m.algebra.dim, max_size=m.algebra.dim))
    assert np.array_equal(m.act(coeffs), expand(m.p, m.dim, m.action, coeffs))
    f = ModuleMap(original, m, _perturbed(data, m.p, np.eye(m.dim, dtype=np.int64)))
    assert violated_intertwining(f) == looped_violated_intertwining(f)
    sub = fp_array(m.p, _perturbed(data, m.p, np.eye(m.dim, dtype=np.int64)[:, : data.draw(st.integers(0, m.dim))]))
    moved = looped_non_invariant_index(m, sub)
    if moved is None:
        quotient_module(m, sub)
    else:
        with pytest.raises(ValueError, match=f"basis element {moved}$"):
            quotient_module(m, sub)
    u = data.draw(st.sampled_from(bimodules))
    actions = _perturbed(data, u.p, np.concatenate([u.left_action, u.right_action]))
    d = u.s_algebra.dim
    u = Bimodule(u.s_algebra, u.r_algebra, u.dim, actions[:d], actions[d:])
    assert validate_bimodule(u) == looped_validate_bimodule(u)
    c = data.draw(st.sampled_from(commas))
    phi = _perturbed(data, c.p, c.phi)
    c = CommaObject(c.bimodule, _perturbed_module(data, c.A), _perturbed_module(data, c.B), phi)
    assert validate_comma(c) == looped_validate_comma(c)
    rt = data.draw(st.sampled_from(right_ts))
    psi = _perturbed(data, rt.p, rt.psi)
    rt = RightTModule(rt.bimodule, _perturbed_module(data, rt.X), _perturbed_module(data, rt.Y), psi)
    assert validate_right_t(rt) == looped_validate_right_t(rt)


def test_every_action_is_a_frozen_reduced_stack():
    """Every module and bimodule of the fixtures and of the p3 documents holds
    its action as one read-only int64 stack of the right shape, reduced mod p;
    so does every presentation's sigma and witness matrix, every phi of a comma
    object and every psi of a right T-module, as a 2-d array."""
    values = []
    for name in fixture_names():
        fx = load_fixture(name)
        values += [fx.t.u, *fx.r_universe_list(), *fx.s_universe_list(), *fx.t_universe_list()]
        values += [m for c in fx.comma_universe.values() for m in (c, c.A, c.B)]
        values += [m for rt in fx.right_t_universe.values() for m in (rt, rt.X, rt.Y)]
        values += [m for pres in fx.presentations.values()
                   for m in (pres.sigma, pres.witness, pres.sigma.source, pres.sigma.target, pres.target)]
    for seed in (11, 12):
        doc = parse_document(_p3doc().generate(seed))
        values += [*doc.modules.values(), *(t.u for t in doc.triangulars.values()), *doc.comma_objects.values()]
        values += [m for pres in doc.presentations.values() for m in (pres.sigma, pres.witness)]
    assert len(values) > 100
    assert {type(v) for v in values} == {Bimodule, ModuleRep, ModuleMap, CommaObject, RightTModule}
    for v in values:
        if isinstance(v, Bimodule):
            arrays = [(v.left_action, (v.s_algebra.dim, v.dim, v.dim)),
                      (v.right_action, (v.r_algebra.dim, v.dim, v.dim))]
        elif isinstance(v, ModuleRep):
            arrays = [(v.action, (v.algebra.dim, v.dim, v.dim))]
        elif isinstance(v, ModuleMap):
            arrays = [(v.matrix, (v.target.dim, v.source.dim))]
        elif isinstance(v, CommaObject):
            arrays = [(v.phi, (v.B.dim, v.bimodule.dim * v.A.dim))]
        else:
            arrays = [(v.psi, (v.X.dim, v.Y.dim * v.bimodule.dim))]
        p = v.source.p if isinstance(v, ModuleMap) else v.p
        for array, shape in arrays:
            assert isinstance(array, np.ndarray) and array.dtype == np.int64
            assert array.shape == shape
            assert not array.flags.writeable
            assert ((0 <= array) & (array < p)).all()

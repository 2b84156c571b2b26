import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commacat.algebra import Bimodule, FDAlgebra, dual_numbers_algebra, field_algebra, validate_bimodule
from commacat.comma import CommaObject, RightTModule, validate_comma, validate_right_t
from commacat.document import parse_document
from commacat.fixtures import fixture_names, load_fixture
from commacat.linalg import FpMatrix, enumerate_vectors, inverse, kron, quotient_space, rank
from commacat.modules import (
    LEFT,
    RIGHT,
    IsoResult,
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
    image_kernel_cokernel,
    is_isomorphic,
    module_dual,
    quotient_module,
    regular_module,
    submodule,
    tensor_map,
    tensor_over,
    trace_of,
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
    cols_e11 = FpMatrix(2, [[1, 0], [0, 1], [0, 0]])
    cols_e22 = FpMatrix(2, [[0], [0], [1]])
    from commacat.modules import submodule

    p1, _ = submodule(treg, cols_e11)
    p2, _ = submodule(treg, cols_e22)
    assert is_isomorphic(p1, a2.t_universe["P"]).isomorphic
    assert is_isomorphic(p2, a2.t_universe["S_S"]).isomorphic
    total = direct_sum([p1, p2]).module
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
                    assert all(ModuleMap(x, y, FpMatrix(fx.p, h)).is_valid() for h in basis)


def test_hom_additivity(a2):
    t = list(a2.t_universe.values())
    for m in t:
        for n1 in t:
            for n2 in t:
                s = direct_sum([n1, n2], algebra=a2.t).module
                assert hom_dim(m, s) == hom_dim(m, n1) + hom_dim(m, n2)
                assert hom_dim(s, m) == hom_dim(n1, m) + hom_dim(n2, m)


@pytest.mark.parametrize("name", ["a2", "dual-numbers"])
def test_hom_coords_recovers_coefficients(name, a2, dual):
    fx = a2 if name == "a2" else dual
    rng = np.random.default_rng(0)
    p = fx.p
    for universe in (fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()):
        for m in universe:
            for n in universe:
                basis = hom_space(m, n)
                c = rng.integers(0, p, size=(len(basis), 3))
                mats = [FpMatrix.zeros(p, n.dim, m.dim) for _ in range(3)]
                for i, b in enumerate(basis):
                    mats = [x + FpMatrix(p, b * int(c[i, j])) for j, x in enumerate(mats)]
                got = hom_coords(p, basis, np.stack([x.array() for x in mats]))
                assert got == FpMatrix(p, c.reshape(len(basis), 3))


def test_hom_coords_empty_basis_accepts_only_zero(a2):
    t = a2.t_universe
    basis = hom_space(t["S_S"], t["S_R"])
    assert basis.shape == (0, 1, 1)
    assert hom_coords(a2.p, basis, np.zeros((2, 1, 1), dtype=np.int64)) == FpMatrix.zeros(a2.p, 0, 2)
    with pytest.raises(AssertionError):
        hom_coords(a2.p, basis, np.array([[[0]], [[1]]]))


def test_submodule_rejects_dependent_or_non_invariant_columns(a2):
    treg = regular_module(a2.t)
    e_r = FpMatrix(a2.p, [[1], [0], [0]])
    with pytest.raises(ValueError, match="independent"):
        submodule(treg, FpMatrix(a2.p, [[1, 1], [0, 0], [0, 0]]))
    # U moves e_R into e_U, so the span of e_R alone is not a submodule
    assert FpMatrix(a2.p, treg.action[1] @ e_r.array()) == FpMatrix(a2.p, [[0], [1], [0]])
    with pytest.raises(ValueError, match="not invariant"):
        submodule(treg, e_r)


def test_direct_sum_empty_and_unit(a2):
    z = direct_sum([], algebra=a2.t).module
    assert z.dim == 0
    m = a2.t_universe["P"]
    s = direct_sum([m, zero_module(a2.t)]).module
    assert is_isomorphic(s, m).isomorphic


def test_direct_sum_maps_compose_to_identity(a2):
    m, n = a2.t_universe["S_R"], a2.t_universe["S_S"]
    ds = direct_sum([m, n])
    for inj, proj in zip(ds.injections, ds.projections):
        assert inj.is_valid() and proj.is_valid()
        assert (proj.matrix @ inj.matrix) == FpMatrix.identity(2, inj.source.dim)


def test_image_kernel_cokernel_identity_and_zero(a2):
    m = a2.t_universe["P"]
    from commacat.modules import identity_map, zero_map

    ikc = image_kernel_cokernel(identity_map(m))
    assert ikc.image.dim == m.dim and ikc.kernel.dim == 0 and ikc.cokernel.dim == 0
    ikc = image_kernel_cokernel(zero_map(m, m))
    assert ikc.image.dim == 0 and ikc.kernel.dim == m.dim and ikc.cokernel.dim == m.dim


def test_kernel_of_projective_cover_is_socle(a2):
    t = a2.t_universe
    epi = ModuleMap(t["P"], t["S_R"], FpMatrix(2, [[1, 0]]))
    assert epi.is_valid()
    ikc = image_kernel_cokernel(epi)
    assert ikc.image.dim == 1
    assert is_isomorphic(ikc.kernel, t["S_S"]).isomorphic


def test_tensor_zero_bimodule(dual):
    from commacat.algebra import Bimodule

    s, r = dual.s, dual.r
    zero_u = Bimodule(s, r, 0, np.zeros((1, 0, 0), dtype=np.int64), np.zeros((2, 0, 0), dtype=np.int64))
    res = tensor_over(zero_u, dual.r_universe["R"])
    assert res.module.dim == 0


def test_tensor_k_over_k(a2):
    res = tensor_over(a2.u, a2.r_universe["k"])
    assert res.module.dim == 1


def test_tensor_balancing_kills_radical(dual):
    # U (x)_R R: the balancing relation kills u (x) x
    res = tensor_over(dual.u, dual.r_universe["R"])
    assert res.module.dim == 1
    # and U (x)_R k is one-dimensional too
    assert tensor_over(dual.u, dual.r_universe["k"]).module.dim == 1


def test_tensor_map_functorial(dual):
    r_univ = dual.r_universe
    from commacat.modules import compose, identity_map

    f = identity_map(r_univ["R"])
    tf = tensor_map(dual.u, f)
    assert tf.matrix == FpMatrix.identity(2, 1)
    # zero map tensors to zero
    z = ModuleMap(r_univ["R"], r_univ["k"], FpMatrix.zeros(2, 1, 2))
    assert tensor_map(dual.u, z).matrix.is_zero()
    # composition: (g . h) tensors to the composition, for h multiplication by 1 + x
    h = ModuleMap(r_univ["R"], r_univ["R"], FpMatrix(2, [[1, 0], [1, 1]]))
    g = ModuleMap(r_univ["R"], r_univ["k"], FpMatrix(2, [[1, 0]]))
    assert g.is_valid() and h.is_valid()
    lhs = tensor_map(dual.u, compose(g, h))
    assert lhs.matrix == tensor_map(dual.u, g).matrix @ tensor_map(dual.u, h).matrix


def test_tensor_right_exactness(dual):
    # for every epi among hom-space elements, the tensored map is epi
    univ = list(dual.r_universe.values())
    for m in univ:
        for n in univ:
            for h in hom_space(m, n):
                if rank(FpMatrix(dual.p, h)) != n.dim:
                    continue
                th = tensor_map(dual.u, ModuleMap(m, n, FpMatrix(dual.p, h)))
                assert rank(th.matrix) == th.target.dim


def test_trace_examples(a2):
    t = a2.t_universe
    sub, inc = trace_of([t["P"]], t["S_S"])
    assert sub.dim == 0
    sub, inc = trace_of([t["P"]], t["S_R"])
    assert sub.dim == 1
    sub, inc = trace_of([t["P"]], t["P"])
    assert sub.dim == 2
    assert inc.is_valid()


def test_trace_idempotent_and_monotone(a2):
    t = list(a2.t_universe.values())
    gens = [a2.t_universe["P"], a2.t_universe["S_S"]]
    for m in t:
        sub, inc = trace_of(gens, m)
        assert sub.dim <= m.dim
        again, _ = trace_of(gens, sub)
        assert again.dim == sub.dim


def test_gen_member_examples(a2):
    t = a2.t_universe
    assert gen_member(t["P"], t["P"])
    assert not gen_member(t["P"], t["S_S"])
    treg = regular_module(a2.t)
    for m in t.values():
        assert gen_member(treg, m)
    assert not gen_member(t["S_R"], t["P"])
    assert trace_of([t["S_R"]], t["P"])[0].dim == 0


def test_gen_member_matches_epi_oracle(a2):
    t = list(a2.t_universe.values())
    for g in t:
        for x in t:
            assert gen_member(g, x) == gen_member_epi_oracle(g, x)


def test_is_isomorphic_basic(a2):
    t = a2.t_universe
    res = is_isomorphic(t["P"], t["P"])
    assert res.isomorphic and res.witness.is_valid()
    assert not is_isomorphic(t["P"], t["S_R"]).isomorphic
    assert not is_isomorphic(t["N"], t["P"]).isomorphic


def test_is_isomorphic_cap(a2):
    from commacat.modules import IsoSearchCapExceeded

    treg = regular_module(a2.t)
    big = direct_sum([treg] * 5).module
    with pytest.raises(IsoSearchCapExceeded):
        is_isomorphic(big, big, cap=2)


def exhaustive_is_isomorphic(m, n, cap=16):
    """Reference: the search without the Hom-dimension prefilter, one
    scale-and-add combination and one rank at a time."""
    if m.dim != n.dim:
        return IsoResult(False, None)
    if m.dim == 0:
        return IsoResult(True, ModuleMap(m, n, FpMatrix.zeros(m.p, 0, 0)))
    basis = hom_space(m, n)
    h = len(basis)
    if h == 0:
        return IsoResult(False, None)
    if h > cap:
        raise IsoSearchCapExceeded(f"hom space dimension {h} exceeds cap {cap}")
    for coeffs in enumerate_vectors(m.p, h):
        mat = FpMatrix.zeros(m.p, n.dim, m.dim)
        for c, b in zip(coeffs, basis):
            if c:
                mat = mat + FpMatrix(m.p, b * c)
        if rank(mat) == m.dim:
            return IsoResult(True, ModuleMap(m, n, mat))
    return IsoResult(False, None)


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
            expected = exhaustive_is_isomorphic(m, n)
            got = is_isomorphic(m, n)
            assert got.isomorphic == expected.isomorphic, (m, n)
            if expected.isomorphic:
                positive += 1
                assert got.witness.matrix == expected.witness.matrix
                assert got.witness.source == m and got.witness.target == n
            checked += 1
    assert positive and checked > positive


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
def test_one_middle_term_per_extension_class(p):
    # over F_p[x]/(x^2), Ext(k, k) has dimension 1 and Ext(k, k + k) dimension 2
    alg = dual_numbers_algebra(p)
    k = ModuleRep(alg, LEFT, 1, [[[1]], [[0]]], label="k")
    kk = direct_sum([k, k]).module
    regular = regular_module(alg)
    for n, ext_dim in ((k, 1), (kk, 2)):
        res = extension_middle_terms(k, n)
        assert not res.truncated
        assert len(res.middle_terms) == p**ext_dim
        # a cap keeps the first classes in the same order
        capped = extension_middle_terms(k, n, cap=p)
        assert capped.truncated == (ext_dim > 1)
        assert capped.middle_terms == res.middle_terms[:p]
        split, *non_split = res.middle_terms
        assert split == direct_sum([n, k]).module
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
    g = FpMatrix(3, np.triu((np.arange(dim)[:, None] + 2 * np.arange(dim)) % 3 + 1))
    xm = inverse(g) @ FpMatrix(3, x) @ g
    label = "J" + "".join(map(str, parts))
    action = np.array([np.eye(dim, dtype=np.int64), xm.array(), (xm @ xm).array()])
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
    assert all(ModuleMap(m, n, FpMatrix(3, h)).is_valid() for h in hom_space(m, n))


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
        return ModuleMap(src, tgt, FpMatrix(p, arrays[4]))
    du, na, nb = dims[1:]
    u = Bimodule(alg, alg, du, arrays[2], arrays[3], label=label)
    a = ModuleRep(alg, LEFT, na, arrays[4], label=label)
    b = ModuleRep(alg, LEFT, nb, arrays[5], label=label)
    return CommaObject(u, a, b, FpMatrix(p, arrays[6]), label=label)


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


def _matrices_equal(xs, ys):
    return len(xs) == len(ys) and all(
        a.p == b.p and np.array_equal(a.array(), b.array()) for a, b in zip(xs, ys)
    )


def _stacks_equal(xs, ys):
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
            and _stacks_equal(x.left_action, y.left_action)
            and _stacks_equal(x.right_action, y.right_action)
        )
    if isinstance(x, ModuleRep):
        return (
            _reference_equal(x.algebra, y.algebra)
            and x.side == y.side
            and x.dim == y.dim
            and _stacks_equal(x.action, y.action)
        )
    if isinstance(x, ModuleMap):
        return (
            _reference_equal(x.source, y.source)
            and _reference_equal(x.target, y.target)
            and _matrices_equal([x.matrix], [y.matrix])
        )
    return (
        _reference_equal(x.bimodule, y.bimodule)
        and _reference_equal(x.A, y.A)
        and _reference_equal(x.B, y.B)
        and _matrices_equal([x.phi], [y.phi])
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
    assert ModuleMap(m0, m2, FpMatrix.zeros(2, 2, 0)) != ModuleMap(m2, m0, FpMatrix.zeros(2, 0, 2))
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
    tensor = tensor_over(a2.u, k)
    again = tensor_over(a2.u, k.relabel("k-copy"))
    assert again is tensor and again.module.label == f"U*{k.label}"


# -- the module law, checked at once -----------------------------------------------


def expand(p, dim, action, coeffs):
    """Reference: sum_k coeffs[k] action[k], scaled and added one term at a time
    (the loop ``ModuleRep.act`` was)."""
    out = FpMatrix.zeros(p, dim, dim)
    for k, c in enumerate(np.asarray(coeffs, dtype=np.int64)):
        if c % p:
            out = out + FpMatrix(p, action[k] * int(c))
    return out


def _mats(p, stack):
    """A stack of action matrices as one FpMatrix per basis element."""
    return [FpMatrix(p, a) for a in stack]


def looped_validate_module(m):
    """Reference: ``validate_module`` as one check per pair of basis elements."""
    violations = []
    alg, action = m.algebra, _mats(m.p, m.action)
    if expand(m.p, m.dim, m.action, alg.unit) != FpMatrix.identity(m.p, m.dim):
        violations.append({"kind": "unit-action"})
    for i in range(alg.dim):
        for j in range(alg.dim):
            coeffs = alg.mul[i, j, :] if m.side == LEFT else alg.mul[j, i, :]
            if action[i] @ action[j] != expand(m.p, m.dim, m.action, coeffs):
                violations.append({"kind": "composition", "pair": [i, j]})
    return violations


def looped_validate_bimodule(u):
    """Reference: ``validate_bimodule`` as one check per pair of basis elements."""
    violations = []
    p, s, r = u.p, u.s_algebra, u.r_algebra
    left, right = _mats(p, u.left_action), _mats(p, u.right_action)
    if expand(p, u.dim, u.left_action, s.unit) != FpMatrix.identity(p, u.dim):
        violations.append({"kind": "left-unit"})
    if expand(p, u.dim, u.right_action, r.unit) != FpMatrix.identity(p, u.dim):
        violations.append({"kind": "right-unit"})
    for i in range(s.dim):
        for j in range(s.dim):
            if left[i] @ left[j] != expand(p, u.dim, u.left_action, s.mul[i, j, :]):
                violations.append({"kind": "left-composition", "pair": [i, j]})
    for i in range(r.dim):
        for j in range(r.dim):
            if right[i] @ right[j] != expand(p, u.dim, u.right_action, r.mul[j, i, :]):
                violations.append({"kind": "right-composition", "pair": [i, j]})
    for i in range(s.dim):
        for j in range(r.dim):
            if left[i] @ right[j] != right[j] @ left[i]:
                violations.append({"kind": "actions-commute", "pair": [i, j]})
    return violations


def looped_violated_intertwining(f):
    """Reference: ``violated_intertwining`` as one check per basis element."""
    source, target = _mats(f.matrix.p, f.source.action), _mats(f.matrix.p, f.target.action)
    return [i for i in range(f.source.algebra.dim) if target[i] @ f.matrix != f.matrix @ source[i]]


def looped_validate_comma(c):
    """Reference: ``validate_comma`` with one check per balancing relation and per basis element of S."""
    violations = [{"kind": f"component-{name}", "detail": v}
                  for name, comp in (("A", c.A), ("B", c.B)) for v in looped_validate_module(comp)]
    u = c.bimodule
    gens = balancing_generators(bimodule_as_right_module(u), c.A)
    bad = [j for j in range(gens.cols) if not (c.phi @ gens.block(0, gens.rows, j, j + 1)).is_zero()]
    if bad:
        violations.append({"kind": "phi-balance", "relations": bad})
    ia, left, b_action = FpMatrix.identity(c.p, c.A.dim), _mats(c.p, u.left_action), _mats(c.p, c.B.action)
    for i in range(u.s_algebra.dim):
        if c.phi @ kron(left[i], ia) != b_action[i] @ c.phi:
            violations.append({"kind": "phi-linearity", "basis": i})
    return violations


def looped_validate_right_t(rt):
    """Reference: ``validate_right_t`` with one psi-linearity check per basis element of R."""
    violations = [{"kind": f"component-{name}", "detail": v}
                  for name, comp in (("X", rt.X), ("Y", rt.Y)) for v in looped_validate_module(comp)]
    u = rt.bimodule
    gens = balancing_generators(rt.Y, bimodule_as_left_module(u))
    if gens.cols and not (rt.psi @ gens).is_zero():
        violations.append({"kind": "psi-balance"})
    iy, right, x_action = FpMatrix.identity(rt.p, rt.Y.dim), _mats(rt.p, u.right_action), _mats(rt.p, rt.X.action)
    for i in range(u.r_algebra.dim):
        if rt.psi @ kron(iy, right[i]) != x_action[i] @ rt.psi:
            violations.append({"kind": "psi-linearity", "basis": i})
    return violations


def looped_non_invariant_index(m, sub):
    """Reference: the first basis element that moves the span of ``sub`` out of
    itself, or None, by the loop ``quotient_module`` was."""
    proj, _ = quotient_space(m.p, m.dim, sub)
    action = _mats(m.p, m.action)
    return next((i for i in range(m.algebra.dim) if not (proj @ (action[i] @ sub)).is_zero()), None)


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
    algebras = [a2.t, dual.r, dual.t, p3.algebras["A"], big]
    modules = [
        *a2.t_universe_list(), *a2.r_universe_list(), *a2.s_universe_list(),
        *dual.t_universe_list(), *dual.r_universe_list(), *dual.s_universe_list(),
        *p3.modules.values(),
        *(regular_module(alg, side) for alg in algebras for side in (LEFT, RIGHT)),
    ]
    commas = [*a2.comma_universe.values(), *dual.comma_universe.values()]
    right_ts = [*a2.right_t_universe.values(), *dual.right_t_universe.values()]
    return modules, [a2.u, dual.u, *map(_regular_bimodule, algebras)], commas, right_ts


def _perturbed(data, p, array):
    """A copy of ``array`` with up to three entries set to drawn residues."""
    out = np.array(array)
    flat = out.reshape(-1)
    for _ in range(data.draw(st.integers(0, 3)) if flat.size else 0):
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.integers(0, p - 1))
    return out


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
    assert m.act(coeffs) == expand(m.p, m.dim, m.action, coeffs)
    f = ModuleMap(original, m, FpMatrix(m.p, _perturbed(data, m.p, np.eye(m.dim, dtype=np.int64))))
    assert violated_intertwining(f) == looped_violated_intertwining(f)
    sub = FpMatrix(m.p, _perturbed(data, m.p, np.eye(m.dim, dtype=np.int64)[:, : data.draw(st.integers(0, m.dim))]))
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
    phi = FpMatrix(c.p, _perturbed(data, c.p, c.phi.array()))
    c = CommaObject(c.bimodule, _perturbed_module(data, c.A), _perturbed_module(data, c.B), phi)
    assert validate_comma(c) == looped_validate_comma(c)
    rt = data.draw(st.sampled_from(right_ts))
    psi = FpMatrix(rt.p, _perturbed(data, rt.p, rt.psi.array()))
    rt = RightTModule(rt.bimodule, _perturbed_module(data, rt.X), _perturbed_module(data, rt.Y), psi)
    assert validate_right_t(rt) == looped_validate_right_t(rt)


def test_every_action_is_a_frozen_reduced_stack():
    """Every module and bimodule of the fixtures and of the p3 documents holds
    its action as one read-only int64 stack of the right shape, reduced mod p."""
    values = []
    for name in fixture_names():
        fx = load_fixture(name)
        values += [fx.u, *fx.r_universe_list(), *fx.s_universe_list(), *fx.t_universe_list()]
        values += [m for c in fx.comma_universe.values() for m in (c.A, c.B)]
        values += [m for rt in fx.right_t_universe.values() for m in (rt.X, rt.Y)]
        values += [m for pres in fx.presentations.values() for m in (pres.sigma.source, pres.sigma.target, pres.target)]
    for seed in (11, 12):
        doc = parse_document(_p3doc().generate(seed))
        values += [*doc.modules.values(), *doc.bimodules.values()]
    assert len(values) > 100
    for v in values:
        if isinstance(v, Bimodule):
            stacks = [(v.left_action, v.s_algebra.dim), (v.right_action, v.r_algebra.dim)]
        else:
            stacks = [(v.action, v.algebra.dim)]
        for stack, count in stacks:
            assert isinstance(stack, np.ndarray) and stack.dtype == np.int64
            assert stack.shape == (count, v.dim, v.dim)
            assert not stack.flags.writeable
            assert ((0 <= stack) & (stack < v.p)).all()

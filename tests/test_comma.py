import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commacat import comma
from commacat.algebra import Bimodule, dual_numbers_algebra, field_algebra, triangular_algebra
from commacat.comma import (
    CommaMap,
    CommaObject,
    RightTModule,
    comma_from_components,
    comma_is_isomorphic,
    comma_universe,
    components_key,
    family_membership,
    from_T_module,
    functor_h,
    functor_h_map,
    functor_p,
    functor_p_map,
    functor_q,
    h_unit,
    hom_comma,
    hom_comma_dim,
    hom_formula,
    hom_formula_applicable,
    p_counit,
    right_t_to_module,
    sigma_for_p,
    tensor_T,
    tensor_T_bruteforce,
    tensor_T_via_algebra,
    tensor_shape_predictions,
    tilde_phi,
    to_T_module,
    validate_comma,
    validate_right_t,
)
from commacat.fixtures import load_fixture
from commacat.linalg import (
    column_space_basis,
    combination_chunks,
    fp_array,
    intertwining_system,
    inverse,
    kernel_basis,
    rank,
)
from commacat.modules import (
    LEFT,
    ModuleMap,
    ModuleRep,
    _cocycle_system,
    balancing_generators,
    direct_sum,
    hom_dim,
    hom_space,
    is_isomorphic,
    module_dual,
    quotient_module,
    regular_module,
    submodule,
    tensor_over,
    validate_module,
    zero_module,
)
from commacat.presentations import validate_presentation
from commacat.torsion import family_all, family_explicit, family_gen, family_zero
from tests.maps import identity_map


@pytest.fixture(scope="module")
def a2():
    return load_fixture("a2")


@pytest.fixture(scope="module")
def dual():
    return load_fixture("dual-numbers")


def test_fixture_comma_objects_validate(a2, dual):
    for fx in (a2, dual):
        for c in fx.comma_universe.values():
            assert validate_comma(c) == []
        for rt in fx.right_t_universe.values():
            assert validate_right_t(rt) == []


def test_phi_balance_violation_detected(dual):
    # phi = id on the full space U (x) R does not vanish on balancing
    bad = CommaObject(dual.t.u, dual.r_universe["R"], dual.s_universe["k2"], [[1, 0], [0, 1]])
    kinds = {v["kind"] for v in validate_comma(bad)}
    assert "phi-balance" in kinds


def test_to_T_inflations(a2):
    t = a2.t
    b_only = to_T_module(comma_from_components(a2.t.u, b=a2.s_universe["k"]), t)
    assert validate_module(b_only) == []
    assert not b_only.action[0].any() and not b_only.action[1].any()
    a_only = to_T_module(comma_from_components(a2.t.u, a=a2.r_universe["k"]), t)
    assert validate_module(a_only) == []
    assert not a_only.action[1].any() and not a_only.action[2].any()


def test_to_T_projective_matches_regular_summand(a2):
    # P = (k, k, id) is the regular summand T e11
    treg = regular_module(a2.t)
    te11 = submodule(treg, fp_array(2, [[1, 0], [0, 1], [0, 0]]))
    assert is_isomorphic(a2.t_universe["P"], te11).isomorphic


def test_from_T_regular_decomposition(a2):
    res = from_T_module(regular_module(a2.t), a2.t)
    assert res.comma.A.dim == 1  # e_R slice is R = k
    assert res.comma.B.dim == 2  # e_S slice is U + S = k^2
    assert res.witness.is_valid()
    assert rank(a2.t.p, res.witness.matrix) == 3


def test_round_trip_all_fixtures(a2, dual):
    for fx in (a2, dual):
        for name, c in fx.comma_universe.items():
            m = to_T_module(c, fx.t)
            back = from_T_module(m, fx.t)
            assert back.witness.is_valid(), name
            assert rank(fx.t.p, back.witness.matrix) == m.dim, name
            assert comma_is_isomorphic(back.comma, c).isomorphic, name
        z = from_T_module(zero_module(fx.t), fx.t)
        assert z.comma.total_dim == 0


def comma_isomorphism(x, y):
    """Reference: the first comma map x -> y with both components invertible among
    all combinations of a Hom(x, y) basis, one at a time, or None."""
    fs, gs = hom_comma(x, y)
    for coeffs in itertools.product(range(x.p), repeat=len(fs)):
        c = np.array(coeffs, dtype=np.int64)
        f, g = (np.einsum("k,kij->ij", c, s) % x.p for s in (fs, gs))
        if rank(x.p, f) == x.A.dim and rank(x.p, g) == x.B.dim:
            return CommaMap(x, y, ModuleMap(x.A, y.A, f), ModuleMap(x.B, y.B, g))
    return None


def test_comma_is_isomorphic_witnesses(a2, dual):
    for fx in (a2, dual):
        zero = next(iter(fx.comma_universe.values()))
        assert zero.total_dim == 0
        assert comma_is_isomorphic(zero, zero).isomorphic
        res = comma_isomorphism(zero, zero)
        assert res.is_valid() and len(res.f.matrix) == 0 and len(res.g.matrix) == 0
        for c in fx.comma_universe.values():
            assert comma_is_isomorphic(c, c).isomorphic
            res = comma_isomorphism(c, c)
            assert res.is_valid()
            assert rank(fx.t.p, res.f.matrix) == c.A.dim
            assert rank(fx.t.p, res.g.matrix) == c.B.dim


def test_functor_p_shapes(a2):
    u = a2.t.u
    p0b = functor_p(u, a2.r_universe["0"], a2.s_universe["k"])
    assert p0b.A.dim == 0 and p0b.B.dim == 1 and p0b.phi.shape[1] == 0
    pa0 = functor_p(u, a2.r_universe["k"], a2.s_universe["0"])
    assert comma_is_isomorphic(pa0, a2.comma_universe["P"]).isomorphic
    pab = functor_p(u, a2.r_universe["k"], a2.s_universe["k"])
    m = to_T_module(pab, a2.t)
    assert is_isomorphic(m, regular_module(a2.t)).isomorphic


def test_functor_p_additivity(a2, dual):
    for fx in (a2, dual):
        for a in fx.r_universe.values():
            for b in fx.s_universe.values():
                whole = to_T_module(functor_p(fx.t.u, a, b), fx.t)
                parts = direct_sum([
                    to_T_module(functor_p(fx.t.u, a, zero_module(fx.t.s)), fx.t),
                    to_T_module(functor_p(fx.t.u, zero_module(fx.t.r), b), fx.t),
                ])
                assert is_isomorphic(whole, parts).isomorphic


def test_functor_q(a2):
    c = a2.comma_universe["P"]
    qa, qb = functor_q(c)
    assert qa is c.A and qb is c.B


def test_functor_h_shapes(a2):
    u = a2.t.u
    ha0 = functor_h(u, a2.r_universe["k"], a2.s_universe["0"])
    assert ha0.A.dim == 1 and ha0.B.dim == 0
    h0b = functor_h(u, a2.r_universe["0"], a2.s_universe["k"])
    assert comma_is_isomorphic(h0b, a2.comma_universe["P"]).isomorphic
    h00 = functor_h(u, a2.r_universe["0"], a2.s_universe["0"])
    assert h00.total_dim == 0


def test_functor_h_valid_on_dual(dual):
    for a in dual.r_universe.values():
        for b in dual.s_universe.values():
            c = functor_h(dual.t.u, a, b)
            assert validate_comma(c) == []


def test_hom_comma_table(a2):
    names = ["0", "S_R", "S_S", "P", "N"]
    expected = [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 1, 2],
    ]
    for i, src in enumerate(names):
        for j, tgt in enumerate(names):
            got = hom_comma_dim(a2.comma_universe[src], a2.comma_universe[tgt])
            assert got == expected[i][j], (src, tgt)


def test_hom_comma_maps_valid(a2, dual):
    """hom_comma gives read-only int64 f and g stacks of hom_comma_dim maps, each
    pair a valid comma map, on every universe pair of both fixtures."""
    for fx in (a2, dual):
        univ = list(fx.comma_universe.values())
        for x in univ:
            for y in univ:
                fs, gs = hom_comma(x, y)
                assert len(fs) == len(gs) == hom_comma_dim(x, y)
                assert fs.shape[1:] == (y.A.dim, x.A.dim) and gs.shape[1:] == (y.B.dim, x.B.dim)
                assert fs.dtype == gs.dtype == np.int64 and not fs.flags.writeable and not gs.flags.writeable
                for f, g in zip(fs, gs):
                    f_map, g_map = ModuleMap(x.A, y.A, f), ModuleMap(x.B, y.B, g)
                    assert CommaMap(x, y, f_map, g_map).is_valid()


def test_hom_comma_matches_T_oracle(a2, dual):
    for fx in (a2, dual):
        univ = list(fx.comma_universe.values())
        tuniv = [to_T_module(c, fx.t) for c in univ]
        for (x, tx) in zip(univ, tuniv):
            for (y, ty) in zip(univ, tuniv):
                assert hom_comma_dim(x, y) == hom_dim(tx, ty), (x.label, y.label)


def test_tilde_phi_shapes(a2):
    c = comma_from_components(a2.t.u, a=a2.r_universe["k"])  # (k, 0, 0)
    tp = tilde_phi(c)
    assert tp.target.dim == 0
    assert kernel_basis(a2.t.p, tp.matrix).shape[1] == 1
    tp = tilde_phi(a2.comma_universe["P"])
    assert tp.target.dim == 1
    assert rank(a2.t.p, tp.matrix) == 1
    tp = tilde_phi(a2.comma_universe["N"])
    assert not tp.matrix.any()


def test_tilde_phi_r_linear(dual):
    for c in dual.comma_universe.values():
        assert tilde_phi(c).is_valid(), c.label


def test_hom_formula_all_kinds_a2(a2):
    univ = list(a2.comma_universe.values())
    checked = {k: 0 for k in range(1, 6)}
    for x in univ:
        for y in univ:
            direct = hom_comma_dim(x, y)
            for kind in range(1, 6):
                if hom_formula_applicable(kind, x, y):
                    assert hom_formula(kind, x, y) == direct, (x.label, y.label, kind)
                    checked[kind] += 1
    assert all(checked[k] > 0 for k in checked)


def test_hom_formula_rejects_wrong_shape(a2):
    with pytest.raises(ValueError):
        hom_formula(1, a2.comma_universe["P"], a2.comma_universe["P"])


def test_tensor_T_examples(a2):
    rt = a2.right_t_universe
    cm = a2.comma_universe
    assert tensor_T(rt["YS"], cm["P"]) == 0
    assert tensor_T(rt["YS"], cm["N"]) == 1
    assert tensor_T(rt["XR"], cm["S_R"]) == 1
    assert tensor_T(rt["ET"], cm["P"]) == 1
    assert tensor_T(rt["NT"], cm["N"]) == 2


def test_tensor_T_three_ways(a2, dual):
    for fx in (a2, dual):
        for rt in fx.right_t_universe.values():
            for c in fx.comma_universe.values():
                main = tensor_T(rt, c)
                assert main == tensor_T_bruteforce(rt, c), (rt.label, c.label)
                assert main == tensor_T_via_algebra(rt, c, fx.t), (rt.label, c.label)


def test_tensor_shape_predictions(a2):
    rt = a2.right_t_universe
    cm = a2.comma_universe
    covered = set()
    for r in rt.values():
        for c in cm.values():
            for shape, predicted in tensor_shape_predictions(r, c):
                covered.add(shape)
                assert predicted == tensor_T(r, c), (r.label, c.label, shape)
    assert covered == {1, 2, 3, 4, 5}


def test_right_t_to_module_valid(a2, dual):
    for fx in (a2, dual):
        for rt in fx.right_t_universe.values():
            m = right_t_to_module(rt, fx.t)
            assert validate_module(m) == []


def test_right_t_to_module_is_memoized_on_content_and_rejects_every_time(dual):
    rts = dual.right_t_universe
    et = rts["ET"]
    same = RightTModule(et.bimodule, et.X, et.Y, et.psi, label="other")
    assert same == et and hash(same) == hash(et)
    assert right_t_to_module(same, dual.t) is right_t_to_module(et, dual.t)
    # psi = [[1], [0]] from Y = k into X = R is not R-linear: x kills k but not 1
    bad = RightTModule(et.bimodule, rts["XR"].X, rts["Yk"].Y, [[1], [0]])
    for _ in range(2):
        with pytest.raises(ValueError, match="psi-linearity"):
            right_t_to_module(bad, dual.t)


def test_family_membership_examples(a2):
    class Zero:
        def contains(self, m):
            return m.dim == 0

    class All:
        def contains(self, m):
            return True

    cm = a2.comma_universe
    assert family_membership(cm["P"], "B", All(), Zero())
    assert not family_membership(cm["S_R"], "B", All(), Zero())
    assert not family_membership(cm["S_S"], "J", Zero(), All())
    assert family_membership(cm["P"], "J", Zero(), All())
    assert family_membership(cm["S_R"], "J", All(), All())
    assert family_membership(cm["N"], "U", All(), All())


def family_membership_oracle(c, kind, cfam, dfam):
    """family_membership as it was before its structural part was memoized
    (comma.family_parts): everything recomputed on every call."""
    if kind == "U":
        return cfam.contains(c.A) and dfam.contains(c.B)
    if kind == "B":
        if rank(c.p, c.phi) != tensor_over(c.bimodule, c.A).module.dim:
            return False
        if not cfam.contains(c.A):
            return False
        coker = quotient_module(c.B, column_space_basis(c.p, c.phi), label="B/im(phi)")
        return dfam.contains(coker)
    tp = tilde_phi(c)
    if rank(c.p, tp.matrix) != tp.target.dim:
        return False
    if not dfam.contains(c.B):
        return False
    return cfam.contains(submodule(c.A, kernel_basis(c.p, tp.matrix)))


class RecordingFamily:
    """A module family that logs each module it is asked about."""

    def __init__(self, family, log):
        self.family, self.log = family, log

    def contains(self, m):
        self.log.append((self.family.label, m.key))
        return self.family.contains(m)


def component_families(universe):
    nonzero = [m for m in universe if m.dim]
    return (
        [family_all(), family_zero()]
        + [family_gen(m) for m in nonzero]
        + [replace(family_explicit([m]), label=f"{{{m.label}}}") for m in nonzero]
        + [replace(family_explicit(nonzero[:2]), label="first-two")]
    )


@pytest.mark.parametrize("name", ["a2", "dual-numbers"])
def test_family_membership_matches_the_unmemoized_oracle(name, a2, dual):
    fx = a2 if name == "a2" else dual
    cfams = component_families(fx.r_universe_list())
    dfams = component_families(fx.s_universe_list())
    members = {"U": 0, "B": 0, "J": 0}
    for c in fx.comma_universe.values():
        for kind in members:
            for cfam in cfams:
                for dfam in dfams:
                    got_log, want_log = [], []
                    got = family_membership(
                        c, kind, RecordingFamily(cfam, got_log), RecordingFamily(dfam, got_log)
                    )
                    want = family_membership_oracle(
                        c, kind, RecordingFamily(cfam, want_log), RecordingFamily(dfam, want_log)
                    )
                    assert got == want, (c.label, kind, cfam.label, dfam.label)
                    # the same questions, in the same order
                    assert got_log == want_log, (c.label, kind, cfam.label, dfam.label)
                    members[kind] += got
    assert all(members.values())


def test_sigma_for_p_zero_presentations(a2):
    pres = sigma_for_p(
        a2.t,
        a2.presentations["triv_k_R"],
        a2.presentations["triv_k_S"],
    )
    assert validate_presentation(pres) == []
    assert pres.sigma.source.dim == 0
    assert is_isomorphic(pres.target, regular_module(a2.t)).isomorphic


def test_sigma_for_p_dual_numbers(dual):
    pres = sigma_for_p(
        dual.t,
        dual.presentations["k_from_x"],
        dual.presentations["triv_k_S"],
    )
    assert validate_presentation(pres) == []
    # P1 = (R, FR) of total dimension 3, P0 = (0,S) + (R, FR)
    assert pres.sigma.source.dim == 3
    assert pres.sigma.target.dim == 4
    # componentwise exactness: slicing the sequence gives exact component rows
    src = from_T_module(pres.sigma.source, dual.t).comma
    tgt = from_T_module(pres.sigma.target, dual.t).comma
    assert src.A.dim == 2 and tgt.A.dim == 2


def test_sigma_for_p_b_zero(a2):
    pres = sigma_for_p(
        a2.t,
        a2.presentations["triv_k_R"],
        a2.presentations["triv_0_S"],
    )
    assert validate_presentation(pres) == []
    assert is_isomorphic(pres.target, a2.t_universe["P"]).isomorphic


def test_adjunction_dimension_identities(a2, dual):
    for fx in (a2, dual):
        for a in fx.r_universe.values():
            for b in fx.s_universe.values():
                pab = functor_p(fx.t.u, a, b)
                hab = functor_h(fx.t.u, a, b)
                for c in fx.comma_universe.values():
                    assert hom_comma_dim(pab, c) == hom_dim(a, c.A) + hom_dim(b, c.B), (
                        fx.name,
                        a.label,
                        b.label,
                        c.label,
                    )
                    assert hom_comma_dim(c, hab) == hom_dim(c.A, a) + hom_dim(c.B, b), (
                        fx.name,
                        a.label,
                        b.label,
                        c.label,
                    )


def test_triangle_identity_p_q(a2, dual):
    # counit(p X) . p(unit_X) = id on p(X) for X = (A, B)
    from tests.maps import compose

    for fx in (a2, dual):
        for a in fx.r_universe.values():
            for b in fx.s_universe.values():
                pab = functor_p(fx.t.u, a, b)
                unit_f = identity_map(a)
                # p(eta): p(A, B) -> p(A, FA + B)
                eta_g = ModuleMap(b, pab.B, _injection_into_sum(pab, b))
                peta = functor_p_map(fx.t.u, unit_f, eta_g)
                eps = p_counit(pab)
                comp_f = compose(eps.f, peta.f)
                comp_g = compose(eps.g, peta.g)
                assert np.array_equal(comp_f.matrix, np.eye(pab.A.dim, dtype=np.int64))
                assert np.array_equal(comp_g.matrix, np.eye(pab.B.dim, dtype=np.int64))


def _injection_into_sum(pab, b):
    # B -> FA + B, the second-summand injection
    import numpy as np

    total = pab.B.dim
    mat = np.zeros((total, b.dim), dtype=np.int64)
    mat[total - b.dim :, :] = np.eye(b.dim, dtype=np.int64)
    return mat


def test_triangle_identity_q_h(a2, dual):
    # q(eps_X) . unit on q is the identity pair, and h-side triangle holds
    from tests.maps import compose

    for fx in (a2, dual):
        for a in fx.r_universe.values():
            for b in fx.s_universe.values():
                hab = functor_h(fx.t.u, a, b)
                eta = h_unit(hab)
                # eps on (A, B): project the h-object components back
                import numpy as np

                proj_a = np.zeros((a.dim, hab.A.dim), dtype=np.int64)
                proj_a[:, : a.dim] = np.eye(a.dim, dtype=np.int64)
                eps_f = ModuleMap(hab.A, a, proj_a)
                eps_g = identity_map(b)
                heps = functor_h_map(fx.t.u, eps_f, eps_g)
                comp_f = compose(heps.f, eta.f)
                comp_g = compose(heps.g, eta.g)
                assert np.array_equal(comp_f.matrix, np.eye(hab.A.dim, dtype=np.int64))
                assert np.array_equal(comp_g.matrix, np.eye(hab.B.dim, dtype=np.int64))


def test_comma_universe_builder_reproduces_a2(a2):
    built = comma_universe(a2.t.u, a2.r_universe_list(), a2.s_universe_list(), max_total_dim=4)
    assert len(built) == 5
    for c in built:
        assert any(comma_is_isomorphic(c, ref)[0] for ref in a2.comma_universe.values())


def test_componentwise_exactness(a2):
    # a short exact sequence of comma maps is exact iff both component rows are
    cm = a2.comma_universe
    p = a2.t.p
    inc_f, inc_g = (parts[0] for parts in hom_comma(cm["S_S"], cm["P"]))
    quo_f, quo_g = (parts[0] for parts in hom_comma(cm["P"], cm["S_R"]))
    assert rank(p, inc_f) + rank(p, inc_g) == 1
    assert not (quo_f @ inc_f % p).any()
    assert not (quo_g @ inc_g % p).any()
    # component rows: A-row is 0 -> k -> k -> 0 exact; B-row is k -> k -> 0 exact
    assert rank(p, quo_f) == 1 and inc_f.shape[1] == 0
    assert rank(p, inc_g) == 1 and len(quo_g) == 0


# Reference constructions: each system is probed with the standard basis
# vectors of its unknowns, as one batch, through a residual function.


def probe_matrix(p, domain_dim, codomain_dim, residual):
    """Column j is ``residual`` at the j-th standard basis vector.

    ``residual`` maps a (count, domain_dim) batch of vectors to
    (count, codomain_dim).
    """
    if domain_dim == 0:
        return np.zeros((codomain_dim, 0), dtype=np.int64)
    values = residual(np.eye(domain_dim, dtype=np.int64))
    assert values.shape == (domain_dim, codomain_dim)
    return fp_array(p, values.T)


def flat(blocks, count):
    return np.concatenate([b.reshape(count, -1) for b in blocks], axis=1)


def probed_hom_comma_system(x, y):
    """Intertwining in A, in B, then the square g phi_x = phi_y (I_U (x) f)."""
    nf, ng = y.A.dim * x.A.dim, y.B.dim * x.B.dim
    iu = np.eye(x.bimodule.dim, dtype=np.int64)

    def residual(vecs):
        count = len(vecs)
        f = vecs[:, :nf].reshape(count, y.A.dim, x.A.dim)
        g = vecs[:, nf:].reshape(count, y.B.dim, x.B.dim)
        rows = [a @ f - f @ b for a, b in zip(y.A.action, x.A.action)]
        rows += [a @ g - g @ b for a, b in zip(y.B.action, x.B.action)]
        uf = np.stack([np.kron(iu, fk) for fk in f])
        rows.append(g @ x.phi - y.phi @ uf)
        return flat(rows, count)

    total_rows = (
        x.A.algebra.dim * nf + x.B.algebra.dim * ng + y.B.dim * x.bimodule.dim * x.A.dim
    )
    return probe_matrix(x.p, nf + ng, total_rows, residual)


def probed_cocycle_system(m, n):
    """rho_n(e_i) c_j + c_i rho_m(e_j) - c(e_i e_j) for all i, j, then c(1)."""
    alg, d = m.algebra, m.algebra.dim

    def residual(vecs):
        count = len(vecs)
        cs = vecs.reshape(count, d, n.dim, m.dim)
        rows = []
        for i in range(d):
            for j in range(d):
                coeffs = alg.mul[i, j] if m.side == LEFT else alg.mul[j, i]
                lhs = n.action[i] @ cs[:, j] + cs[:, i] @ m.action[j]
                rows.append(lhs - sum(int(c) * cs[:, k] for k, c in enumerate(coeffs)))
        rows.append(sum(int(c) * cs[:, k] for k, c in enumerate(alg.unit)))
        return flat(rows, count)

    block = n.dim * m.dim
    return probe_matrix(m.p, d * block, (d * d + 1) * block, residual)


def probed_coboundaries(m, n):
    """Column (r, c): the coboundary rho_n(e_i) h - h rho_m(e_i) of h = E_rc."""

    def residual(vecs):
        h = vecs.reshape(len(vecs), n.dim, m.dim)
        return flat([a @ h - h @ b for a, b in zip(n.action, m.action)], len(vecs))

    return probe_matrix(m.p, n.dim * m.dim, m.algebra.dim * n.dim * m.dim, residual)


def looped_balancing_generators(x, a):
    """Column (e, i, j) is (x_i e) (x) a_j - x_i (x) (e a_j), entry by entry."""
    gens = []
    for xr, al in zip(x.action, a.action):
        for i in range(x.dim):
            for j in range(a.dim):
                g = np.zeros(x.dim * a.dim, dtype=np.int64)
                for l in range(x.dim):
                    g[l * a.dim + j] += xr[l, i]
                for r in range(a.dim):
                    g[i * a.dim + r] -= al[r, j]
                gens.append(g)
    if not gens:
        return np.zeros((x.dim * a.dim, 0), dtype=np.int64)
    return fp_array(x.p, np.stack(gens, axis=1))


@pytest.fixture(scope="module")
def system_universes(a2, dual):
    """Per name: the comma universe and the module universes to pair up.

    Both fixtures are over F_2, where a sign error cannot show, so the
    dual-numbers data is rebuilt over F_3 as well.
    """
    out = {
        fx.name: (
            list(fx.comma_universe.values()),
            [fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()],
        )
        for fx in (a2, dual)
    }
    r, s = dual_numbers_algebra(3, "R"), field_algebra(3, "S")
    u = Bimodule(s, r, 1, [[[1]]], [[[1]], [[0]]], label="U")
    r_universe = [zero_module(r), ModuleRep(r, LEFT, 1, [[[1]], [[0]]], label="k"), regular_module(r)]
    s_universe = [zero_module(s), regular_module(s), direct_sum([regular_module(s)] * 2)]
    comma = comma_universe(u, r_universe, s_universe, max_total_dim=3)
    t = triangular_algebra(u)
    out["f3-dual"] = (comma, [[to_T_module(c, t) for c in comma], r_universe, s_universe])
    return out


def assert_matches_probed_system(x, y):
    expected = kernel_basis(x.p, probed_hom_comma_system(x, y))
    got = [np.concatenate([f.reshape(-1), g.reshape(-1)]) for f, g in zip(*hom_comma(x, y))]
    assert len(got) == expected.shape[1]
    for k, col in enumerate(got):
        assert np.array_equal(col, expected[:, k])


@pytest.mark.parametrize("name", ["a2", "dual-numbers", "f3-dual"])
def test_hom_comma_matches_probed_system(name, system_universes):
    universe = system_universes[name][0]
    assert any(c.A.dim == 0 and c.B.dim for c in universe)
    assert any(c.B.dim == 0 and c.A.dim for c in universe)
    for x in universe:
        for y in universe:
            assert_matches_probed_system(x, y)


@pytest.mark.parametrize("name", ["a2", "dual-numbers", "f3-dual"])
def test_hom_comma_dim_counts_the_basis(name, system_universes):
    universe = system_universes[name][0]
    for x in universe:
        for y in universe:
            assert hom_comma_dim(x, y) == len(hom_comma(x, y)[0])


def comma_sum(parts, b_order=None):
    """The comma sum of ``parts`` built entry by entry: A and B are the sums of
    their A and B parts, the B parts in ``b_order`` (default: in order), and
    phi maps U (x) (A part i) into B part i."""
    u = parts[0].bimodule
    b_order = list(range(len(parts))) if b_order is None else b_order
    a = direct_sum([c.A for c in parts])
    b = direct_sum([parts[i].B for i in b_order])
    a_off = np.cumsum([0] + [c.A.dim for c in parts])
    b_off = dict(zip(b_order, np.cumsum([0] + [parts[i].B.dim for i in b_order])))
    phi = np.zeros((b.dim, u.dim, a.dim), dtype=np.int64)
    for i, c in enumerate(parts):
        block = c.phi.reshape(c.B.dim, u.dim, c.A.dim)
        phi[b_off[i] : b_off[i] + c.B.dim, :, a_off[i] : a_off[i + 1]] = block
    return CommaObject(u, a, b, phi.reshape(b.dim, u.dim * a.dim), label="sum")


def comma_in_basis(c, ga, gb):
    """c transported along the invertible ga on A and gb on B."""
    p = c.p
    ga_inv, gb_inv = inverse(p, ga), inverse(p, gb)
    a = ModuleRep(c.A.algebra, LEFT, c.A.dim, ga_inv @ (c.A.action @ ga % p))
    b = ModuleRep(c.B.algebra, LEFT, c.B.dim, gb_inv @ (c.B.action @ gb % p))
    phi = gb_inv @ c.phi % p @ np.kron(np.eye(c.bimodule.dim, dtype=np.int64), ga) % p
    return CommaObject(c.bimodule, a, b, phi, label=c.label)


@st.composite
def invertible(draw, p, n):
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n * n, max_size=n * n))
    g = np.array(entries, dtype=np.int64).reshape(n, n)
    return g if rank(p, g) == n else np.eye(n, dtype=np.int64)


@st.composite
def comma_sums(draw, universe):
    """A sum of 1-3 universe objects, each sometimes in a random basis, with
    the B parts sometimes reversed so that the groups interleave."""
    parts = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3))
    for i, c in enumerate(parts):
        if c.total_dim > 1 and draw(st.booleans()):
            parts[i] = comma_in_basis(c, draw(invertible(c.p, c.A.dim)), draw(invertible(c.p, c.B.dim)))
    return comma_sum(parts, list(range(len(parts)))[:: draw(st.sampled_from([1, -1]))])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(["a2", "dual-numbers", "f3-dual"]))
def test_hom_comma_of_comma_sums_is_the_joint_system_kernel(data, name, system_universes):
    """p = 2 on the fixtures, p = 3 on the F_3 rebuild."""
    universe = system_universes[name][0]
    x, y = data.draw(comma_sums(universe)), data.draw(comma_sums(universe))
    assert validate_comma(x) == [] and validate_comma(y) == []
    assert_matches_probed_system(x, y)
    assert_matches_probed_system(y, x)
    assert hom_comma_dim(x, y) == len(hom_comma(x, y)[0])


def test_interleaved_groups(system_universes):
    """phi joins A-block 1 to B-block 2 and A-block 2 to B-block 1."""
    universe = system_universes["f3-dual"][0]
    c = next(c for c in universe if c.A.dim == c.B.dim == 1 and c.phi.any())
    d = next(d for d in universe if d.A.dim == 2 and d.B.dim == 1 and d.phi.any())
    x = comma_sum([c, d], [1, 0])
    # B index 0 is d's and B index 1 is c's: phi joins them to A indices 1-2 and 0
    joined = x.phi.reshape(x.B.dim, x.bimodule.dim, x.A.dim).any(axis=1)
    assert joined[1, 0] and joined[0, 1:].any() and not joined[1, 1:].any() and not joined[0, 0]
    for y in (x, comma_sum([c, d]), comma_sum([d, c], [1, 0]), *universe):
        assert_matches_probed_system(x, y)
        assert_matches_probed_system(y, x)


@pytest.mark.parametrize("name", ["a2", "dual-numbers", "f3-dual"])
def test_extension_systems_match_probed_construction(name, system_universes):
    for universe in system_universes[name][1]:
        # the duals are right modules, where c(e_i e_j) reads mul[j, i]
        for modules in (universe, [module_dual(x) for x in universe]):
            for m in modules:
                for n in modules:
                    assert np.array_equal(_cocycle_system(m, n), probed_cocycle_system(m, n))
                    cob = intertwining_system(m.p, n.action, m.action)
                    assert np.array_equal(cob, probed_coboundaries(m, n))


@pytest.mark.parametrize("name", ["a2", "dual-numbers", "f3-dual"])
def test_balancing_generators_match_looped_construction(name, system_universes):
    for universe in system_universes[name][1]:
        for x in universe:
            for a in universe:
                right = module_dual(x)
                assert np.array_equal(balancing_generators(right, a), looped_balancing_generators(right, a))


def universe_key(c):
    return components_key(c.A, c.B), rank(c.p, c.phi)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(["dual-numbers", "f3-dual"]))
def test_universe_key_is_an_isomorphism_invariant(data, name, system_universes):
    """A comma sum and its transport along random invertible (f, g) get equal keys."""
    c = data.draw(comma_sums(system_universes[name][0]))
    ga, gb = data.draw(invertible(c.p, c.A.dim)), data.draw(invertible(c.p, c.B.dim))
    d = comma_in_basis(c, ga, gb)
    assert validate_comma(d) == []
    assert universe_key(d) == universe_key(c)


def linear_scan_universe(u, r_universe, s_universe, max_total_dim):
    """comma_universe without the key: each candidate is searched against every
    kept object with the same component dimensions."""
    out = []
    for a in r_universe:
        for b in s_universe:
            if a.dim + b.dim > max_total_dim:
                continue
            tensor = tensor_over(u, a)
            for chunk in combination_chunks(u.p, hom_space(tensor.module, b)):
                for m in chunk:
                    phi = m @ tensor.projection
                    cand = CommaObject(u, a, b, phi, label=f"({a.label},{b.label})#{len(out)}")
                    if not any(
                        cand.A.dim == seen.A.dim and cand.B.dim == seen.B.dim
                        and comma_is_isomorphic(cand, seen).isomorphic
                        for seen in out
                    ):
                        out.append(cand)
    return out


@pytest.mark.parametrize("max_total_dim", range(6))
def test_bucketed_universe_equals_linear_scan(dual, max_total_dim):
    args = (dual.t.u, dual.r_universe_list(), dual.s_universe_list(), max_total_dim)
    built, expected = comma_universe(*args), linear_scan_universe(*args)
    assert [(c.label, c.key) for c in built] == [(c.label, c.key) for c in expected]


def test_dual_numbers_universe_build_searches_19_pairs(dual, monkeypatch):
    # the key is complete on this fixture: every search it leaves finds an isomorphism
    results = []

    def counted(x, y):
        result = comma_is_isomorphic(x, y)
        results.append(result.isomorphic)
        return result

    monkeypatch.setattr(comma, "comma_is_isomorphic", counted)
    built = comma_universe(dual.t.u, dual.r_universe_list(), dual.s_universe_list())
    assert [c.key for c in built] == [c.key for c in dual.comma_universe.values()]
    assert results == [True] * 19

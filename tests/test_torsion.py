import pytest

from commacat.fixtures import load_fixture
from commacat.torsion import (
    MAP_ENUM_CAP,
    all_submodule_bases,
    all_subspace_bases,
    comma_family,
    family_all,
    family_d_sigma,
    family_explicit,
    family_gen,
    family_zero,
    is_torsion_class,
    is_torsion_pair,
    perp_left,
    perp_right,
    perp_right_modules,
    torsion_pair_oracle,
)


@pytest.fixture(scope="module")
def a2():
    return load_fixture("a2")


@pytest.fixture(scope="module")
def univ(a2):
    return a2.t_universe_list()


def test_subspace_count():
    # Gaussian binomials: F_2^2 has 5 subspaces, F_2^3 has 16, F_3^2 has 6
    assert len(all_subspace_bases(2, 2)) == 5
    assert len(all_subspace_bases(2, 3)) == 16
    assert len(all_subspace_bases(3, 2)) == 6


def test_submodules_of_projective(a2):
    # P = (k, k, id) has exactly 0, socle S_S, P
    subs = all_submodule_bases(a2.t_universe["P"])
    assert len(subs) == 3
    dims = sorted(w.shape[1] for w in subs)
    assert dims == [0, 1, 2]


def test_family_membership_invariance(a2, univ):
    # membership is isomorphism-invariant: evaluate on an isomorphic copy
    from commacat.linalg import fp_array, inverse
    from commacat.modules import ModuleRep

    fam = family_gen(a2.t_universe["P"], univ)
    change = fp_array(2, [[1, 1], [0, 1]])
    inv = inverse(2, change)
    m = a2.t_universe["P"]
    twisted = ModuleRep(
        m.algebra,
        m.side,
        m.dim,
        change @ m.action @ inv,
        label="P-twisted",
    )
    assert fam.contains(m) == fam.contains(twisted)


def test_perp_right_all_is_zero(a2, univ):
    fam = perp_right(family_all(univ), univ)
    assert fam.member_indices(univ) == [0]  # only the zero module


def test_perp_right_zero_is_all(a2, univ):
    fam = perp_right(family_zero(univ), univ)
    assert fam.member_indices(univ) == list(range(len(univ)))


def test_perp_left_mirrors(a2, univ):
    assert perp_left(family_all(univ), univ).member_indices(univ) == [0]
    assert perp_left(family_zero(univ), univ).member_indices(univ) == list(range(len(univ)))


def test_perp_right_of_projective(a2, univ):
    names = list(a2.t_universe)
    fam = perp_right_modules([a2.t_universe["P"]], univ)
    got = {names[i] for i in fam.member_indices(univ)}
    assert got == {"0", "S_S"}


def test_trivial_torsion_pairs(a2, univ):
    assert is_torsion_pair(family_zero(univ), family_all(univ), univ).holds
    assert is_torsion_pair(family_all(univ), family_zero(univ), univ).holds


def test_silting_induced_torsion_pair(a2, univ):
    # (Gen(P + S_R-part), perp) over the five-object universe:
    # x = {0, S_R, P}, y = {0, S_S}
    names = list(a2.t_universe)
    x = family_gen(a2.t_universe["P"], univ, label="Gen(P)")
    got = {names[i] for i in x.member_indices(univ)}
    assert got == {"0", "S_R", "P"}
    y = perp_right(x, univ)
    verdict = is_torsion_pair(x, y, univ)
    assert verdict.holds
    assert verdict.universe_hash


def test_gen_perp_hom_vanishing_automatic(a2, univ):
    # (Gen G, perp_right(Gen G)) always passes the hom-vanishing clause
    for name in ("P", "S_R", "S_S", "N"):
        g = family_gen(a2.t_universe[name], univ)
        y = perp_right(g, univ)
        verdict = is_torsion_pair(g, y, univ)
        assert not any(c["clause"] == "hom-vanishing" for c in verdict.certificates), name


def test_failing_pair_has_certificates(a2, univ):
    x = family_explicit([a2.t_universe["P"]], univ, label="{P}")
    y = family_explicit([a2.t_universe["S_R"]], univ, label="{S_R}")
    verdict = is_torsion_pair(x, y, univ)
    assert not verdict.holds
    assert any(c["clause"] == "hom-vanishing" for c in verdict.certificates)


def test_oracle_agrees_on_many_pairs(a2, univ):
    zero = family_zero(univ)
    allf = family_all(univ)
    gen_p = family_gen(a2.t_universe["P"], univ, label="Gen(P)")
    gen_sr = family_gen(a2.t_universe["S_R"], univ, label="Gen(S_R)")
    pr_gen_p = perp_right(gen_p, univ)
    pl_gen_sr = perp_left(gen_sr, univ)
    families = [zero, allf, gen_p, gen_sr, pr_gen_p, pl_gen_sr]
    pairs = 0
    for x in families:
        for y in families:
            main = is_torsion_pair(x, y, univ)
            oracle = torsion_pair_oracle(x, y, univ)
            assert main.holds == oracle.holds, (x.label, y.label)
            pairs += 1
    assert pairs >= 20


def test_torsion_pair_implies_perp_identities(a2, univ):
    # when the verdict holds, both perp equalities hold on the universe
    gen_p = family_gen(a2.t_universe["P"], univ)
    y = perp_right(gen_p, univ)
    verdict = is_torsion_pair(gen_p, y, univ)
    assert verdict.holds
    assert perp_right(gen_p, univ).member_indices(univ) == y.member_indices(univ)
    assert perp_left(y, univ).member_indices(univ) == gen_p.member_indices(univ)


def test_torsion_class_all_holds(a2, univ):
    assert is_torsion_class(family_all(univ), univ).holds


def test_torsion_class_s_s_sums(a2, univ):
    fam = family_gen(a2.t_universe["S_S"], univ, label="Gen(S_S)")
    verdict = is_torsion_class(fam, univ)
    assert verdict.holds


def test_torsion_class_p_fails_on_image(a2, univ):
    fam = family_explicit([a2.t_universe["P"]], univ, label="{P,0}-sums")

    # explicit family containing only 0 and P
    def pred(m):
        from commacat.modules import is_isomorphic

        return m.dim == 0 or (m.dim == 2 and is_isomorphic(m, a2.t_universe["P"]).isomorphic)

    fam.predicate = pred
    verdict = is_torsion_class(fam, univ)
    assert not verdict.holds
    img_certs = [c for c in verdict.certificates if c["clause"] == "image-closure"]
    assert img_certs
    # the failing image is the simple S_R, an epimorphic image of P
    assert any(c["image_dim"] == 1 for c in img_certs)


def test_comma_family_membership_via_T_modules(a2, univ):
    names = list(a2.t_universe)
    r_univ = a2.r_universe_list()
    s_univ = a2.s_universe_list()
    bfam = comma_family(
        "B", family_all(r_univ), family_zero(s_univ), a2.t, univ, label="B[all,zero]"
    )
    got = {names[i] for i in bfam.member_indices(univ)}
    assert got == {"0", "P"}
    jfam = comma_family(
        "J", family_zero(r_univ), family_all(s_univ), a2.t, univ, label="J[zero,all]"
    )
    got = {names[i] for i in jfam.member_indices(univ)}
    assert got == {"0", "P"}
    ufam = comma_family(
        "U", family_zero(r_univ), family_all(s_univ), a2.t, univ, label="U[zero,all]"
    )
    got = {names[i] for i in ufam.member_indices(univ)}
    assert got == {"0", "S_S"}


def test_d_sigma_family_torsion_class(a2, univ):
    fam = family_d_sigma(a2.presentations["S_R_from_P"], univ)
    verdict = is_torsion_class(fam, univ)
    assert verdict.holds


def test_monotonicity_under_universe_shrinking(a2, univ):
    # universally-quantified clauses that hold on the big universe hold on subsets
    gen_p = family_gen(a2.t_universe["P"], univ)
    y = perp_right(gen_p, univ)
    big = is_torsion_pair(gen_p, y, univ)
    assert big.holds
    sub_universe = [a2.t_universe[n] for n in ("0", "S_R", "S_S", "P")]
    small = is_torsion_pair(gen_p, y, sub_universe)
    assert small.holds


# -- image closure memoized per (target, image) ----------------------------------


def per_map_image_closure(f, universe):
    """Reference: build and test the image of every enumerated map, as the
    image-closure loop of ``is_torsion_class`` did before it was memoized."""
    from commacat.linalg import column_space_basis, combination_chunks
    from commacat.modules import hom_space, submodule

    certs, partial = [], False
    for i in f.member_indices(universe):
        m = universe[i]
        for j, n in enumerate(universe):
            basis = hom_space(m, n)
            if len(basis) > MAP_ENUM_CAP:
                partial = True
                continue
            for mat in (a for chunk in combination_chunks(m.p, basis) for a in chunk):
                img, _ = submodule(n, column_space_basis(m.p, mat))
                if not f.contains(img):
                    certs.append(
                        {
                            "clause": "image-closure",
                            "source": i,
                            "target": j,
                            "map": mat.tolist(),
                            "image_dim": img.dim,
                        }
                    )
                    break
    return certs, partial


def _with_zero(fam, member):
    """The family {member, 0}: modules isomorphic to ``member``, and 0."""
    inner = fam.predicate
    fam.predicate = lambda m: m.dim == 0 or inner(m)
    fam.label = f"{{{member.label},0}}"
    return fam


def _without(fam, member):
    """Every module not isomorphic to ``member``."""
    inner = fam.predicate
    fam.predicate = lambda m: not inner(m)
    fam.label = f"not {member.label}"
    return fam


def _closure_families(fx, universe):
    """{M}, {M,0} for every member M; the complement of M and Gen(M) for M of
    dimension at most 2 (larger ones cost seconds on the dual-numbers
    T-universe and add no new kind of image); D_sigma for every presentation
    over the universe's algebra, and over T for every pair of R- and
    S-presentations of nonzero modules."""
    from commacat.comma import sigma_for_p

    fams = []
    for m in universe:
        fams.append(family_explicit([m], universe, label=f"{{{m.label}}}"))
        fams.append(_with_zero(family_explicit([m], universe), m))
        if m.dim <= 2:
            # Targets of one dimension share image coordinates, and only a
            # family that tells such targets apart checks the target index.
            fams.append(_without(family_explicit([m], universe), m))
            fams.append(family_gen(m, universe))
    algebra = universe[0].algebra
    pres = [s for s in fx.presentations.values() if s.target.algebra == algebra]
    if algebra == fx.t:
        r_pres = [s for s in fx.presentations.values() if s.target.algebra == fx.t.r]
        s_pres = [s for s in fx.presentations.values() if s.target.algebra == fx.t.s]
        pres += [
            sigma_for_p(fx.t, a.target, a, b.target, b)
            for a in r_pres
            for b in s_pres
            if a.target.dim and b.target.dim
        ]
    fams.extend(family_d_sigma(s, universe) for s in pres)
    return fams


def _fixture_closure_cases(name):
    fx = load_fixture(name)
    universes = fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()
    return [(universe, _closure_families(fx, universe)) for universe in universes]


def _jordan_closure_case():
    """Over F_3[x]/(x^3), Hom(J2111, J22) has dimension 10: 3^10 maps, several
    enumeration chunks.  (End J2111 has dimension 17, past MAP_ENUM_CAP, so
    that pair is skipped and the verdict is partial.)  J22 is no image of
    J2111, and the span of its first two basis vectors is first an image at
    map 6561, in the second chunk: the family of every module but those two
    first fails there."""
    from commacat.linalg import fp_array
    from commacat.modules import submodule
    from commacat.torsion import ModuleFamily
    from tests.test_hom_blocks import truncated_polynomials
    from tests.test_modules import jordan_module

    alg = truncated_polynomials(3, 3)
    src, tgt = jordan_module(alg, (2, 1, 1, 1)), jordan_module(alg, (2, 2))
    late, _ = submodule(tgt, fp_array(3, [[1, 0], [0, 1], [0, 0], [0, 0]]))
    universe = [src, tgt]
    # Content, not isomorphism, decides membership: an isomorphism search on
    # End J2111 would pass the search cap.
    fams = [
        ModuleFamily("{J2111}", {"kind": "test"}, universe, lambda m: m == src),
        ModuleFamily("{J2111,0}", {"kind": "test"}, universe, lambda m: m == src or m.dim == 0),
        ModuleFamily("late", {"kind": "test"}, universe, lambda m: m != tgt and m != late),
    ]
    return universe, fams


def _closure_cases(name):
    return [_jordan_closure_case()] if name == "F_3[x]/(x^3)" else _fixture_closure_cases(name)


@pytest.mark.parametrize("name", ["a2", "dual-numbers", "F_3[x]/(x^3)"])
def test_image_closure_certificates_match_per_map_loop(name):
    from commacat.verify import recheck_certificate

    seen = 0
    for universe, fams in _closure_cases(name):
        for fam in fams:
            # max_dim=0 leaves only the image-closure clause to compare
            verdict = is_torsion_class(fam, universe, max_dim=0)
            got = [c for c in verdict.certificates if c["clause"] == "image-closure"]
            want, partial = per_map_image_closure(fam, universe)
            assert got == want, fam.label
            assert verdict.data["partial"] == partial
            env = {"universe": universe, "family": fam}
            assert all(recheck_certificate(c, env) for c in got), fam.label
            seen += len(got)
    assert seen


def test_image_closure_first_failure_past_the_first_chunk():
    import numpy as np

    from commacat.linalg import ENUM_CHUNK, combination_chunks
    from commacat.modules import hom_space

    universe, fams = _jordan_closure_case()
    src, tgt = universe
    verdict = is_torsion_class(fams[-1], universe, max_dim=0)
    assert verdict.data["partial"]
    [cert] = verdict.certificates
    assert (cert["source"], cert["target"], cert["image_dim"]) == (0, 1, 2)
    chunks = combination_chunks(3, hom_space(src, tgt))
    first = next(chunks)
    assert len(first) == ENUM_CHUNK
    assert not any(np.array_equal(a, cert["map"]) for a in first)
    assert any(np.array_equal(a, cert["map"]) for a in next(chunks))

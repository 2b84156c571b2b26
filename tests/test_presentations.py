import hashlib
import json

import pytest

from commacat import presentations
from commacat.document import parse_document
from commacat.fixtures import load_fixture
from commacat.modules import IsoSearchCapExceeded, direct_sum, hom_dim, regular_module, zero_module
from commacat.presentations import (
    d_sigma_member,
    d_sigma_member_oracle,
    is_partial_silting,
    is_silting,
    trivial_presentation,
    universe_hash,
    validate_presentation,
)
from tests.test_hom_blocks import _p3doc


@pytest.fixture(scope="module")
def a2():
    return load_fixture("a2")


@pytest.fixture(scope="module")
def dual():
    return load_fixture("dual-numbers")


def test_fixture_presentations_exact(a2, dual):
    for fx in (a2, dual):
        for name, pres in fx.presentations.items():
            assert validate_presentation(pres) == [], name


def test_d_sigma_trivial_presentation_everything(a2):
    pres = a2.presentations["triv_k_R"]
    for m in a2.r_universe.values():
        assert d_sigma_member(pres, m)


def test_d_sigma_dual_numbers_examples(dual):
    pres = dual.presentations["k_from_x"]
    assert not d_sigma_member(pres, dual.r_universe["k"])
    assert not d_sigma_member(pres, dual.r_universe["R"])
    assert d_sigma_member(pres, dual.r_universe["0"])


def test_d_sigma_a2_members(a2):
    pres = a2.presentations["S_R_from_P"]
    expected = {"0": True, "S_R": True, "S_S": False, "P": True, "N": False}
    for name, want in expected.items():
        assert d_sigma_member(pres, a2.t_universe[name]) == want, name


def test_d_sigma_matches_oracle(a2, dual):
    for fx, presnames, universe in (
        (a2, ["S_R_from_P"], a2.t_universe_list()),
        (dual, ["k_from_x", "triv_R"], dual.r_universe_list()),
    ):
        for pname in presnames:
            pres = fx.presentations[pname]
            for m in universe:
                assert d_sigma_member(pres, m) == d_sigma_member_oracle(pres, m), (pname, m.label)


def test_d_sigma_member_oracle_cap(dual, monkeypatch):
    pres, m = dual.presentations["k_from_x"], dual.r_universe["R"]
    assert hom_dim(pres.sigma.source, m)
    monkeypatch.setattr(presentations, "ISO_CAP", 0)
    with pytest.raises(IsoSearchCapExceeded):
        d_sigma_member_oracle(pres, m)


def test_d_sigma_closed_under_images(a2):
    # sigma-class membership survives epimorphic images inside the universe
    from commacat.linalg import column_space_basis
    from commacat.modules import hom_space, submodule

    pres = a2.presentations["S_R_from_P"]
    univ = a2.t_universe_list()
    members = [m for m in univ if d_sigma_member(pres, m)]
    for m in members:
        for n in univ:
            for h in hom_space(m, n):
                img = submodule(n, column_space_basis(a2.t.p, h))
                assert d_sigma_member(pres, img)


def test_d_sigma_closed_under_extensions(a2):
    from commacat.modules import extension_middle_terms

    pres = a2.presentations["S_R_from_P"]
    univ = a2.t_universe_list()
    members = [m for m in univ if d_sigma_member(pres, m)]
    for m in members:
        for n in members:
            for e in extension_middle_terms(m, n).middle_terms:
                assert d_sigma_member(pres, e)


def test_is_silting_regular_module(a2):
    treg = regular_module(a2.t)
    pres = trivial_presentation(treg)
    verdict = is_silting(pres, a2.t_universe_list())
    assert verdict.holds
    assert verdict.universe_hash


def test_is_silting_fails_with_witness(a2):
    pres = a2.presentations["S_R_from_P"]
    verdict = is_silting(pres, a2.t_universe_list())
    assert not verdict.holds
    assert {d["clause"] for d in verdict.certificates} == {"membership-mismatch"}
    witnesses = {(d["label"], d["in_d_sigma"], d["in_gen"]) for d in verdict.certificates}
    assert ("P", True, False) in witnesses


def test_is_silting_zero_module(a2):
    z = zero_module(a2.t)
    verdict = is_silting(trivial_presentation(z), [z])
    assert verdict.holds


def test_partial_silting_examples(a2, dual):
    treg = regular_module(a2.t)
    assert is_partial_silting(trivial_presentation(treg), a2.t_universe_list()).holds
    verdict = is_partial_silting(dual.presentations["k_from_x"], dual.r_universe_list())
    assert not verdict.holds
    assert any(f["clause"] == "self-membership" for f in verdict.certificates)
    verdict = is_partial_silting(a2.presentations["S_R_from_P"], a2.t_universe_list())
    assert verdict.holds


def test_silting_implies_partial_silting(a2, dual):
    cases = [
        (trivial_presentation(regular_module(a2.t)), a2.t_universe_list()),
        (a2.presentations["S_R_from_P"], a2.t_universe_list()),
        (dual.presentations["k_from_x"], dual.r_universe_list()),
        (dual.presentations["triv_R"], dual.r_universe_list()),
    ]
    for pres, univ in cases:
        if is_silting(pres, univ).holds:
            assert is_partial_silting(pres, univ).holds


def test_pairwise_sum_closure_extends_to_triples(a2):
    # with finitely generated projectives, pairwise closure gives triple closure
    pres = a2.presentations["S_R_from_P"]
    univ = a2.t_universe_list()
    members = [m for m in univ if d_sigma_member(pres, m)]
    pairwise = all(
        d_sigma_member(pres, direct_sum([x, y]))
        for x in members
        for y in members
    )
    assert pairwise
    for x in members:
        for y in members:
            for z in members:
                triple = direct_sum([x, y, z])
                assert d_sigma_member(pres, triple)


@pytest.mark.parametrize("name", ["a2", "dual-numbers"])
def test_d_sigma_of_a_direct_sum_is_both_summands(name):
    """Hom(sigma, X + Y) = Hom(sigma, X) + Hom(sigma, Y) is onto exactly when
    both parts are, so the class is closed under direct sums and
    is_partial_silting need not test them.  Over T the presentations are
    the fixture's and sigma_T of every pair of R- and S-presentations."""
    from commacat.comma import sigma_for_p

    fx = load_fixture(name)
    pres = list(fx.presentations.values())
    pres += [
        sigma_for_p(fx.t, a, b)
        for a in pres
        if a.target.algebra == fx.t.r
        for b in pres
        if b.target.algebra == fx.t.s
    ]
    checked = 0
    for universe in (fx.t_universe_list(), fx.r_universe_list(), fx.s_universe_list()):
        algebra = universe[0].algebra
        for s in (s for s in pres if s.target.algebra == algebra):
            for x in universe:
                for y in universe:
                    total = direct_sum([x, y])
                    assert d_sigma_member(s, total) == (d_sigma_member(s, x) and d_sigma_member(s, y))
                    checked += 1
    assert checked


def _universes():
    for name in ("a2", "dual-numbers"):
        fx = load_fixture(name)
        for side in ("t", "r", "s"):
            yield f"{name} {side}", getattr(fx, f"{side}_universe_list")()
    for seed in (11, 12):
        for name, universe in parse_document(_p3doc().generate(seed)).universes.items():
            yield f"p3-doc seed {seed} {name}", universe


def test_universe_hash_is_the_hashlib_sha256_prefix():
    """The builtin sha256 the digest uses gives hashlib's digest."""
    seen = {}
    for name, universe in _universes():
        action = [[[[int(x) for x in row] for row in a] for a in m.action] for m in universe]
        payload = [{"dim": m.dim, "side": m.side, "action": a} for m, a in zip(universe, action)]
        expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]
        seen[name] = universe_hash(universe)
        assert seen[name] == expected, name
    assert seen["dual-numbers t"] == "f01ede28f778bb53"  # as in the reference report
    assert any(name.startswith("p3-doc seed 12") for name in seen)

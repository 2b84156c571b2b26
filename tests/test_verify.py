import pytest

from commacat.fixtures import load_fixture
from commacat.torsion import comma_family, family_all, family_zero
from commacat.verify import (
    recheck_certificate,
    verify_final_corollaries,
    verify_partial_silting_transfer,
    verify_perp_transfer,
    verify_silting_transfer,
    verify_torsion_transfer,
)


@pytest.fixture(scope="module")
def a2():
    return load_fixture("a2")


def _fam(kind, univ):
    return family_zero(univ) if kind == "zero" else family_all(univ)


def test_silting_transfer_both_true(a2):
    v = verify_silting_transfer(
        a2.t,
        a2.r_universe["k"],
        a2.presentations["triv_k_R"],
        a2.s_universe["k"],
        a2.presentations["triv_k_S"],
        a2.r_universe_list(),
        a2.s_universe_list(),
        a2.t_universe_list(),
    )
    assert v.holds
    assert v.data["left_side"] is True and v.data["right_side"] is True


def test_silting_transfer_both_false(a2):
    v = verify_silting_transfer(
        a2.t,
        a2.r_universe["k"],
        a2.presentations["triv_k_R"],
        a2.s_universe["0"],
        a2.presentations["triv_0_S"],
        a2.r_universe_list(),
        a2.s_universe_list(),
        a2.t_universe_list(),
    )
    assert v.holds
    assert v.data["left_side"] is False and v.data["right_side"] is False
    assert v.data["fa_in_gen_b"] is False
    left = next(s for s in v.sub if s.claim == "left-side")
    witnesses = {c["label"] for c in left.certificates}
    assert "S_S" in witnesses


def test_torsion_transfer_mono_frozen_outcomes(a2):
    r_u, s_u, t_u = a2.r_universe_list(), a2.s_universe_list(), a2.t_universe_list()
    combos = {}
    for c in (("zero", "all"), ("all", "zero")):
        for d in (("zero", "all"), ("all", "zero")):
            v = verify_torsion_transfer(
                "mono", a2.t, _fam(c[0], r_u), _fam(c[1], r_u), _fam(d[0], s_u), _fam(d[1], s_u),
                r_u, s_u, t_u,
            )
            combos[(c, d)] = v
    assert combos[(("zero", "all"), ("zero", "all"))].result == "holds"
    assert combos[(("zero", "all"), ("all", "zero"))].result == "out-of-scope"
    assert combos[(("all", "zero"), ("all", "zero"))].result == "out-of-scope"
    # the decisive instance: the module (F_2, 0) breaks the comma-side pair
    decisive = combos[(("all", "zero"), ("zero", "all"))]
    assert decisive.result == "fails"
    assert decisive.data["component_pairs_hold"] is True
    assert decisive.data["comma_pair_holds"] is False
    q = decisive.sub[2]
    assert any(c.get("label") == "S_R" for c in q.certificates)


def test_torsion_transfer_adjoint_frozen_outcomes(a2):
    r_u, s_u, t_u = a2.r_universe_list(), a2.s_universe_list(), a2.t_universe_list()
    combos = {}
    for c in (("zero", "all"), ("all", "zero")):
        for d in (("zero", "all"), ("all", "zero")):
            v = verify_torsion_transfer(
                "adjoint", a2.t, _fam(c[0], r_u), _fam(c[1], r_u), _fam(d[0], s_u), _fam(d[1], s_u),
                r_u, s_u, t_u,
            )
            combos[(c, d)] = v
    assert combos[(("zero", "all"), ("zero", "all"))].result == "out-of-scope"
    assert combos[(("zero", "all"), ("all", "zero"))].result == "out-of-scope"
    assert combos[(("all", "zero"), ("all", "zero"))].result == "holds"
    # the decisive instance: the module (0, F_2)
    decisive = combos[(("all", "zero"), ("zero", "all"))]
    assert decisive.result == "fails"
    assert decisive.data["component_pairs_hold"] is True
    assert decisive.data["comma_pair_holds"] is False
    q = decisive.sub[2]
    assert any(c.get("label") == "S_S" for c in q.certificates)


def test_prop_B_perp_frozen_outcomes(a2):
    r_u, s_u, t_u = a2.r_universe_list(), a2.s_universe_list(), a2.t_universe_list()
    outcomes = {}
    for ck in ("zero", "all"):
        for dk in ("zero", "all"):
            v = verify_perp_transfer("mono", a2.t, _fam(ck, r_u), _fam(dk, s_u), r_u, s_u, t_u)
            outcomes[(ck, dk)] = v
            # part (1) always holds on the fixture
            assert v.sub[0].holds, (ck, dk)
            assert v.sub[1].holds, (ck, dk)
    assert outcomes[("zero", "zero")].result == "holds"
    assert outcomes[("all", "zero")].result == "holds"
    assert outcomes[("all", "all")].result == "holds"
    refuted = outcomes[("zero", "all")]
    assert refuted.result == "fails"
    converse = refuted.sub[2]
    assert [c["label"] for c in converse.certificates] == ["S_R"]


def test_prop_J_perp_frozen_outcomes(a2):
    r_u, s_u, t_u = a2.r_universe_list(), a2.s_universe_list(), a2.t_universe_list()
    outcomes = {}
    for ck in ("zero", "all"):
        for dk in ("zero", "all"):
            v = verify_perp_transfer("adjoint", a2.t, _fam(ck, r_u), _fam(dk, s_u), r_u, s_u, t_u)
            outcomes[(ck, dk)] = v
            assert v.sub[0].holds, (ck, dk)
            assert v.sub[1].holds, (ck, dk)
    assert outcomes[("zero", "zero")].result == "holds"
    assert outcomes[("zero", "all")].result == "holds"
    assert outcomes[("all", "all")].result == "holds"
    refuted = outcomes[("all", "zero")]
    assert refuted.result == "fails"
    converse = refuted.sub[2]
    assert [c["label"] for c in converse.certificates] == ["S_S"]


def test_final_corollaries_a2(a2):
    v = verify_final_corollaries(
        a2.t,
        a2.r_universe["k"],
        a2.presentations["triv_k_R"],
        a2.s_universe["k"],
        a2.presentations["triv_k_S"],
        a2.r_universe_list(),
        a2.s_universe_list(),
        a2.t_universe_list(),
    )
    assert v.holds
    by_claim = {s.claim: s for s in v.sub}
    assert by_claim["silting-vs-component-A"].holds
    assert by_claim["silting-vs-component-B"].holds
    assert by_claim["induced-torsion-pair-mono"].result == "out-of-scope"
    assert by_claim["induced-torsion-pair-adjoint"].holds


def test_certificates_replay(a2):
    r_u, s_u, t_u = a2.r_universe_list(), a2.s_universe_list(), a2.t_universe_list()
    v = verify_torsion_transfer(
        "mono", a2.t, _fam("all", r_u), _fam("zero", r_u), _fam("zero", s_u), _fam("all", s_u),
        r_u, s_u, t_u,
    )
    q = v.sub[2]
    bfam = comma_family("B", _fam("all", r_u), _fam("zero", s_u), a2.t, t_u)
    ufam = comma_family("U", _fam("zero", r_u), _fam("all", s_u), a2.t, t_u)
    env = {"universe": t_u, "x": bfam, "y": ufam}
    assert q.certificates
    for cert in q.certificates:
        assert recheck_certificate(cert, env), cert


def test_partial_transfer_self_membership_cert(a2):
    dual = load_fixture("dual-numbers")
    v = verify_partial_silting_transfer(
        dual.t,
        dual.r_universe["k"],
        dual.presentations["k_from_x"],
        dual.s_universe["k"],
        dual.presentations["triv_k_S"],
        dual.r_universe_list(),
        dual.s_universe_list(),
        dual.t_universe_list(),
    )
    assert v.holds  # both sides false
    assert v.data["left_side"] is False and v.data["right_side"] is False
    comp_a = next(s for s in v.sub if s.claim == "component-A")
    assert any(c["clause"] == "self-membership" for c in comp_a.certificates)
import sys

import pytest

from commacat import linalg, memo
from commacat.document import parse_document
from commacat.fixtures import load_fixture
from commacat.linalg import FpMatrix
from commacat.modules import gen_member
from commacat.tasks import run_document, run_fixture
from tests.test_hom_blocks import _p3doc


def test_hom_space_calls_of_a_dual_numbers_run():
    # the same count as the benchmark tracer's modules.hom_space.calls
    # (perfbench, dual-verify), whose distinct_ratio is misses / calls
    run_fixture(load_fixture("dual-numbers"))
    stats = memo.memo_stats()
    # (is_torsion_class asks hom_dim first and builds no basis for a zero Hom,
    # d_sigma_member builds no basis of Hom(sigma.source, X), and is_isomorphic
    # builds none over an algebra with at most one generator).  hom_comma and
    # hom_comma_dim read the bases of their components here: 1,290 of the
    # lookups and 29 of the distinct pairs (393 and 333 while comma Hom ran its
    # own solver)
    assert stats["hom_space"]["hits"] + stats["hom_space"]["misses"] == 1683
    assert stats["hom_space"]["misses"] == stats["hom_space"]["size"] == 362
    # dimension-only questions go to hom_dim, which builds no maps
    assert stats["hom_dim"]["hits"] + stats["hom_dim"]["misses"] == 4627
    assert stats["hom_dim"]["misses"] == stats["hom_dim"]["size"] == 586
    # both rest on 69 distinct block systems, posed on 11 distinct spun source
    # blocks; hom_space lifts each of them to its canonical basis once
    assert stats["hom_block"]["misses"] == stats["hom_block"]["size"] == 69
    assert stats["spin"]["misses"] == stats["spin"]["size"] == 11
    assert stats["hom_lift"]["misses"] == stats["hom_lift"]["size"] == 69
    # the tensor claims turn the 6 right T-modules into T-modules 114 times
    assert stats["right_t_to_module"]["hits"] + stats["right_t_to_module"]["misses"] == 114
    assert stats["right_t_to_module"]["misses"] == stats["right_t_to_module"]["size"] == 6
    # the hom-table, the Hom-formula and the adjunction claims ask 1,102 times for
    # the dimension of a comma Hom, between 608 distinct pairs of comma objects
    assert stats["hom_comma_dim"]["hits"] + stats["hom_comma_dim"]["misses"] == 1102
    assert stats["hom_comma_dim"]["misses"] == stats["hom_comma_dim"]["size"] == 608
    # is_partial_silting tests only self-membership: 941 class questions about
    # 267 distinct (presentation, module) pairs (the final corollaries decide
    # their T-presentation once, not twice, when B is S)
    assert stats["d_sigma_member"]["hits"] + stats["d_sigma_member"]["misses"] == 941
    assert stats["d_sigma_member"]["misses"] == stats["d_sigma_member"]["size"] == 267
    # the comma-family predicates ask 1,308 times about 19 comma objects x 3 kinds
    # (is_torsion_pair evaluates each family once per universe member)
    assert stats["family_parts"]["hits"] + stats["family_parts"]["misses"] == 1308
    assert stats["family_parts"]["misses"] == stats["family_parts"]["size"] == 57


def test_eliminations_of_a_dual_numbers_run(monkeypatch):
    # the same counts as the benchmark tracer's linalg.rref.calls (perfbench,
    # dual-verify) over building the dual-numbers fixture and running it, and
    # the batched eliminations beside them.  (4,103 rref and 493 batched_rref
    # calls while is_torsion_class reduced the images of each (member, target)
    # pair on their own and the shape predicates of the Hom-formula and
    # tensor claims were decided once per pair rather than once per object.)
    calls = {"rref": 0, "batched_rref": 0}
    for fn in calls:
        original = getattr(linalg, fn)

        def counted(*args, _fn=fn, _original=original):
            calls[_fn] += 1
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "commacat" and getattr(module, fn, None) is original:
                monkeypatch.setattr(module, fn, counted)
    run_fixture(load_fixture("dual-numbers"))
    assert calls == {"rref": 3254, "batched_rref": 89}
    # the three shape predicates are decided once per object: 19 comma objects
    # for phi and tilde_phi, 6 right T-modules for psi
    stats = memo.memo_stats()
    assert stats["phi_descends_to_iso"]["misses"] == stats["tilde_phi_is_iso"]["misses"] == 19
    assert stats["psi_descends_to_iso"]["misses"] == 6


def test_hom_blocks_of_a_p3_doc_run():
    # Every p3-doc module is a random conjugate of a Jordan type over
    # F_3[x]/(x^3).  In its Jordan frame its blocks are the canonical J1, J2 and
    # J3, which all modules share; J2 and J3 keep their conjugated basis (one
    # chain each, so no frame).  Without frames the seed-11 run posed 1,100
    # block systems on 33 spun source blocks.
    run_document(parse_document(_p3doc().generate(11)))
    stats = memo.memo_stats()
    assert stats["hom_block"]["misses"] == stats["hom_block"]["size"] == 28
    assert stats["spin"]["misses"] == stats["spin"]["size"] == 5


def test_validated_matrices_of_a_dual_numbers_run(monkeypatch):
    # Every constructor validates its F_p data through linalg.fp_array, whether
    # it comes from a document, a fixture or a computation; this counts those
    # validations over building the dual-numbers fixture and running it: 1,555
    # module action stacks, 148 phi, 120 map matrices, 6 psi, the structure
    # constants and unit of 3 algebras and the two actions of 1 bimodule.
    # (274 while action stacks, algebras and bimodules had their own
    # validation, algebra.frozen_actions, and only maps, comma objects and
    # right T-modules counted here; 2,555 while
    # direct sums built their injections and projections and isomorphism
    # searches their witnesses, 1,392 while the final corollaries built
    # their T-presentation twice when B is S, and 1,382 while submodules and
    # quotients built their inclusion and projection, and 673 while the Hom-formula
    # claims built tilde_phi of the target, a ModuleMap, for each of their pairs
    # rather than once per comma object.)
    count = 0
    validate = linalg.fp_array

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return validate(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "commacat" and getattr(module, "fp_array", None) is validate:
            monkeypatch.setattr(module, "fp_array", counted)
    # FpMatrix is only the argument of rref, wrapped by the unvalidated
    # FpMatrix._of: the benchmark tracer's linalg.FpMatrix.new, which counts
    # __init__ calls, reads 0 (2,408 while FpMatrix was the validated value type)
    inits = []
    monkeypatch.setattr(FpMatrix, "__init__", lambda self, *args: inits.append(args))
    run_fixture(load_fixture("dual-numbers"))
    assert not inits
    assert count == 1837


def test_cached_false_is_a_hit_and_clear_resets():
    fx = load_fixture("a2")
    t = fx.t_universe
    memo.clear()
    assert not gen_member(t["S_S"], t["S_R"])
    assert not gen_member(t["S_S"], t["S_R"])
    assert memo.memo_stats()["gen_member"] == {"size": 1, "hits": 1, "misses": 1}
    memo.clear()
    assert all(s == {"size": 0, "hits": 0, "misses": 0} for s in memo.memo_stats().values())


def test_table_names_are_unique():
    with pytest.raises(ValueError, match="already registered"):
        memo.memo("hom_space")

import sys

import pytest

from commacat import linalg, memo
from commacat.fixtures import load_fixture
from commacat.linalg import FpMatrix
from commacat.modules import gen_member, is_isomorphic
from commacat.tasks import run_fixture


def test_hom_space_calls_of_a_dual_numbers_run():
    # the same count as the benchmark tracer's modules.hom_space.calls
    # (perfbench, dual-verify), whose distinct_ratio is misses / calls
    run_fixture(load_fixture("dual-numbers"))
    stats = memo.memo_stats()
    # (is_torsion_class asks hom_dim first and builds no basis for a zero Hom,
    # and d_sigma_member builds no basis of Hom(sigma.source, X))
    assert stats["hom_space"]["hits"] + stats["hom_space"]["misses"] == 397
    assert stats["hom_space"]["misses"] == stats["hom_space"]["size"] == 334
    # dimension-only questions go to hom_dim, which builds no maps
    assert stats["hom_dim"]["hits"] + stats["hom_dim"]["misses"] == 4624
    assert stats["hom_dim"]["misses"] == stats["hom_dim"]["size"] == 586
    # both rest on 69 distinct block systems, posed on 11 distinct spun source
    # blocks; hom_space lifts each of them to its canonical basis once
    assert stats["hom_block"]["misses"] == stats["hom_block"]["size"] == 69
    assert stats["spin"]["misses"] == stats["spin"]["size"] == 11
    assert stats["hom_lift"]["misses"] == stats["hom_lift"]["size"] == 69
    # the tensor claims turn the 6 right T-modules into T-modules 114 times
    assert stats["right_t_to_module"]["hits"] + stats["right_t_to_module"]["misses"] == 114
    assert stats["right_t_to_module"]["misses"] == stats["right_t_to_module"]["size"] == 6
    # hom_comma splits the 47 distinct comma objects into groups once each, and
    # its maps and dimensions rest on 40 distinct group-pair solves (the universe
    # build searches only pairs with equal invariant keys)
    assert stats["comma_groups"]["misses"] == stats["comma_groups"]["size"] == 47
    assert stats["comma_block"]["misses"] == stats["comma_block"]["size"] == 40
    # is_partial_silting tests only self-membership: 961 class questions about
    # 267 distinct (presentation, module) pairs
    assert stats["d_sigma_member"]["hits"] + stats["d_sigma_member"]["misses"] == 961
    assert stats["d_sigma_member"]["misses"] == stats["d_sigma_member"]["size"] == 267
    # the comma-family predicates ask 1,308 times about 19 comma objects x 3 kinds
    # (is_torsion_pair evaluates each family once per universe member)
    assert stats["family_parts"]["hits"] + stats["family_parts"]["misses"] == 1308
    assert stats["family_parts"]["misses"] == stats["family_parts"]["size"] == 57


def test_validated_matrices_of_a_dual_numbers_run(monkeypatch):
    # Maps, comma objects and right T-modules validate their matrix through
    # linalg.fp_array whether it comes from a document, a fixture or a
    # computation; this counts those validations over building the dual-numbers
    # fixture and running it.  Action stacks are validated by their module's
    # constructor (algebra.frozen_actions) and add nothing here.
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
    assert count == 2555


def test_cached_false_is_a_hit_and_clear_resets():
    fx = load_fixture("a2")
    t = fx.t_universe
    memo.clear()
    assert not gen_member(t["S_S"], t["S_R"])
    assert not gen_member(t["S_S"], t["S_R"])
    assert memo.memo_stats()["gen_member"] == {"size": 1, "hits": 1, "misses": 1}
    memo.clear()
    assert all(s == {"size": 0, "hits": 0, "misses": 0} for s in memo.memo_stats().values())


def test_default_arguments_share_one_entry():
    t = load_fixture("a2").t_universe
    memo.clear()
    assert is_isomorphic(t["P"], t["P"]) is is_isomorphic(t["P"], t["P"], cap=16)
    assert memo.memo_stats()["is_isomorphic"] == {"size": 1, "hits": 1, "misses": 1}


def test_table_names_are_unique():
    with pytest.raises(ValueError, match="already registered"):
        memo.memo("hom_space")

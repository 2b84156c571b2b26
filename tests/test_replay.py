"""Certificate replay: the fixture's cases and the clause table, and reports it must refuse.

Each refused report is a one-verdict (or few-verdict) report, so that the
cases stay cheap; every one exits 2 with one line.
"""

import copy
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from commacat.cli import main
from commacat.fixtures import load_fixture
from commacat import tasks, verify
from commacat.comma import functor_p, sigma_for_p, tensor_shape_predictions
from commacat.modules import IsoResult
from commacat.presentations import d_sigma_member
from commacat.tasks import MalformedReport, replay_report, run_fixture
from commacat.verify import (
    CLAUSES,
    adjunction_facts,
    decomposition_facts,
    round_trip_facts,
    tensor_oracle_facts,
)


def _report(name):
    fx = load_fixture(name)
    return {"tool": "commacat", "p": fx.t.p, "source": {"fixture": name}, "tasks": run_fixture(fx, ["verify-all"])}


@pytest.fixture(scope="module")
def reports():
    return {name: _report(name) for name in ("a2", "dual-numbers")}


def _verdicts(report):
    return report["tasks"][0]["verdicts"]


def _certificates(v):
    """Each certificate under a verdict, with the verdict that carries it."""
    for cert in v["certificates"]:
        yield cert, v
    for sub in v["sub"]:
        yield from _certificates(sub)


def _replay(tmp_path, fixture, verdicts):
    path = tmp_path / "report.json"
    report = {"source": {"fixture": fixture}, "tasks": [{"kind": "verify-all", "verdicts": verdicts}]}
    path.write_text(json.dumps(report))
    return CliRunner().invoke(main, ["validate", "--certificate", str(path)])


def _verdict(report, claim):
    return copy.deepcopy(next(v for v in _verdicts(report) if v["claim"] == claim))


def test_every_claim_and_clause_has_a_table_entry(reports):
    for name, report in reports.items():
        claims = [v["claim"] for v in _verdicts(report)]
        assert claims == list(tasks._cases(load_fixture(name)))
        bases = {claim.split("[")[0] for claim in claims}
        clauses = {cert["clause"] for v in _verdicts(report) for cert, _ in _certificates(v)}
        assert clauses <= set(CLAUSES), clauses - set(CLAUSES)
    assert len(bases) == 23


def _bogus(a2):
    return _verdicts(a2) + [{"claim": "bogus", "certificates": [{"clause": "hom-vanishing"}], "sub": []}]


def _duplicated(a2):
    return _verdicts(a2) + [_verdict(a2, "adjunction-q-h")]


def _torsion_transfer_missing_sub(a2):
    v = _verdict(a2, "torsion-transfer-mono[c=(all,zero),d=(zero,all)]")
    del v["sub"][0]
    for cert, _ in _certificates(v):
        cert["clause"] = "garbage"
    return [v]


def _renamed_silting_sub(a2):
    v = _verdict(a2, "silting-transfer[a=k,b=k]")
    v["sub"][0]["claim"] = "renamed"
    v["sub"][0]["certificates"].append({"clause": "garbage"})
    return [v]


def _hom_dim_without_mismatch(a2):
    v = _verdict(a2, "hom-formula-1")
    v["certificates"].append(
        {"clause": "hom-dim-mismatch", "kind": 1, "source": "S_S", "target": "S_R",
         "formula": 0, "comma_dim": 0, "t_module_dim": 0}
    )
    return [v]


@pytest.mark.parametrize(
    "verdicts, message",
    [
        (_bogus, "malformed report: bogus: unknown claim"),
        (_duplicated, "malformed report: adjunction-q-h: the claim appears twice in tasks[0]"),
        (_torsion_transfer_missing_sub, "expected 3 sub-verdicts, got 2"),
        (_renamed_silting_sub, "certificates[0]: missing field 'module'"),
        (_hom_dim_without_mismatch, "REPLAY FAIL hom-formula-1: certificates[0]: hom-dim-mismatch did not replay"),
    ],
    ids=["bogus-claim", "duplicated-claim", "torsion-transfer-missing-sub", "renamed-silting-sub",
         "hom-dim-without-mismatch"],
)
def test_unchecked_certificates_are_refused(reports, tmp_path, verdicts, message):
    result = _replay(tmp_path, "a2", verdicts(reports["a2"]))
    assert result.exit_code == 2, result.output
    assert len(result.output.splitlines()) == 1, result.output
    assert message in result.output


def _agreeing_certificate(claim):
    """A certificate for ``claim`` that records the true facts of an a2 case,
    where they agree: no mismatch, so it must not replay."""
    fx = load_fixture("a2")
    c, rt = fx.comma_universe["P"], fx.right_t_universe["XR"]
    if claim == "tensor-shape-1":
        main = tensor_oracle_facts(rt, fx.comma_universe["0"], fx.t)["main"]
        return {"clause": "tensor-dim-mismatch", "shape": 1, "right_module": "XR", "comma": "0",
                "predicted": main, "computed": main}
    if claim == "tensor-oracle-agreement":
        facts = tensor_oracle_facts(rt, c, fx.t)
        return {"clause": "tensor-oracle-mismatch", "right_module": "XR", "comma": "P", **facts}
    if claim.startswith("presentation-decomposition"):
        sigma_a, sigma_b = fx.presentations["triv_k_R"], fx.presentations["triv_k_S"]
        pres_t = sigma_for_p(fx.t, sigma_a, sigma_b)
        facts = decomposition_facts((sigma_a, sigma_b, pres_t), fx.t_universe["P"], fx.t)
        return {"clause": "decomposition-mismatch", "module": "P", **facts}
    if claim == "adjunction-p-q":
        a, b = fx.r_universe["k"], fx.s_universe["k"]
        facts = adjunction_facts("p-q", functor_p(fx.t.u, a, b), a, b, c)
        return {"clause": "adjunction-mismatch", "a": "k", "b": "k", "comma": "P", **facts}
    return {"clause": "roundtrip-failure", "comma": "P", **round_trip_facts(c, fx.t)}


@pytest.mark.parametrize(
    "claim",
    ["tensor-shape-1", "tensor-oracle-agreement", "presentation-decomposition[triv_k_R,triv_k_S]", "adjunction-p-q",
     "t-module-round-trip"],
)
def test_top_level_certificates_without_mismatch_do_not_replay(reports, tmp_path, claim):
    # hom-formula-1 is the hom-dim-without-mismatch case above
    v = _verdict(reports["a2"], claim)
    cert = _agreeing_certificate(claim)
    v["certificates"].append(cert)
    result = _replay(tmp_path, "a2", [v])
    assert result.exit_code == 2, result.output
    assert result.output == f"REPLAY FAIL {claim}: certificates[0]: {cert['clause']} did not replay\n"


def _off_by_one(name):
    """A patch of ``verify.name`` that adds 1 to what it returns."""
    original = getattr(verify, name)
    return lambda fx: [(verify, name, lambda *args: original(*args) + 1)]


def _shifted_predictions(fx):
    shifted = lambda *args: [(shape, n + 1) for shape, n in tensor_shape_predictions(*args)]  # noqa: E731
    return [(verify, "tensor_shape_predictions", shifted), (tasks, "tensor_shape_predictions", shifted)]


def _flipped_over_t(fx):
    """d_sigma_member, negated for presentations over T."""
    flipped = lambda pres, m: d_sigma_member(pres, m) != (pres.target.algebra == fx.t)  # noqa: E731
    return [(verify, "d_sigma_member", flipped)]


def _never_isomorphic(fx):
    return [(verify, "comma_is_isomorphic", lambda *args: IsoResult(False))]


@pytest.mark.parametrize(
    "claim_family, patches, clause",
    [
        ("hom_formulas", _off_by_one("hom_formula"), "hom-dim-mismatch"),
        ("tensor", _off_by_one("tensor_T_bruteforce"), "tensor-oracle-mismatch"),
        ("tensor", _shifted_predictions, "tensor-dim-mismatch"),
        ("presentation_decomposition", _flipped_over_t, "decomposition-mismatch"),
        ("adjunctions", _off_by_one("hom_dim"), "adjunction-mismatch"),
        ("round_trip", _never_isomorphic, "roundtrip-failure"),
    ],
    ids=["hom-dim", "tensor-oracle", "tensor-dim", "decomposition", "adjunction", "round-trip"],
)
def test_top_level_mismatches_replay(monkeypatch, claim_family, patches, clause):
    """A claim computed with a broken primitive records certificates, and
    replay, which recomputes its facts through the same primitive, accepts
    every one: the rechecks read each field the claims write."""
    fx = load_fixture("a2")
    for module, name, value in patches(fx):
        monkeypatch.setattr(module, name, value)
    verdicts = [v.to_dict() for v in getattr(tasks, f"_claim_{claim_family}")(fx)]
    verdicts = [v for v in verdicts if any(c["clause"] == clause for c in v["certificates"])]
    assert verdicts
    failures, checked = tasks.replay_report({"tasks": [{"verdicts": verdicts}]}, fx)
    assert failures == [] and checked == sum(len(v["certificates"]) for v in verdicts)


def _field_cases(reports):
    """(fixture, clause, field, mutation) for every required field of every
    clause in the fixture reports: deleted, and given a value of the wrong type."""
    cases, seen = [], set()
    for name, report in reports.items():
        for v in _verdicts(report):
            for cert, _ in _certificates(v):
                if cert["clause"] in seen:
                    continue
                seen.add(cert["clause"])
                for key in ["clause", *CLAUSES[cert["clause"]].fields]:
                    wrong = 0 if isinstance(cert[key], str) else "wrong"
                    cases.append((name, v["claim"], cert, key, None))
                    cases.append((name, v["claim"], cert, key, wrong))
    return cases


def test_missing_or_mistyped_certificate_fields_exit_2(reports, tmp_path):
    cases = _field_cases(reports)
    assert {case[2]["clause"] for case in cases} == {
        "converse-inclusion", "membership-mismatch", "perp-left", "perp-right", "self-membership",
        "torsion-sequence",
    }
    for fixture, claim, cert, key, wrong in cases:
        v = _verdict(reports[fixture], claim)
        target = next(c for c, _ in _certificates(v) if c == cert)
        if wrong is None:
            del target[key]
        else:
            target[key] = wrong
        result = _replay(tmp_path, fixture, [v])
        assert result.exit_code == 2, (claim, key, wrong, result.output)
        assert len(result.stderr.splitlines()) == 1, result.output
        expected = f"missing field {key!r}" if wrong is None else f".{key} must be"
        assert expected in result.stderr, (claim, key, wrong, result.stderr)


@pytest.mark.parametrize("value", [5, 99, -1, True])
def test_universe_index_out_of_range_exit_2(reports, tmp_path, value):
    # the a2 T-universe has 5 members
    v = _verdict(reports["a2"], "torsion-transfer-mono[c=(all,zero),d=(zero,all)]")
    next(c for c, _ in _certificates(v) if c["clause"] == "torsion-sequence")["module"] = value
    result = _replay(tmp_path, "a2", [v])
    assert result.exit_code == 2, result.output
    assert f".module must be an index below 5, got {value!r}" in result.stderr


def test_witness_entries_must_be_exact_int64_integers(reports, tmp_path):
    sub = _verdict(reports["a2"], "torsion-transfer-mono[c=(all,zero),d=(zero,all)]")
    sub["sub"][2]["certificates"].append(
        {"clause": "hom-vanishing", "x": 0, "y": 1, "hom_dim": 1, "witness": [[2 ** 70]]}
    )
    result = _replay(tmp_path, "a2", [sub])
    assert result.exit_code == 2, result.output
    assert ".witness: matrix: entry 1180591620717411303424 is not an exact integer" in result.stderr


@pytest.mark.parametrize("fixture, checked", [("a2", 19), ("dual-numbers", 95)])
def test_replay_counts_each_certificate_once(reports, tmp_path, fixture, checked):
    result = _replay(tmp_path, fixture, _verdicts(reports[fixture]))
    assert result.exit_code == 0, result.output
    assert result.output == f"all certificates replayed ({checked} checked)\n"


def test_final_corollaries_replay_rejects_a_presentation_of_another_module(tmp_path):
    """The final corollaries name a and b beside sigma_a and sigma_b, and
    replay checks them against the fixture's case as it does the silting
    transfers': the case has a = R, which triv_R presents, not k."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "dual-numbers.report.json"
    report = json.loads(reference.read_text())
    verdict = next(v for t in report["tasks"] for v in t.get("verdicts", []) if v["claim"] == "final-corollaries")
    assert verdict["data"]["params"]["sigma_a"] == "triv_R"
    verdict["data"]["params"]["a"] = "k"
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    result = CliRunner().invoke(main, ["validate", "--certificate", str(path)])
    assert (result.exit_code, result.stdout) == (2, "")
    message = "malformed report: final-corollaries: data.params.a: the fixture's case has 'R', the report 'k'"
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("fixture", ["a2", "dual-numbers"])
def test_the_fixture_cases_present_their_modules(fixture):
    """Replay trusts the fixture's own cases, so they are checked here: each
    silting case names presentations of its a and b, and each decomposition
    pair an R-presentation, then an S-presentation."""
    fx = load_fixture(fixture)
    cases = tasks._FIXTURE_CASES[fixture]
    for a, sigma_a, b, sigma_b in [*cases["transfer_cases"], cases["corollary_case"]]:
        assert fx.presentations[sigma_a].target == fx.r_universe[a]
        assert fx.presentations[sigma_b].target == fx.s_universe[b]
    for sigma_a, sigma_b in cases["decomposition_pairs"]:
        assert fx.presentations[sigma_a].target.algebra == fx.t.r
        assert fx.presentations[sigma_b].target.algebra == fx.t.s


def _swaps(verdicts, fx):
    """(verdict index, path, value) for each swap of a field that names the
    case of a verdict for another valid name of its kind, and for each swap of
    a claim for another claim of its family."""
    names = {"a": list(fx.r_universe), "b": list(fx.s_universe),
             "sigma_a": list(fx.presentations), "sigma_b": list(fx.presentations)}
    fields, claims = [], []
    for j, v in enumerate(verdicts):
        path = ("data", "params") if "params" in v["data"] else ("data",)
        for key, value in v["data"].get("params", v["data"]).items():
            options = names.get(key, ("zero", "all") if value in ("zero", "all") else ())
            fields.extend((j, (*path, key), other) for other in options if other != value)
        family = v["claim"].split("[")[0]
        claims.extend(
            (j, ("claim",), w["claim"])
            for w in verdicts
            if w is not v and "[" in v["claim"] and w["claim"].split("[")[0] == family
        )
    return fields, claims


def test_every_swapped_case_is_refused():
    """A report is replayed against the case its claim names, so no field that
    names a case and no claim can be swapped for another valid one of the
    fixture; a swapped presentation over the other algebra used to crash."""
    text = (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "dual-numbers.report.json").read_text()
    fx = load_fixture("dual-numbers")
    verify_all = lambda report: next(t for t in report["tasks"] if t["kind"] == "verify-all")["verdicts"]  # noqa: E731
    assert replay_report(json.loads(text), fx) == ([], 95)
    fields, claims = _swaps(verify_all(json.loads(text)), fx)
    assert (len(fields), len(claims)) == (145, 56)
    accepted = []
    for j, path, value in fields + claims:
        report = json.loads(text)
        obj = verify_all(report)[j]
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
        try:
            replay_report(report, fx)
        except MalformedReport:
            continue
        accepted.append((j, path, value))
    assert accepted == []

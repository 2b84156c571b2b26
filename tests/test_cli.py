import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from commacat import cli
from commacat.cli import main
from commacat.document import DocumentError, parse_document
from tests.test_document import SILTING_TRANSFER_MISFIT, _set, _task, sample_document

ROOT = Path(__file__).resolve().parents[1]
DUAL_NUMBERS_REPORT = ROOT / "perfbench" / "data" / "dual-numbers.report.json"


@pytest.fixture()
def runner():
    return CliRunner()


def test_run_requires_source(runner):
    result = runner.invoke(main, ["run"])
    assert result.exit_code == 2


def test_run_takes_a_document_or_a_fixture_not_both(runner, tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text("{}")
    result = runner.invoke(main, ["run", str(doc_path), "--fixture", "a2"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "error: provide a document path or --fixture, not both\n"


def test_hom_table_a2_json(runner):
    result = runner.invoke(main, ["run", "--fixture", "a2", "--task", "hom-table"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    task = report["tasks"][0]
    assert task["labels"] == ["0", "S_R", "S_S", "P", "N"]
    assert task["table"] == [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1],
        [0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 1, 2],
    ]


# sha256 of `commacat run --fixture NAME --format json`: a change that alters
# any verdict, witness or certificate must update these deliberately.
REPORT_SHA256 = {
    "a2": "5df459533ee98821e8e07854e69f7ef9b3d4b6d42ce5dcb3e8df8d3111e60bf6",
    "dual-numbers": "b662951a7a8fcb7aac94b91f058b29358c63a72f1174267cfd7dbd339162880c",
}


@pytest.mark.parametrize("fixture", sorted(REPORT_SHA256))
def test_fixture_report_is_byte_identical(runner, fixture):
    result = runner.invoke(main, ["run", "--fixture", fixture, "--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == REPORT_SHA256[fixture]


def test_verify_all_deterministic(runner):
    first = runner.invoke(main, ["run", "--fixture", "a2", "--task", "verify-all"])
    second = runner.invoke(main, ["run", "--fixture", "a2", "--task", "verify-all"])
    assert first.exit_code == 0 and second.exit_code == 0
    assert first.output == second.output
    report = json.loads(first.output)
    claims = [v["claim"] for v in report["tasks"][0]["verdicts"]]
    assert "hom-formula-1" in claims
    assert any(c.startswith("torsion-transfer-mono") for c in claims)


def test_verify_all_text_format(runner):
    result = runner.invoke(main, ["run", "--fixture", "a2", "--task", "verify-all", "--format", "text"])
    assert result.exit_code == 0
    assert "[PASS] hom-formula-1" in result.output
    assert "[FAIL]" in result.output  # the refuted transfer instances


def test_unknown_task_exits_3(runner):
    result = runner.invoke(main, ["run", "--fixture", "a2", "--task", "bogus"])
    assert result.exit_code == 3


def test_run_document(runner, tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(sample_document()))
    result = runner.invoke(main, ["run", str(doc_path)])
    assert result.exit_code == 0, result.output
    report = json.loads(result.output)
    by_name = {t["name"]: t for t in report["tasks"]}
    assert by_name["homs"]["table"][1][1] == 1
    assert by_name["tp"]["verdicts"][0]["result"] == "holds"
    assert by_name["silt"]["holds"] is False  # k is not silting for sigma = (.x)
    assert by_name["dsm"]["member"] is False
    assert by_name["gm"]["member"] is True


def test_run_document_task_filter(runner, tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(sample_document()))
    result = runner.invoke(main, ["run", str(doc_path), "--task", "homs"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert [t["name"] for t in report["tasks"]] == ["homs"]


@pytest.mark.parametrize("filters", [["nope"], ["homs", "nope"]], ids=["alone", "beside-a-match"])
def test_document_task_filter_that_matches_nothing_exits_3(runner, tmp_path, filters):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(sample_document()))
    result = runner.invoke(main, ["run", str(doc_path), *(arg for f in filters for arg in ("--task", f))])
    assert (result.exit_code, result.stdout) == (3, "")
    message = "unknown document task 'nope': no task of the document has that name or kind"
    assert result.stderr == f"task error: {message}\n"


def test_run_document_rejects_max_dim(runner, tmp_path):
    # a document lists its universes, so there is no comma universe for the bound to reach
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(sample_document()))
    result = runner.invoke(main, ["run", str(doc_path), "--max-dim", "0"])
    assert (result.exit_code, result.stdout) == (2, "")
    message = "--max-dim bounds a fixture's comma universe; a document lists its own universes"
    assert result.stderr == f"error: {message}\n"


def test_bimodule_that_breaks_the_module_law_is_invalid(runner, tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(_set("bimodules", "U", left_action=[[[0]]])(sample_document())))
    result = runner.invoke(main, ["validate", str(doc_path)])
    assert result.exit_code == 2
    assert "INVALID bimodules.U: invalid bimodule: {'kind': 'left-unit'}\n" in result.stdout
    assert runner.invoke(main, ["run", str(doc_path)]).exit_code == 2


def _replay_edited_reference(runner, tmp_path, claim, edit):
    """``validate --certificate`` on the reference dual-numbers report, after
    ``edit`` of the data of its verdict ``claim``."""
    report = json.loads(DUAL_NUMBERS_REPORT.read_text())
    verify_all = next(t for t in report["tasks"] if t["kind"] == "verify-all")
    edit(next(v for v in verify_all["verdicts"] if v["claim"] == claim)["data"])
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(report))
    return runner.invoke(main, ["validate", "--certificate", str(report_path)])


def test_replay_rejects_a_presentation_of_another_module(runner, tmp_path):
    """Transfer parameters name a module beside its presentation, and replay
    checks both against the fixture's case: triv_R presents R, not a = k."""
    claim = "silting-transfer[a=k,b=k]"
    result = _replay_edited_reference(runner, tmp_path, claim, lambda data: data["params"].update(sigma_a="triv_R"))
    assert (result.exit_code, result.stdout) == (2, "")
    message = f"malformed report: {claim}: data.params.sigma_a: the fixture's case has 'k_from_x', the report 'triv_R'"
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("family", ["presentation-decomposition", "torsion-class-decomposition"])
def test_replay_rejects_a_decomposition_over_the_other_algebra(runner, tmp_path, family):
    """A decomposition claim whose sigma_a names the S-presentation triv_k_S
    is one error line and exit 2, not a traceback from mixing the algebras."""
    claim = f"{family}[k_from_x,triv_k_S]"
    result = _replay_edited_reference(runner, tmp_path, claim, lambda data: data.update(sigma_a="triv_k_S"))
    assert (result.exit_code, result.stdout) == (2, "")
    message = f"malformed report: {claim}: data.sigma_a: the fixture's case has 'k_from_x', the report 'triv_k_S'"
    assert result.stderr == f"error: {message}\n"


def test_run_invalid_document_exit_2(runner, tmp_path):
    data = sample_document()
    data["comma_objects"]["bad"] = {"bimodule": "U", "A": "missing", "B": "Sk", "phi": [[0]]}
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["run", str(doc_path)])
    assert result.exit_code == 2


@pytest.mark.parametrize("p", [65536, 2 ** 61 - 1])
def test_run_unusable_modulus_exit_2(runner, tmp_path, p):
    data = sample_document()
    data["field"]["p"] = p
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["run", str(doc_path)])
    assert result.exit_code == 2
    assert "validation failure: field.p:" in result.stderr


def test_validate_pristine(runner, tmp_path):
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(sample_document()))
    result = runner.invoke(main, ["validate", str(doc_path)])
    assert result.exit_code == 0
    assert "valid" in result.output


def test_validate_broken_algebra(runner, tmp_path):
    data = sample_document()
    data["algebras"]["R"]["mul"][1][0][1] = 0
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["validate", str(doc_path)])
    assert result.exit_code == 2
    assert "INVALID algebras.R" in result.output


def test_validate_broken_phi(runner, tmp_path):
    data = sample_document()
    data["comma_objects"]["bad_phi"] = {
        "bimodule": "U",
        "A": "RR",
        "B": "Sk",
        "phi": [[1, 1]],
    }
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(data))
    result = runner.invoke(main, ["validate", str(doc_path)])
    assert result.exit_code == 2
    assert "bad_phi" in result.output


def test_certificate_replay_roundtrip(runner, tmp_path):
    result = runner.invoke(main, ["run", "--fixture", "a2", "--task", "verify-all"])
    assert result.exit_code == 0
    report_path = tmp_path / "report.json"
    report_path.write_text(result.output)
    replay = runner.invoke(main, ["validate", "--certificate", str(report_path)])
    assert replay.exit_code == 0, replay.output
    assert "all certificates replayed" in replay.output


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "payload",
    [
        [1, 2],
        {**sample_document(), "modules": list(sample_document()["modules"].values())},
        _set("modules", "Rk", action=5)(sample_document()),
        _set("bimodules", "U", dim=True)(sample_document()),
        _task(kind="hom-table", name="h", universe="nope")(sample_document()),
        _task(kind="bogus")(sample_document()),
        _task(**SILTING_TRANSFER_MISFIT)(sample_document()),
    ],
    ids=["root-array", "modules-array", "module-action-int", "bimodule-dim-bool", "task-universe",
         "task-kind", "task-sigma-misfit"],
)
def test_malformed_document_shape_exit_2(runner, tmp_path, command, payload):
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(payload))
    result = runner.invoke(main, [command, str(doc_path)])
    assert result.exit_code == 2, result.output


def _with(families=(), universes=(), task=None, presentations=()):
    """The sample document with more families, universes and presentations, an
    S-presentation ``triv_Sk`` of Sk, and ``task`` as its only task."""
    data = sample_document()
    data["families"].update(families)
    data["universes"].update(universes)
    data["presentations"]["triv_Sk"] = {
        "source": "zeroS", "target": "Sk", "module": "Sk", "sigma": [[]], "witness": [[1]]
    }
    data["presentations"].update(presentations)
    data["tasks"] = [task]
    return data


COMMA_FAMILY = {"kind": "comma", "family": "U", "c": "all_r", "bimodule": "U", "universe": "ut"}
SILTING_TRANSFER = {"kind": "silting-transfer", "bimodule": "U", "a": "Rk", "sigma_a": "k_from_x", "b": "Sk",
                    "sigma_b": "triv_Sk", "r_universe": "ur", "s_universe": "us", "t_universe": "ut"}


def test_silting_transfer_task_over_matching_universes_parses():
    parse_document(_with(task=SILTING_TRANSFER))


@pytest.mark.parametrize(
    "payload, path",
    [
        (_with(universes={"mixed": ["Rk", "Sk"]}, task={"kind": "hom-table", "universe": "mixed"}),
         "universes.mixed[1]"),
        (_with(families={"gen_s": {"kind": "gen", "module": "Rk", "universe": "us"}},
               task={"kind": "is-torsion-class", "family": "gen_s", "universe": "us"}),
         "families.gen_s.module"),
        (_with(families={"cm": {**COMMA_FAMILY, "d": "gen_k"}},
               task={"kind": "is-torsion-pair", "x": "cm", "y": "cm", "universe": "ut"}),
         "families.cm.d"),
        (_with(families={"all_s": {"kind": "all", "universe": "us"},
                         "cx": {**COMMA_FAMILY, "family": "X", "d": "all_s"}},
               task={"kind": "is-torsion-pair", "x": "cx", "y": "cx", "universe": "ut"}),
         "families.cx.family"),
        (_with(task={"kind": "is-torsion-class", "family": "gen_k", "universe": "us"}), "tasks[0].family"),
        (_with(task={"kind": "gen-member", "generator": "Sk", "module": "Rk"}), "tasks[0].module"),
        (_with(task={"kind": "is-silting", "presentation": "k_from_x", "universe": "us"}), "tasks[0].universe"),
        (_with(task={"kind": "is-partial-silting", "presentation": "k_from_x", "universe": "us"}),
         "tasks[0].universe"),
        (_with(task={"kind": "d-sigma-member", "presentation": "k_from_x", "module": "Sk"}), "tasks[0].module"),
        (_with(task={**SILTING_TRANSFER, "r_universe": "us"}), "tasks[0].r_universe"),
        (_with(task={**SILTING_TRANSFER, "s_universe": "ur"}), "tasks[0].s_universe"),
        (_with(task={**SILTING_TRANSFER, "t_universe": "ur"}), "tasks[0].t_universe"),
        (_with(presentations={"s_id": {"source": "zeroR", "target": "Sk", "module": "Sk", "sigma": []}},
               task={**SILTING_TRANSFER, "sigma_b": "s_id"}),
         "presentations.s_id.source"),
        (_with(presentations={"s_r": {"source": "zeroS", "target": "Sk", "module": "Rk", "sigma": [[]],
                                      "witness": [[1]]}},
               task={"kind": "hom-table", "universe": "us"}),
         "presentations.s_r.module"),
    ],
    ids=["universe-over-two-algebras", "gen-module-off-universe", "comma-d-over-r", "comma-family-x",
         "task-family-off-universe", "gen-member-over-two-algebras", "silting-universe-off-presentation",
         "partial-silting-universe-off-presentation", "d-sigma-module-off-presentation",
         "transfer-r-universe-over-s", "transfer-s-universe-over-r", "transfer-t-universe-over-r",
         "presentation-source-over-r", "presentation-module-over-r"],
)
def test_algebra_or_side_mismatch_is_a_document_error(runner, tmp_path, payload, path):
    with pytest.raises(DocumentError) as err:
        parse_document(payload)
    assert err.value.path == path
    doc_path = tmp_path / "mismatch.json"
    doc_path.write_text(json.dumps(payload))
    result = runner.invoke(main, ["validate", str(doc_path)])
    assert result.exit_code == 2 and f"INVALID {path}: " in result.output
    result = runner.invoke(main, ["run", str(doc_path)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert f"validation failure: {path}: " in result.stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "a report must be a JSON object, got list"),
        ("{bad", "invalid JSON"),
        ('{"source": {"fixture": "nope"}, "tasks": []}', "unknown fixture 'nope'"),
        ('{"source": {"fixture": "a2"}, "tasks": 5}', "tasks must be a list, got int"),
        ('{"source": {"fixture": "a2"}, "tasks": [5]}', "tasks[0] must be an object, got int"),
        (
            '{"source": {"fixture": "a2"}, "tasks": [{"kind": "verify-all", "verdicts": 7}]}',
            "tasks[0].verdicts must be a list, got int",
        ),
        (
            '{"source": {"fixture": "a2"}, "tasks": [{"kind": "verify-all", "verdicts": '
            '[{"claim": "hom-formula-1", "certificates": [{}]}]}]}',
            "malformed report: hom-formula-1: certificates[0]: missing field 'source'",
        ),
        (
            '{"source": {"fixture": "a2"}, "tasks": [{"kind": "verify-all", "verdicts": '
            '[{"claim": "torsion-class-decomposition[triv_k_R,triv_k_S]"}]}]}',
            "malformed report: torsion-class-decomposition[triv_k_R,triv_k_S]: missing field 'data'",
        ),
        (
            '{"source": {"fixture": "a2"}, "tasks": [{"kind": "verify-all", "verdicts": '
            '[{"claim": "hom-formula-1", "certificates": [{"source": 999}]}]}]}',
            "malformed report: hom-formula-1: certificates[0].source must be str, got int",
        ),
        (
            '{"source": {"fixture": "a2"}, "tasks": [{"kind": "verify-all", "verdicts": '
            '[{"claim": "adjunction-p-q", "certificates": [{"a": "nope"}]}]}]}',
            "malformed report: adjunction-p-q: certificates[0].a: no entry 'nope' in the fixture",
        ),
        (
            '{"source": {"fixture": "a2"}, "tasks": [{"kind": "verify-all", "verdicts": '
            '[{"claim": "perp-transfer-mono[c=zero,d=zero]", "data": {"params": {"c": "some"}}}]}]}',
            "malformed report: perp-transfer-mono[c=zero,d=zero]: data.params.c: the fixture's case has 'zero', "
            "the report 'some'",
        ),
    ],
    ids=["array", "not-json", "unknown-fixture", "tasks-int", "task-int", "verdicts-int",
         "certificate-missing-field", "verdict-missing-data", "reference-wrong-type",
         "reference-unknown", "family-kind-unknown"],
)
def test_certificate_replay_of_malformed_report_exit_2(runner, tmp_path, text, message):
    report_path = tmp_path / "report.json"
    report_path.write_text(text)
    result = runner.invoke(main, ["validate", "--certificate", str(report_path)])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", [["run"], ["validate"], ["validate", "--certificate"]],
                         ids=["run", "validate", "certificate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["not-utf-8", "deeply-nested"],
)
def test_undecodable_input_is_one_line_exit_2(runner, tmp_path, command, content, message):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    result = runner.invoke(main, [*command, str(path)])
    assert result.exit_code == 2, result.output
    assert message in result.stderr
    assert len(result.stderr.splitlines()) == 1


@pytest.mark.parametrize("command", ["run"])
@pytest.mark.parametrize("option, value", [("--max-dim", "-3")])
def test_negative_caps_exit_2(runner, command, option, value):
    result = runner.invoke(main, [command, "--fixture", "dual-numbers", option, value])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.stderr


@pytest.mark.parametrize("command, options", [("run", ["--max-dim"]), ("validate", [])], ids=["run", "validate"])
def test_help_offers_only_the_settings_a_report_cannot_fix(runner, command, options):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert sorted(set(re.findall(r"--(?:iso-cap|max-dim)\b", result.output))) == options
    if options:
        assert "recorded in the report's source" in " ".join(result.output.split())


def test_max_dim_report_replays_without_the_flag(runner, tmp_path):
    report = runner.invoke(main, ["run", "--fixture", "dual-numbers", "--max-dim", "3"])
    assert report.exit_code == 0, report.output
    assert json.loads(report.stdout)["source"] == {"fixture": "dual-numbers", "max_dim": 3}
    report_path = tmp_path / "report.json"
    report_path.write_text(report.stdout)
    replay = runner.invoke(main, ["validate", "--certificate", str(report_path)])
    assert (replay.exit_code, replay.output) == (0, "all certificates replayed (71 checked)\n")


def test_max_dim_bounds_the_torsion_class_checks(runner):
    # sums and extensions stay within the bound the comma universe was built within
    report = runner.invoke(main, ["run", "--fixture", "dual-numbers", "--max-dim", "3"])
    assert report.exit_code == 0, report.output
    tasks = {t["kind"]: t for t in json.loads(report.stdout)["tasks"]}
    verdicts = tasks["verify-all"]["verdicts"]
    bounds = [
        sub["data"]["dimension_bound"]
        for v in verdicts if v["claim"].startswith("torsion-class-decomposition")
        for sub in v["sub"]
    ]
    assert bounds == [3] * 6
    results = [v["result"] for v in verdicts]
    assert [results.count(r) for r in ("holds", "fails", "out-of-scope")] == [31, 4, 4]


def test_max_dim_does_not_reach_a2(runner, tmp_path):
    # a2 lists its universe instead of generating it within the bound, so the
    # bound changes only the recorded source
    default = runner.invoke(main, ["run", "--fixture", "a2"])
    bounded = runner.invoke(main, ["run", "--fixture", "a2", "--max-dim", "0"])
    assert default.exit_code == bounded.exit_code == 0
    report = json.loads(bounded.stdout)
    assert report.pop("source") == {"fixture": "a2", "max_dim": 0}
    assert report == {k: v for k, v in json.loads(default.stdout).items() if k != "source"}
    report_path = tmp_path / "report.json"
    report_path.write_text(bounded.stdout)
    replay = runner.invoke(main, ["validate", "--certificate", str(report_path)])
    assert (replay.exit_code, replay.output) == (0, "all certificates replayed (19 checked)\n")


@pytest.mark.parametrize("value", [-1, True, "3", None], ids=["negative", "bool", "str", "null"])
def test_malformed_source_max_dim_is_one_line_exit_2(runner, tmp_path, value):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps({"source": {"fixture": "dual-numbers", "max_dim": value}, "tasks": []}))
    result = runner.invoke(main, ["validate", "--certificate", str(report_path)])
    assert result.exit_code == 2, result.output
    assert result.stderr == (
        f"error: malformed report: source.max_dim must be a non-negative int, got {value!r}\n"
    )


# F_2[x, y]/(x, y)^2 on the basis 1, x, y, and its simple module k^5: Hom(k^5, k^5)
# has dimension 25, so an explicit family's isomorphism search is past the cap.
WIDE_LOCAL_DOCUMENT = {
    "field": {"p": 2},
    "algebras": {
        "A": {
            "dim": 3,
            "mul": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                    [[0, 0, 1], [0, 0, 0], [0, 0, 0]]],
            "unit": [1, 0, 0],
        }
    },
    "modules": {
        "k5": {"algebra": "A", "side": "left", "dim": 5,
               "action": [[[int(i == j) for j in range(5)] for i in range(5)], [[0] * 5] * 5, [[0] * 5] * 5]}
    },
    "universes": {"u": ["k5"]},
    "families": {"k5s": {"kind": "explicit", "modules": ["k5"], "universe": "u"}},
    "tasks": [{"kind": "is-torsion-class", "family": "k5s", "universe": "u"}],
}


def test_iso_search_past_the_cap_is_one_task_error_line(runner, tmp_path):
    doc_path = tmp_path / "wide.json"
    doc_path.write_text(json.dumps(WIDE_LOCAL_DOCUMENT))
    result = runner.invoke(main, ["run", str(doc_path)])
    assert result.exit_code == 3, result.output
    assert result.stderr == "task error: hom space dimension 25 exceeds cap 16\n"


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize(
    "section, name, path",
    [("modules", "Rk", ("action", 0, 0, 0)), ("algebras", "R", ("unit", 0))],
    ids=["module-action", "algebra-unit"],
)
def test_entry_beyond_int64_exit_2(runner, tmp_path, command, section, name, path):
    payload = sample_document()
    target = payload[section][name]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = 2 ** 70
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(payload))
    result = runner.invoke(main, [command, str(doc_path)])
    assert result.exit_code == 2, result.output
    assert f"{section}.{name}" in result.output


HASHLIB_PROBE = """
import sys
from commacat.cli import main
try:
    main(["run", "--fixture", "a2"])
except SystemExit as done:
    code = done.code
sys.stderr.write(f"exit {code}, _hashlib loaded: {'_hashlib' in sys.modules}")
"""


def _process_env() -> dict[str, str]:
    """This environment with ``src`` on the path and stdout block-buffered, so
    a short report is first written by the flush at exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def _process(argv: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, env=_process_env(), timeout=300
    )


def test_cli_process_does_not_load_openssl_hashlib():
    """The universe hashes use the builtin sha256, so a CLI process never maps
    OpenSSL's libcrypto.  A fresh interpreter, since pytest loads hashlib."""
    done = _process(["-c", HASHLIB_PROBE])
    assert done.stderr.decode() == "exit 0, _hashlib loaded: False"
    assert hashlib.sha256(done.stdout).hexdigest() == REPORT_SHA256["a2"]


# Process-level tests: `python -m commacat.cli` runs through cli.entry, which
# flushes and leaves with os._exit instead of a normal interpreter exit.


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_process_stdout_is_the_cli_runner_output(runner, fmt):
    args = ["run", "--fixture", "a2", "--format", fmt]
    done = _process(["-m", "commacat.cli", *args])
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == runner.invoke(main, args).stdout_bytes


def test_process_exit_codes_and_error_lines(runner, tmp_path):
    data = sample_document()
    data["field"]["p"] = 65536
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(data))
    for args, code in [
        (["run", str(doc_path)], 2),
        (["run", "--fixture", "a2", "--task", "nope"], 3),
    ]:
        done = _process(["-m", "commacat.cli", *args])
        expected = runner.invoke(main, args)
        assert done.returncode == expected.exit_code == code
        assert done.stderr.decode() == expected.stderr
        assert done.stderr.count(b"\n") == 1


UNWRITABLE = {
    "run-json": ["run", "--fixture", "a2", "--format", "json"],
    # small enough to stay in the stdout buffer until the flush at exit
    "run-hom-table": ["run", "--fixture", "a2", "--task", "hom-table"],
    "replay": ["validate", "--certificate", str(DUAL_NUMBERS_REPORT)],
}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_stdout_is_one_error_line_exit_1(args):
    with open("/dev/full", "wb") as full:
        done = _process(["-m", "commacat.cli", *args], stdout=full)
    assert done.returncode == 1
    assert done.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("args", [UNWRITABLE["run-json"], UNWRITABLE["run-hom-table"]], ids=["run-json", "run-hom-table"])
def test_broken_pipe_exits_1_without_a_message(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _process(["-m", "commacat.cli", *args], stdout=write_end)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


EXIT_PROBE = """
import ast, sys
from commacat import cli
def main():
    raise SystemExit(ast.literal_eval(sys.argv[1]))
cli.main = main
cli.entry()
"""


@pytest.mark.parametrize("code, status, stderr", [("None", 0, b""), ("5", 5, b""), ("'stop'", 1, b"stop\n")])
def test_entry_reads_the_exit_status_as_the_interpreter_does(code, status, stderr):
    done = _process(["-c", EXIT_PROBE, code])
    assert (done.returncode, done.stderr) == (status, stderr)


def test_main_stays_the_click_group(capsys):
    """In-process callers (the CliRunner tests, the benchmark's tracer) call
    the group and get its SystemExit, never the hard exit of cli.entry."""
    with pytest.raises(SystemExit) as done:
        main.main(args=["run", "--fixture", "a2"], prog_name="commacat")
    assert done.value.code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == REPORT_SHA256["a2"]


def test_console_script_runs_entry():
    # a text match: tomllib is not in Python 3.10
    target = re.search(r'^commacat\s*=\s*"([\w.]+):(\w+)"\s*$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert target and target.groups() == ("commacat.cli", "entry")
    assert callable(getattr(cli, target.group(2)))

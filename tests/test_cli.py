import hashlib
import json

import pytest
from click.testing import CliRunner

from commacat.cli import main
from tests.test_document import _set, _task, sample_document


@pytest.fixture()
def runner():
    return CliRunner()


def test_run_requires_source(runner):
    result = runner.invoke(main, ["run"])
    assert result.exit_code == 2


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


def test_max_dim_env_var(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("COMMACAT_MAX_DIM", "2")
    result = runner.invoke(main, ["run", "--fixture", "dual-numbers", "--task", "hom-table"])
    assert result.exit_code == 0
    report = json.loads(result.output)
    # a cap of 2 shrinks the built comma universe
    assert len(report["tasks"][0]["labels"]) < 19


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
    ],
    ids=["root-array", "modules-array", "module-action-int", "bimodule-dim-bool", "task-universe",
         "task-kind"],
)
def test_malformed_document_shape_exit_2(runner, tmp_path, command, payload):
    doc_path = tmp_path / "bad.json"
    doc_path.write_text(json.dumps(payload))
    result = runner.invoke(main, [command, str(doc_path)])
    assert result.exit_code == 2, result.output


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
            '[{"claim": "torsion-class-decomposition[x,y]"}]}]}',
            "malformed report: torsion-class-decomposition[x,y]: missing field 'data'",
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
            "malformed report: perp-transfer-mono[c=zero,d=zero]: data.params.c: unknown basic family kind",
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


def _dual_numbers_target(command, tmp_path):
    """Arguments that make ``command`` load the dual-numbers fixture."""
    if command == "run":
        return ["run", "--fixture", "dual-numbers"]
    report_path = tmp_path / "report.json"
    report_path.write_text('{"source": {"fixture": "dual-numbers"}, "tasks": []}')
    return ["validate", "--certificate", str(report_path)]


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("option, value", [("--iso-cap", "-1"), ("--max-dim", "-3")])
def test_negative_caps_exit_2(runner, tmp_path, command, option, value):
    result = runner.invoke(main, [*_dual_numbers_target(command, tmp_path), option, value])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{option}'" in result.stderr


@pytest.mark.parametrize("command", ["run", "validate"])
def test_iso_cap_help_names_its_reach(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    assert "It reaches only that build" in " ".join(result.output.split())


def test_iso_cap_does_not_reach_the_tasks(runner):
    # a2 lists its comma universe, so no search is capped and the report is the default one
    result = runner.invoke(main, ["run", "--fixture", "a2", "--iso-cap", "0", "--format", "json"])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == REPORT_SHA256["a2"]


@pytest.mark.parametrize("command", ["run", "validate"])
def test_too_small_iso_cap_is_one_task_error_line(runner, tmp_path, command):
    # building the dual-numbers comma universe needs a comma isomorphism search
    result = runner.invoke(main, [*_dual_numbers_target(command, tmp_path), "--iso-cap", "0"])
    assert result.exit_code == 3, result.output
    assert result.stderr == "task error: comma hom dimension 1 exceeds cap 0\n"


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

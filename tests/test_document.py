import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commacat.document import (
    DocumentError,
    document_validation_report,
    parse_document,
)
from commacat.modules import IsoSearchCapExceeded
from commacat.tasks import TaskError, run_document


def sample_document() -> dict:
    """Dual-numbers data spelled out as a document."""
    return {
        "field": {"p": 2},
        "algebras": {
            "R": {
                "dim": 2,
                "mul": [
                    [[1, 0], [0, 1]],
                    [[0, 1], [0, 0]],
                ],
                "unit": [1, 0],
            },
            "S": {"dim": 1, "mul": [[[1]]], "unit": [1]},
        },
        "bimodules": {
            "U": {
                "s_algebra": "S",
                "r_algebra": "R",
                "dim": 1,
                "left_action": [[[1]]],
                "right_action": [[[1]], [[0]]],
            }
        },
        "modules": {
            "zeroR": {"algebra": "R", "side": "left", "dim": 0, "action": [[], []]},
            "zeroS": {"algebra": "S", "side": "left", "dim": 0, "action": [[]]},
            "Rk": {"algebra": "R", "side": "left", "dim": 1, "action": [[[1]], [[0]]]},
            "RR": {
                "algebra": "R",
                "side": "left",
                "dim": 2,
                "action": [[[1, 0], [0, 1]], [[0, 0], [1, 0]]],
            },
            "Sk": {"algebra": "S", "side": "left", "dim": 1, "action": [[[1]]]},
            "Xk": {"algebra": "R", "side": "right", "dim": 1, "action": [[[1]], [[0]]]},
            "Yk": {"algebra": "S", "side": "right", "dim": 1, "action": [[[1]]]},
        },
        "comma_objects": {
            "cP": {"bimodule": "U", "A": "Rk", "B": "Sk", "phi": [[1]]},
            "cN": {"bimodule": "U", "A": "Rk", "B": "Sk", "phi": [[0]]},
            "cA": {"bimodule": "U", "A": "Rk", "B": "zeroS", "phi": []},
            "cB": {"bimodule": "U", "A": "zeroR", "B": "Sk", "phi": []},
        },
        "right_t_modules": {
            "W": {"bimodule": "U", "X": "Xk", "Y": "Yk", "psi": [[1]]}
        },
        "presentations": {
            "k_from_x": {
                "source": "RR",
                "target": "RR",
                "module": "Rk",
                "sigma": [[0, 0], [1, 0]],
                "witness": [[1, 0]],
            }
        },
        "universes": {
            "ur": ["zeroR", "Rk", "RR"],
            "us": ["zeroS", "Sk"],
            "ut": ["cP", "cN", "cA", "cB"],
        },
        "families": {
            "all_r": {"kind": "all", "universe": "ur"},
            "zero_r": {"kind": "zero", "universe": "ur"},
            "gen_k": {"kind": "gen", "module": "Rk", "universe": "ur"},
            "d_sig": {"kind": "d_sigma", "presentation": "k_from_x", "universe": "ur"},
            "perp_k": {"kind": "perp_right", "of": "gen_k", "universe": "ur"},
        },
        "tasks": [
            {"kind": "hom-table", "name": "homs", "universe": "ur"},
            {"kind": "is-torsion-pair", "name": "tp", "x": "zero_r", "y": "all_r", "universe": "ur"},
            {"kind": "is-silting", "name": "silt", "presentation": "k_from_x", "universe": "ur"},
            {"kind": "d-sigma-member", "name": "dsm", "presentation": "k_from_x", "module": "Rk"},
            {"kind": "gen-member", "name": "gm", "generator": "RR", "module": "Rk"},
        ],
    }


def test_parse_sample():
    doc = parse_document(sample_document())
    assert doc.p == 2
    assert set(doc.algebras) == {"R", "S"}
    assert doc.modules["RR"].dim == 2
    assert doc.comma_objects["cP"].phi.tolist() == [[1]]
    assert len(doc.universes["ut"]) == 4
    assert doc.families["gen_k"].contains(doc.modules["Rk"])
    assert not doc.families["gen_k"].contains(doc.modules["RR"])


def test_perp_family_takes_its_generators_from_the_universe_of_its_family():
    # Gen(Rk) over {0, Rk} has Rk as a member, so its right perp over {0, RR}
    # keeps only 0 (Hom(Rk, RR) is the socle); over {0, RR} itself Gen(Rk)
    # would have no nonzero member and the perp would keep RR too.
    data = sample_document()
    data["universes"]["u_k"] = ["zeroR", "Rk"]
    data["universes"]["u_r"] = ["zeroR", "RR"]
    data["families"]["gen_k_small"] = {"kind": "gen", "module": "Rk", "universe": "u_k"}
    data["families"]["perp_k_on_r"] = {"kind": "perp_right", "of": "gen_k_small", "universe": "u_r"}
    data["tasks"] = [{"kind": "is-torsion-class", "name": "tc", "family": "perp_k_on_r", "universe": "u_r"}]
    [task] = run_document(parse_document(data))
    assert task["verdicts"][0]["data"]["members"] == [0]


def test_unresolved_reference():
    data = sample_document()
    data["comma_objects"]["bad"] = {"bimodule": "U", "A": "missing", "B": "Sk", "phi": [[0]]}
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert "comma_objects.bad" in str(err.value)
    assert "missing" in str(err.value)


@pytest.mark.parametrize("p", [65536, 2 ** 61 - 1])
def test_modulus_rejected_at_field_p(p):
    data = sample_document()
    data["field"]["p"] = p
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert err.value.path == "field.p"


def test_flipped_structure_constant_reported():
    data = sample_document()
    data["algebras"]["R"]["mul"][1][0][1] = 0  # x*1 = 0 breaks the unit axiom
    report = document_validation_report(data)
    assert not report["valid"]
    assert any("algebras.R" in v["path"] for v in report["violations"])


def test_phi_balance_violation_reported():
    data = sample_document()
    # phi on (RR, Sk): the full tensor space is 2-dimensional and u (x) x
    # lies in the balancing subspace, so phi = [1, 1] cannot descend
    data["comma_objects"]["bad_phi"] = {
        "bimodule": "U",
        "A": "RR",
        "B": "Sk",
        "phi": [[1, 1]],
    }
    report = document_validation_report(data)
    assert not report["valid"]
    assert any("bad_phi" in v["path"] and "balance" in v["message"] for v in report["violations"])


def test_dimension_mismatch_reported():
    data = sample_document()
    data["modules"]["Rk"]["action"] = [[[1, 0]], [[0]]]
    report = document_validation_report(data)
    assert not report["valid"]
    assert any("modules.Rk" in v["path"] for v in report["violations"])


def test_inexact_presentation_rejected():
    data = sample_document()
    data["presentations"]["k_from_x"]["sigma"] = [[0, 0], [0, 0]]
    report = document_validation_report(data)
    assert not report["valid"]
    assert any("presentations.k_from_x" in v["path"] for v in report["violations"])


def test_multiple_violations_collected():
    data = sample_document()
    data["modules"]["Rk"]["action"] = [[[1, 0]], [[0]]]
    data["comma_objects"]["bad"] = {"bimodule": "U", "A": "missing", "B": "Sk", "phi": [[0]]}
    report = document_validation_report(data)
    assert len(report["violations"]) >= 2


def _set(section, name, **fields):
    """A mutation that overwrites fields of one section entry."""
    def mutate(d):
        d[section][name].update(fields)
        return d
    return mutate


# A silting-transfer task whose presentations present neither its a nor its b.
SILTING_TRANSFER_MISFIT = {
    "kind": "silting-transfer", "name": "st", "bimodule": "U", "a": "RR", "sigma_a": "k_from_x", "b": "Sk",
    "sigma_b": "k_from_x", "r_universe": "ur", "s_universe": "us", "t_universe": "ut",
}


def _task(**task):
    """A mutation that appends one task (it becomes tasks[5])."""
    def mutate(d):
        d["tasks"].append(task)
        return d
    return mutate


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: [d], "$"),
        (lambda d: {**d, "modules": list(d["modules"].values())}, "modules"),
        (lambda d: {**d, "universes": "all"}, "universes"),
        (lambda d: {**d, "families": []}, "families"),
        (lambda d: {**d, "modules": {**d["modules"], "Rk": [1]}}, "modules.Rk"),
        (lambda d: {**d, "universes": {**d["universes"], "bad": {"of": "RR"}}}, "universes.bad"),
        (_set("modules", "Rk", action=5), "modules.Rk.action"),
        (_set("modules", "Rk", dim=True), "modules.Rk.dim"),
        (_set("bimodules", "U", dim=True), "bimodules.U.dim"),
        (_set("bimodules", "U", right_action=None), "bimodules.U.right_action"),
        (_set("comma_objects", "cP", A=["Rk"]), "comma_objects.cP"),
        (_set("presentations", "k_from_x", module={"a": 1}), "presentations.k_from_x.module"),
        (lambda d: {**d, "universes": {"ur": [["Rk"]]}}, "universes.ur[0]"),
        (_set("families", "zero_r", kind="explicit", modules=5), "families.zero_r.modules"),
        (_task(kind="hom-table", name="h", universe="nope"), "tasks[5].universe"),
        (_task(kind="is-torsion-pair", x="zero_r", y="nope", universe="ur"), "tasks[5].y"),
        (_task(kind="is-silting", presentation="nope", universe="ur"), "tasks[5].presentation"),
        (_task(kind="gen-member", generator="RR", module="cP"), "tasks[5].module"),
        (_task(kind="silting-transfer", bimodule="V"), "tasks[5].bimodule"),
        (_task(**SILTING_TRANSFER_MISFIT), "tasks[5].sigma_a"),
        (_task(**{**SILTING_TRANSFER_MISFIT, "a": "Rk"}), "tasks[5].sigma_b"),
        (_task(kind="bogus"), "tasks[5].kind"),
        (_task(kind=["hom-table"]), "tasks[5].kind"),
    ],
    ids=["root-array", "modules-array", "universes-string", "families-empty-array", "module-entry", "universe-entry",
         "action-int", "module-dim-bool", "bimodule-dim-bool", "right-action-null",
         "comma-A-list", "presentation-module-object", "universe-name-list", "family-modules-int",
         "task-universe", "task-family", "task-presentation", "task-module-is-comma", "task-bimodule",
         "task-sigma-a-misfit", "task-sigma-b-misfit", "task-kind-unknown", "task-kind-list"],
)
def test_malformed_shape_raises_document_error(mutate, path):
    data = mutate(sample_document())
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert err.value.path == path
    report = document_validation_report(data)
    assert not report["valid"]
    assert any(v["path"] == path for v in report["violations"])


def _put(section, name, *path, value):
    """A mutation that sets one entry inside a section entry, by index path."""
    def mutate(d):
        target = d[section][name]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d
    return mutate


@pytest.mark.parametrize(
    "mutate, path, message",
    [
        (_put("modules", "Rk", "action", 0, 0, 0, value=2 ** 70), "modules.Rk.action[0]", "int64 range"),
        (_put("modules", "Rk", "action", 0, 0, 0, value=-(2 ** 63) - 1), "modules.Rk.action[0]", "int64 range"),
        (_put("modules", "Rk", "action", 0, 0, 0, value=1.5), "modules.Rk.action[0]", "entry 1.5"),
        (_put("modules", "Rk", "action", 0, 0, 0, value=True), "modules.Rk.action[0]", "entry True"),
        (_put("modules", "RR", "action", 1, 1, value=[1, True]), "modules.RR.action[1]", "entry True"),
        (_put("comma_objects", "cP", "phi", 0, 0, value=1.0), "comma_objects.cP.phi", "entry 1.0"),
        (_put("algebras", "R", "unit", 0, value=2 ** 70), "algebras.R", "unit: entry"),
        (_put("algebras", "R", "mul", 0, 0, 0, value=True), "algebras.R", "mul: entry True"),
    ],
    ids=["action-2**70", "action-below-int64", "action-float", "action-bool", "action-bool-in-row", "phi-float",
         "unit-2**70", "mul-bool"],
)
def test_matrix_entries_must_be_exact_int64_integers(mutate, path, message):
    data = mutate(sample_document())
    with pytest.raises(DocumentError) as err:
        parse_document(data)
    assert err.value.path == path
    assert message in err.value.message


@pytest.mark.parametrize(
    "mutate, path, message",
    [
        (_set("modules", "Rk", action=[[[1]]]), "modules.Rk", "need 2 action matrices, got 1"),
        (_set("modules", "zeroR", action=[]), "modules.zeroR", "need 2 action matrices, got 0"),
        (_set("bimodules", "U", left_action=[[[1]], [[1]]]), "bimodules.U", "need 1 action matrices, got 2"),
        (_set("bimodules", "U", right_action=[[[1]]]), "bimodules.U", "need 2 action matrices, got 1"),
        # entry-free, so only the count can refuse it
        (_set("bimodules", "U", dim=0, left_action=[], right_action=[[], []]), "bimodules.U",
         "need 1 action matrices, got 0"),
    ],
    ids=["module", "zero-module", "bimodule-left", "bimodule-right", "zero-bimodule"],
)
def test_a_wrong_action_count_is_refused_at_its_entry(mutate, path, message):
    with pytest.raises(DocumentError) as err:
        parse_document(mutate(sample_document()))
    assert (err.value.path, err.value.message) == (path, message)


def _paths(value, path=()):
    """The path of every entry inside a JSON value."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([2 ** 63, 2 ** 70, -(2 ** 63) - 1])
    | st.floats(allow_nan=False) | st.sampled_from(["", "Rk", "ur", "all", "left"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["dim", "kind", "a"]), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_document_mutations_raise_only_document_errors(data):
    doc = sample_document()
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        if data.draw(st.booleans()):
            owner[path[-1]] = data.draw(_JSON)
        else:
            del owner[path[-1]]
    try:
        parse_document(doc)
    except DocumentError:
        pass


def rich_document() -> dict:
    """The sample document with an S-presentation ``triv_Sk`` of Sk, a comma
    family, and a T hom-table, torsion-class, torsion-pair-oracle,
    partial-silting and silting-transfer task."""
    data = sample_document()
    data["presentations"]["triv_Sk"] = {
        "source": "zeroS", "target": "Sk", "module": "Sk", "sigma": [[]], "witness": [[1]]
    }
    data["families"]["all_s"] = {"kind": "all", "universe": "us"}
    data["families"]["comma_u"] = {
        "kind": "comma", "family": "U", "c": "all_r", "d": "all_s", "bimodule": "U", "universe": "ut"
    }
    data["tasks"] += [
        {"kind": "hom-table", "name": "t-homs", "universe": "ut"},
        {"kind": "is-torsion-class", "name": "tc", "family": "comma_u", "universe": "ut"},
        {"kind": "torsion-pair-oracle", "name": "tpo", "x": "zero_r", "y": "all_r", "universe": "ur"},
        {"kind": "is-partial-silting", "name": "psilt", "presentation": "k_from_x", "universe": "ur"},
        {"kind": "silting-transfer", "name": "st", "bimodule": "U", "a": "Rk", "sigma_a": "k_from_x", "b": "Sk",
         "sigma_b": "triv_Sk", "r_universe": "ur", "s_universe": "us", "t_universe": "ut"},
    ]
    return data


_SECTIONS = ("algebras", "bimodules", "modules", "comma_objects", "presentations", "universes", "families")


def _references(data):
    """(path, section) of every string in ``data`` that names an entry of a section."""
    section_of = {name: section for section in _SECTIONS for name in data[section]}
    out = []
    for path in _paths(data):
        if path[-1] in ("kind", "name", "side") or path[0] == "families" and path[-1] == "family":
            continue
        value = data
        for key in path:
            value = value[key]
        if isinstance(value, str) and value in section_of:
            out.append((path, section_of[value]))
    return out


# Each swap puts another name of the same section at one reference of the rich document.
_SWAPS = st.lists(
    st.sampled_from(_references(rich_document())).flatmap(
        lambda ref: st.tuples(st.just(ref[0]), st.sampled_from(sorted(rich_document()[ref[1]])))
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(swaps=_SWAPS)
@example(swaps=[(("presentations", "triv_Sk", "source"), "zeroR")])
def test_reference_swaps_are_rejected_or_run(swaps):
    """A document that parses runs without a traceback: to a report, a TaskError
    or an IsoSearchCapExceeded."""
    data = rich_document()
    for path, name in swaps:
        owner = data
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = name
    try:
        doc = parse_document(data)
    except DocumentError:
        return
    try:
        run_document(doc)
    except (TaskError, IsoSearchCapExceeded):
        pass

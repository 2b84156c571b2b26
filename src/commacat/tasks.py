"""Task execution: named checks over a fixture or document, and replay.

``verify-all`` runs one verdict per claim family: the five Hom formulas,
the five tensor shapes plus the brute-force cross-check, componentwise
decomposition of presentation classes, the silting transfer, the
adjunction dimension identities, the perpendicular and torsion-pair
transfer statements on all zero/all family combinations, the closing
corollaries, and the T-module round trip.  Reports are plain dicts with
deterministic content.

Replay looks each verdict up by its whole claim in :func:`_cases`, which
lists every claim of a fixture from the same enumerations of cases that
the ``_claim_*`` builders decide: the decomposition pairs, the silting
cases, the perp and torsion combos of each side and the corollary case.
Each claim comes with the fields of ``data`` that name its case, its rule
and the rule's arguments, which the case has already built from the
fixture.  A rule returns the env of each verdict or sub-verdict whose
certificates it rechecks; one loop, :func:`replay_report`, compares the
recorded fields with the case's and then checks every certificate against
its clause in ``verify.CLAUSES``.  A claim that is no case of the fixture
or appears twice in one task, a recorded field that differs from the
case's, a certificate no rule reaches, or a field that is missing,
mistyped or names nothing raises :class:`MalformedReport`.  The
``_claim_*`` builders stay module-level functions called by name, so that
they can be wrapped one by one from outside (``perfbench/tracer.py``
does).
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Optional, Sequence

from .comma import (
    functor_h,
    functor_p,
    hom_comma_dim,
    hom_formula_applicable,
    sigma_for_p,
    tensor_shape_predictions,
)
from .document import Document, task_references
from .fixtures import Fixture
from .modules import gen_member, hom_dim
from .presentations import (
    Presentation,
    Verdict,
    d_sigma_member,
    is_partial_silting,
    is_silting,
    universe_hash,
)
from .torsion import (
    ModuleFamily,
    family_all,
    family_d_sigma,
    family_zero,
    is_torsion_class,
    is_torsion_pair,
    torsion_pair_oracle,
)
from .verify import (
    MalformedReport,
    adjunction_facts,
    check_certificate,
    check_field,
    comma_pair,
    corollary_families,
    decomposition_facts,
    disagree,
    hom_formula_facts,
    perp_transfer_families,
    round_trip_facts,
    silting_sides,
    tensor_oracle_facts,
    verify_final_corollaries,
    verify_partial_silting_transfer,
    verify_perp_transfer,
    verify_silting_transfer,
    verify_torsion_transfer,
)


class TaskError(RuntimeError):
    pass


_FIXTURE_CASES = {
    "a2": {
        "transfer_cases": [
            ("k", "triv_k_R", "k", "triv_k_S"),
            ("k", "triv_k_R", "0", "triv_0_S"),
        ],
        "decomposition_pairs": [("triv_k_R", "triv_k_S"), ("triv_0_R", "triv_k_S")],
        "corollary_case": ("k", "triv_k_R", "k", "triv_k_S"),
    },
    "dual-numbers": {
        "transfer_cases": [
            ("k", "k_from_x", "k", "triv_k_S"),
            ("R", "triv_R", "k", "triv_k_S"),
        ],
        "decomposition_pairs": [("k_from_x", "triv_k_S"), ("triv_R", "triv_k_S")],
        "corollary_case": ("R", "triv_R", "k", "triv_k_S"),
    },
}

_BASIC_FAMILY_KINDS = ("zero", "all")
_SIDES = ("mono", "adjoint")


def _basic_family(kind: str) -> ModuleFamily:
    return family_zero() if kind == "zero" else family_all()


def _universes(fx: Fixture) -> tuple[list, list, list]:
    """The R-, S- and T-universes of ``fx``, in the order the verifiers take them."""
    return fx.r_universe_list(), fx.s_universe_list(), fx.t_universe_list()


def _decomposition(fx: Fixture, sigma_a: Presentation, sigma_b: Presentation):
    """(sigma_A, sigma_B, sigma_T), sigma_T the T-presentation they give, and
    the classes D[sigma_T], D[sigma_A], D[sigma_B], each with its universe."""
    pres_t = sigma_for_p(fx.t, sigma_a, sigma_b)
    r_u, s_u, t_u = _universes(fx)
    classes = [
        (family_d_sigma(pres_t, label="D[sigma_T]"), t_u),
        (family_d_sigma(sigma_a, label="D[sigma_A]"), r_u),
        (family_d_sigma(sigma_b, label="D[sigma_B]"), s_u),
    ]
    return (sigma_a, sigma_b, pres_t), classes


# -- the cases of the claim families with parameters ----------------------------
# Each case is (claim suffix, the fields of ``data`` that name it, its
# arguments, already built: a verifier's, or a decomposition's).  The
# ``_claim_*`` builders decide every case and replay looks each claim up
# among them, so a case is written down once.


def _decomposition_cases(fx: Fixture):
    for name_a, name_b in _FIXTURE_CASES[fx.name]["decomposition_pairs"]:
        built = _decomposition(fx, fx.presentations[name_a], fx.presentations[name_b])
        yield f"[{name_a},{name_b}]", {"sigma_a": name_a, "sigma_b": name_b}, built


def _silting_case(fx: Fixture, case: tuple, suffix: str):
    a, sa_name, b, sb_name = case
    params = {"a": a, "sigma_a": sa_name, "b": b, "sigma_b": sb_name}
    return suffix, {"params": params}, (fx.t, fx.presentations[sa_name], fx.presentations[sb_name], *_universes(fx))


def _silting_cases(fx: Fixture):
    return [_silting_case(fx, case, f"[a={case[0]},b={case[2]}]") for case in _FIXTURE_CASES[fx.name]["transfer_cases"]]


def _corollary_case(fx: Fixture):
    return _silting_case(fx, _FIXTURE_CASES[fx.name]["corollary_case"], "")


def _perp_cases(fx: Fixture):
    for side, ck, dk in product(_SIDES, _BASIC_FAMILY_KINDS, _BASIC_FAMILY_KINDS):
        families = _basic_family(ck), _basic_family(dk)
        yield f"{side}[c={ck},d={dk}]", {"params": {"c": ck, "d": dk}}, (side, fx.t, *families, *_universes(fx))


def _torsion_cases(fx: Fixture):
    combos = [("zero", "all"), ("all", "zero")]
    for side, (c1k, c2k), (d1k, d2k) in product(_SIDES, combos, combos):
        params = {"c1": c1k, "c2": c2k, "d1": d1k, "d2": d2k}
        families = map(_basic_family, params.values())
        suffix = f"{side}[c=({c1k},{c2k}),d=({d1k},{d2k})]"
        yield suffix, {"params": params}, (side, fx.t, *families, *_universes(fx))


def _decided(cases, *verifiers: tuple[str, Callable[..., Verdict]]) -> list[Verdict]:
    """The verdict of each (name, verifier) on each case, named by its claim and
    recording the fields that name the case."""
    verdicts = []
    for suffix, record, args in cases:
        for name, verifier in verifiers:
            v = verifier(*args)
            v.claim = name + suffix
            v.data.update(record)
            verdicts.append(v)
    return verdicts


# -- verify-all claims --------------------------------------------------------


def _claim_hom_formulas(fx: Fixture) -> list[Verdict]:
    """Where Hom formula k applies to comma objects (X, Y), it gives dim Hom(X, Y), as do both Hom computations."""
    objs = list(fx.comma_universe.values())
    tmods = [fx.t_universe[c.label] for c in objs]
    verdicts = []
    for kind in range(1, 6):
        certs = []
        applicable = 0
        for x, tx in zip(objs, tmods):
            for y, ty in zip(objs, tmods):
                if not hom_formula_applicable(kind, x, y):
                    continue
                applicable += 1
                facts = hom_formula_facts(kind, x, y, tx, ty)
                if disagree(facts):
                    certs.append(
                        {"clause": "hom-dim-mismatch", "kind": kind, "source": x.label, "target": y.label, **facts}
                    )
        verdicts.append(
            Verdict(
                claim=f"hom-formula-{kind}",
                result="holds" if not certs else "fails",
                certificates=certs,
                data={"applicable_pairs": applicable},
                universe_hash=universe_hash(fx.t_universe_list()),
            )
        )
    return verdicts


def _claim_tensor(fx: Fixture) -> list[Verdict]:
    """Where tensor shape k applies to (X, Y, psi) and (A, B, phi), it gives dim of their tensor product over T;
    the tensor product over T has one dimension by the main, the brute-force and the algebra construction."""
    verdicts = []
    rts = list(fx.right_t_universe.values())
    objs = list(fx.comma_universe.values())
    per_shape: dict[int, list] = {k: [] for k in range(1, 6)}
    shape_counts = {k: 0 for k in range(1, 6)}
    agreement_certs = []
    for rt in rts:
        for c in objs:
            facts = tensor_oracle_facts(rt, c, fx.t)
            if disagree(facts):
                agreement_certs.append(
                    {"clause": "tensor-oracle-mismatch", "right_module": rt.label, "comma": c.label, **facts}
                )
            for shape, predicted in tensor_shape_predictions(rt, c):
                shape_counts[shape] += 1
                if predicted != facts["main"]:
                    per_shape[shape].append({
                        "clause": "tensor-dim-mismatch", "shape": shape, "right_module": rt.label, "comma": c.label,
                        "predicted": predicted, "computed": facts["main"],
                    })
    for shape in range(1, 6):
        verdicts.append(
            Verdict(
                claim=f"tensor-shape-{shape}",
                result="holds" if not per_shape[shape] else "fails",
                certificates=per_shape[shape],
                data={"applicable_pairs": shape_counts[shape]},
            )
        )
    verdicts.append(
        Verdict(
            claim="tensor-oracle-agreement",
            result="holds" if not agreement_certs else "fails",
            certificates=agreement_certs,
            data={"pairs": len(rts) * len(objs)},
        )
    )
    return verdicts


def _claim_presentation_decomposition(fx: Fixture) -> list[Verdict]:
    verdicts = []
    for suffix, record, (presentations, classes) in _decomposition_cases(fx):
        certs = []
        for label, m in fx.t_universe.items():
            facts = decomposition_facts(presentations, m, fx.t)
            if disagree(facts):
                certs.append({"clause": "decomposition-mismatch", "module": label, **facts})
        result = "holds" if not certs else "fails"
        t_hash = universe_hash(fx.t_universe_list())
        verdicts.append(
            Verdict(f"presentation-decomposition{suffix}", result, certs, data=record, universe_hash=t_hash)
        )
        lhs_tc, rhs_a, rhs_b = subs = [is_torsion_class(fam, u, max_dim=fx.max_dim) for fam, u in classes]
        data = {**record, "whole": lhs_tc.holds, "componentwise": rhs_a.holds and rhs_b.holds}
        result = "holds" if data["whole"] == data["componentwise"] else "fails"
        verdicts.append(Verdict(f"torsion-class-decomposition{suffix}", result, sub=subs, data=data))
    return verdicts


def _claim_silting_transfer(fx: Fixture) -> list[Verdict]:
    return _decided(
        _silting_cases(fx),
        ("silting-transfer", verify_silting_transfer),
        ("partial-silting-transfer", verify_partial_silting_transfer),
    )


def _claim_adjunctions(fx: Fixture) -> list[Verdict]:
    """p -| q -| h: dim Hom(p(A, B), C) = dim Hom(A, C_A) + dim Hom(B, C_B) (p-q), and dually for h (q-h)."""
    certs: dict[str, list] = {"p-q": [], "q-h": []}
    for a in fx.r_universe.values():
        for b in fx.s_universe.values():
            functors = {"p-q": functor_p(fx.t.u, a, b), "q-h": functor_h(fx.t.u, a, b)}
            for c in fx.comma_universe.values():
                for side, functor_ab in functors.items():
                    facts = adjunction_facts(side, functor_ab, a, b, c)
                    if disagree(facts):
                        certs[side].append(
                            {"clause": "adjunction-mismatch", "a": a.label, "b": b.label, "comma": c.label, **facts}
                        )
    n_pairs = len(fx.r_universe) * len(fx.s_universe) * len(fx.comma_universe)
    return [
        Verdict(f"adjunction-{side}", "holds" if not certs[side] else "fails", certs[side], data={"pairs": n_pairs})
        for side in ("p-q", "q-h")
    ]


def _claim_perp_transfer(fx: Fixture) -> list[Verdict]:
    return _decided(_perp_cases(fx), ("perp-transfer-", verify_perp_transfer))


def _claim_torsion_transfer(fx: Fixture) -> list[Verdict]:
    return _decided(_torsion_cases(fx), ("torsion-transfer-", verify_torsion_transfer))


def _claim_final_corollaries(fx: Fixture) -> list[Verdict]:
    return _decided([_corollary_case(fx)], ("final-corollaries", verify_final_corollaries))


def _claim_round_trip(fx: Fixture) -> list[Verdict]:
    """Each comma object C goes to a T-module and back to an isomorphic object, through an invertible witness."""
    certs = []
    for name, c in fx.comma_universe.items():
        facts = round_trip_facts(c, fx.t)
        if not all(facts.values()):
            certs.append({"clause": "roundtrip-failure", "comma": name, **facts})
    result = "holds" if not certs else "fails"
    return [Verdict("t-module-round-trip", result, certs, data={"objects": len(fx.comma_universe)})]


def verify_all(fx: Fixture) -> list[Verdict]:
    verdicts = []
    verdicts.extend(_claim_hom_formulas(fx))
    verdicts.extend(_claim_tensor(fx))
    verdicts.extend(_claim_presentation_decomposition(fx))
    verdicts.extend(_claim_silting_transfer(fx))
    verdicts.extend(_claim_adjunctions(fx))
    verdicts.extend(_claim_perp_transfer(fx))
    verdicts.extend(_claim_torsion_transfer(fx))
    verdicts.extend(_claim_final_corollaries(fx))
    verdicts.extend(_claim_round_trip(fx))
    return verdicts


# -- task running ----------------------------------------------------------------


def hom_table(fx: Fixture) -> dict:
    labels = list(fx.comma_universe)
    objs = list(fx.comma_universe.values())
    table = [[hom_comma_dim(x, y) for y in objs] for x in objs]
    return {"labels": labels, "table": table}


def run_fixture_task(fx: Fixture, name: str) -> dict:
    if name == "hom-table":
        result = hom_table(fx)
        return {"name": name, "kind": "hom-table", **result}
    if name == "verify-all":
        return {
            "name": name,
            "kind": "verify-all",
            "verdicts": [v.to_dict() for v in verify_all(fx)],
        }
    raise TaskError(f"unknown fixture task {name!r}; available: hom-table, verify-all")


_FIXTURE_TASK_NAMES = ("hom-table", "verify-all")


def run_fixture(fx: Fixture, tasks: Optional[Sequence[str]] = None) -> list[dict]:
    names = list(tasks) if tasks else list(_FIXTURE_TASK_NAMES)
    return [run_fixture_task(fx, n) for n in names]


def run_document_task(doc: Document, task: dict, index: int) -> dict:
    kind = task.get("kind")
    name = task.get("name", f"task{index}")
    ref = task_references(doc, task, f"tasks[{index}]")
    if kind == "hom-table":
        univ = ref["universe"]
        table = [[hom_dim(x, y) for y in univ] for x in univ]
        return {"name": name, "kind": kind, "labels": [m.label for m in univ], "table": table}
    if kind == "is-torsion-pair":
        v = is_torsion_pair(ref["x"], ref["y"], ref["universe"])
        return {"name": name, "kind": kind, "verdicts": [v.to_dict()]}
    if kind == "torsion-pair-oracle":
        v = torsion_pair_oracle(ref["x"], ref["y"], ref["universe"])
        return {"name": name, "kind": kind, "verdicts": [v.to_dict()]}
    if kind == "is-torsion-class":
        v = is_torsion_class(ref["family"], ref["universe"])
        return {"name": name, "kind": kind, "verdicts": [v.to_dict()]}
    if kind in ("is-silting", "is-partial-silting"):
        pres = ref["presentation"]
        if kind == "is-silting":
            v = is_silting(pres, ref["universe"])
            found = {"disagreements": [{k: x for k, x in c.items() if k != "clause"} for c in v.certificates]}
        else:
            v = is_partial_silting(pres, ref["universe"])
            found = {"failures": v.certificates}
        return {"name": name, "kind": kind, "holds": v.holds, **found, "universe_hash": v.universe_hash}
    if kind == "d-sigma-member":
        return {"name": name, "kind": kind, "member": d_sigma_member(ref["presentation"], ref["module"])}
    if kind == "gen-member":
        return {"name": name, "kind": kind, "member": gen_member(ref["generator"], ref["module"])}
    if kind == "silting-transfer":
        keys = ("bimodule", "sigma_a", "sigma_b", "r_universe", "s_universe", "t_universe")
        v = verify_silting_transfer(*(ref[key] for key in keys))
        return {"name": name, "kind": kind, "verdicts": [v.to_dict()]}
    raise TaskError(f"unknown task kind {kind!r}")


def run_document(doc: Document, task_filter: Optional[Sequence[str]] = None) -> list[dict]:
    """The results of the tasks whose name or kind is in ``task_filter`` (all without one); a TaskError,
    before any task runs, for a filter value that names no task and no task kind of the document."""
    keys = [(task.get("name", f"task{i}"), task.get("kind")) for i, task in enumerate(doc.tasks)]
    for wanted in task_filter or ():
        if not any(wanted in key for key in keys):
            raise TaskError(f"unknown document task {wanted!r}: no task of the document has that name or kind")
    chosen = [i for i, key in enumerate(keys) if not task_filter or any(k in task_filter for k in key)]
    return [run_document_task(doc, doc.tasks[i], i) for i in chosen]


# -- certificate replay -------------------------------------------------------------

# The clauses a torsion-pair or a torsion-class sub-verdict may carry.
_TORSION_PAIR = ("hom-vanishing", "torsion-sequence", "perp-right", "perp-left")
_TORSION_CLASS = ("image-closure", "sum-closure", "extension-closure")

# A replay rule maps (fixture, verdict, claim, *case arguments) to its
# sites: each verdict or sub-verdict whose certificates it rechecks, with the
# env they are rechecked in and the clauses they may carry.
Site = tuple[dict, dict, tuple[str, ...]]


def _subs(v: dict, claim: str, n: int) -> list[dict]:
    """The sub-verdicts of ``v``, which must be ``n``."""
    subs = v.get("sub", [])
    if len(subs) != n:
        raise MalformedReport(f"{claim}: expected {n} sub-verdicts, got {len(subs)}")
    return subs


def _top(fx: Fixture, v: dict, claim: str, clause: str, env: dict) -> list[Site]:
    """The one site of a claim whose certificates sit on the verdict itself."""
    return [(v, {"fixture": fx, **env}, (clause,))]


def _replay_presentation_decomposition(fx: Fixture, v: dict, claim: str, presentations, classes) -> list[Site]:
    """A T-module (A, B, phi) lies in D[sigma_T] iff A lies in D[sigma_A] and B in D[sigma_B]."""
    return _top(fx, v, claim, "decomposition-mismatch", {"presentations": presentations})


def _replay_torsion_class_decomposition(fx: Fixture, v: dict, claim: str, presentations, classes) -> list[Site]:
    """D[sigma_T] is a torsion class iff D[sigma_A] and D[sigma_B] are."""
    subs = _subs(v, claim, 3)
    return [(sub, {"universe": u, "family": fam}, _TORSION_CLASS) for sub, (fam, u) in zip(subs, classes)]


def _silting_sites(v: dict, claim: str, args: tuple, clauses: tuple[str, ...]) -> list[Site]:
    sides = zip(_subs(v, claim, 3), silting_sides(*args))
    return [(sub, {"universe": u, "presentation": pres}, clauses) for sub, (_, pres, u) in sides]


def _replay_silting_transfer(fx: Fixture, v: dict, claim: str, *args) -> list[Site]:
    """(0, B) + (A, FA) is silting over T iff A and B are silting and FA lies in Gen B."""
    return _silting_sites(v, claim, args, ("membership-mismatch",))


def _replay_partial_silting_transfer(fx: Fixture, v: dict, claim: str, *args) -> list[Site]:
    """(0, B) + (A, FA) is partial silting over T iff A and B are and FA lies in D[sigma_B]."""
    return _silting_sites(v, claim, args, ("self-membership",))


def _replay_perp_transfer(fx: Fixture, v: dict, claim: str, *args) -> list[Site]:
    """Mono side: (B^C_D)^perp = U^{C^perp}_{D^perp}, and B^{perp C}_{perp D} = perp(U^C_D) if S+ lies in D.
    Adjoint side: perp(J^C_D) = U^{perp C}_{perp D}, and J^{C^perp}_{D^perp} = (U^C_D)^perp if R lies in C.

    Fails on mono [c=zero,d=all]: the verifier finds S+ in D = all, and S_R
    lies in perp(U^0_all) but not in B^{perp 0}_{perp all}.

    Fails on adjoint [c=all,d=zero]: the verifier finds R in C = all, and
    S_S lies in (U^all_0)^perp but not in J^{all^perp}_{0^perp}.
    """
    lhs, rhs, small, large = perp_transfer_families(*args)
    t_u = args[-1]
    parts = [(lhs, rhs, "perp-equality"), (small, large, "forward-inclusion"), (large, small, "converse-inclusion")]
    return [
        (sub, {"universe": t_u, "lhs": x, "rhs": y}, (clause,))
        for sub, (x, y, clause) in zip(_subs(v, claim, 3), parts)
    ]


def _replay_torsion_transfer(fx: Fixture, v: dict, claim: str, *args) -> list[Site]:
    """Mono side: (C1, C2) and (D1, D2) are torsion pairs iff (B^{C1}_{D1}, U^{C2}_{D2}) is, if S+ lies in D2.
    Adjoint side: (C1, C2) and (D1, D2) are torsion pairs iff (U^{C1}_{D1}, J^{C2}_{D2}) is, if R lies in C1.

    Fails on mono [c=(all,zero),d=(zero,all)]: the verifier finds S+ in
    D2 = all and both component pairs hold, but S_R breaks the comma pair.

    Fails on adjoint [c=(all,zero),d=(zero,all)]: the verifier finds R in
    C1 = all and both component pairs hold, but S_S breaks the comma pair.
    """
    side, t, c1, c2, d1, d2, r_u, s_u, t_u = args
    x, y, _ = comma_pair(side, t, c1, c2, d1, d2)
    pairs = [(c1, c2, r_u), (d1, d2, s_u), (x, y, t_u)]
    return [
        (sub, {"universe": u, "x": px, "y": py}, _TORSION_PAIR)
        for sub, (px, py, u) in zip(_subs(v, claim, 3), pairs)
    ]


def _replay_final_corollaries(fx: Fixture, v: dict, claim: str, t, sigma_a, sigma_b, r_u, s_u, t_u) -> list[Site]:
    """Silting over T reduces to A for B = S and to B for A = 0; a silting pair induces two comma torsion pairs."""
    families = corollary_families(sigma_a.target, sigma_b.target)
    sites = []
    for sub in v.get("sub", []):
        for side in _SIDES:
            name = f"induced-torsion-pair-{side}"
            if sub["claim"] == name and sub.get("sub"):
                x, y, _ = comma_pair(side, t, *families)
                inner = _subs(sub, f"{claim}/{name}", 1)[0]
                sites.append((inner, {"universe": t_u, "x": x, "y": y}, _TORSION_PAIR))
    return sites


def _cases(fx: Fixture) -> dict[str, tuple[dict, Callable[..., list[Site]], tuple]]:
    """Each verify-all claim of ``fx``, in the order ``run`` writes them, with
    the fields of ``data`` that name its case, its replay rule and the case
    arguments that the rule takes after (fixture, verdict, claim)."""
    cases = {f"hom-formula-{k}": ({}, _top, ("hom-dim-mismatch", {"kind": k})) for k in range(1, 6)}
    for k in range(1, 6):
        cases[f"tensor-shape-{k}"] = ({}, _top, ("tensor-dim-mismatch", {"shape": k}))
    cases["tensor-oracle-agreement"] = ({}, _top, ("tensor-oracle-mismatch", {}))
    for suffix, record, args in _decomposition_cases(fx):
        cases[f"presentation-decomposition{suffix}"] = (record, _replay_presentation_decomposition, args)
        cases[f"torsion-class-decomposition{suffix}"] = (record, _replay_torsion_class_decomposition, args)
    for suffix, record, args in _silting_cases(fx):
        cases[f"silting-transfer{suffix}"] = (record, _replay_silting_transfer, args)
        cases[f"partial-silting-transfer{suffix}"] = (record, _replay_partial_silting_transfer, args)
    for side in ("p-q", "q-h"):
        cases[f"adjunction-{side}"] = ({}, _top, ("adjunction-mismatch", {"side": side}))
    for suffix, record, args in _perp_cases(fx):
        cases[f"perp-transfer-{suffix}"] = (record, _replay_perp_transfer, args)
    for suffix, record, args in _torsion_cases(fx):
        cases[f"torsion-transfer-{suffix}"] = (record, _replay_torsion_transfer, args)
    _, record, args = _corollary_case(fx)
    cases["final-corollaries"] = (record, _replay_final_corollaries, args)
    cases["t-module-round-trip"] = ({}, _top, ("roundtrip-failure", {}))
    return cases


def _check_record(obj: dict, record: dict, where: str) -> None:
    """Raise :class:`MalformedReport` unless ``obj`` records each field of ``record`` as it is."""
    for key, value in record.items():
        found = check_field(obj, key, type(value), {}, where)
        if type(value) is dict:
            _check_record(found, value, f"{where}.{key}")
        elif found != value:
            raise MalformedReport(f"{where}.{key}: the fixture's case has {value!r}, the report {found!r}")


def _items(obj: dict, key: str, where: str) -> list[dict]:
    """``obj[key]`` (absent: empty), which must be a list of JSON objects."""
    items = obj.get(key, [])
    if type(items) is not list:
        raise MalformedReport(f"{where}{key} must be a list, got {type(items).__name__}")
    for i, item in enumerate(items):
        if type(item) is not dict:
            raise MalformedReport(f"{where}{key}[{i}] must be an object, got {type(item).__name__}")
    return items


def _tree(v: dict, where: str):
    """(verdict, path, certificates) for each verdict of the tree under ``v``,
    whose lists are checked to be shaped as ``run`` writes them."""
    yield v, where, _items(v, "certificates", f"{where}: ")
    for k, sub in enumerate(_items(v, "sub", f"{where}: ")):
        claim = check_field(sub, "claim", str, {}, f"{where}: sub[{k}]")
        yield from _tree(sub, f"{where}/{claim}")


def replay_report(report: dict, fx: Fixture) -> tuple[list[str], int]:
    """Re-check every certificate of a report against the fixture's own cases.

    Each verdict is looked up by its whole claim in :func:`_cases`; the
    fields of its ``data`` that name the case must equal the case's, and its
    rule rechecks the certificates with the arguments the case built, never
    with names read from the report.  Returns the failure lines (empty means
    everything replayed) and the number of certificates rechecked.  Raises
    :class:`MalformedReport` for a list not shaped as ``run`` writes it, a
    claim that is no case of the fixture or that appears twice in one task,
    a recorded field that differs from its case's, a certificate that no
    site of its claim's rule reaches, and a field that is missing, mistyped
    or names nothing.
    """
    cases = _cases(fx)
    failures: list[str] = []
    checked = 0
    for i, task in enumerate(_items(report, "tasks", "")):
        seen = set()
        for j, v in enumerate(_items(task, "verdicts", f"tasks[{i}].")):
            claim = check_field(v, "claim", str, {}, f"tasks[{i}].verdicts[{j}]")
            if claim not in cases:
                raise MalformedReport(f"{claim}: unknown claim, no case of fixture {fx.name!r}")
            if claim in seen:
                raise MalformedReport(f"{claim}: the claim appears twice in tasks[{i}]")
            seen.add(claim)
            record, rule, args = cases[claim]
            if record:
                _check_record(check_field(v, "data", dict, {}, claim), record, f"{claim}: data")
            nodes = list(_tree(v, claim))
            sites = {id(node): (env, clauses) for node, env, clauses in rule(fx, v, claim, *args)}
            for node, where, certs in nodes:
                if not certs:
                    continue
                if id(node) not in sites:
                    raise MalformedReport(f"{where}: no replay rule rechecks these certificates")
                env, clauses = sites[id(node)]
                for k, cert in enumerate(certs):
                    at = f"{where}: certificates[{k}]"
                    if not check_certificate(cert, clauses, env, at).recheck(cert, env):
                        failures.append(f"{at}: {cert['clause']} did not replay")
                    checked += 1
    return failures, checked

"""Task execution: named checks over a fixture or document, and replay.

``verify-all`` runs one verdict per claim family: the five Hom formulas,
the five tensor shapes plus the brute-force cross-check, componentwise
decomposition of presentation classes, the silting transfer, the
adjunction dimension identities, the perpendicular and torsion-pair
transfer statements on all zero/all family combinations, the closing
corollaries, and the T-module round trip.  Reports are plain dicts with
deterministic content; ``replay_report`` re-checks every certificate.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .comma import (
    comma_is_isomorphic,
    from_T_module,
    functor_h,
    functor_p,
    hom_comma_dim,
    hom_formula,
    hom_formula_applicable,
    sigma_for_p,
    tensor_T,
    tensor_T_bruteforce,
    tensor_T_via_algebra,
    tensor_shape_predictions,
    to_T_module,
)
from .document import Document, task_references
from .fixtures import Fixture
from .linalg import rank
from .modules import ModuleRep, gen_member, hom_dim
from .presentations import (
    d_sigma_member,
    is_partial_silting,
    is_silting,
    universe_hash,
)
from .torsion import (
    ModuleFamily,
    Verdict,
    comma_family,
    family_all,
    family_d_sigma,
    family_gen,
    family_zero,
    is_torsion_class,
    is_torsion_pair,
    perp_left,
    perp_right,
    perp_right_modules,
    torsion_pair_oracle,
)
from .verify import (
    recheck_certificate,
    verify_final_corollaries,
    verify_partial_silting_transfer,
    verify_prop_B_perp,
    verify_prop_J_perp,
    verify_silting_transfer,
    verify_thm_torsion_B,
    verify_thm_torsion_J,
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


def _basic_family(kind: str, universe: Sequence[ModuleRep]) -> ModuleFamily:
    if kind == "zero":
        return family_zero(universe)
    if kind == "all":
        return family_all(universe)
    raise TaskError(f"unknown basic family kind {kind!r}")


# -- verify-all claims --------------------------------------------------------


def _claim_hom_formulas(fx: Fixture) -> list[Verdict]:
    objs = list(fx.comma_universe.values())
    tmods = [fx.t_universe[c.label] for c in objs]
    verdicts = []
    for kind in range(1, 6):
        certs = []
        applicable = 0
        for i, x in enumerate(objs):
            for j, y in enumerate(objs):
                if not hom_formula_applicable(kind, x, y):
                    continue
                applicable += 1
                predicted = hom_formula(kind, x, y)
                comma_dim = hom_comma_dim(x, y)
                t_dim = hom_dim(tmods[i], tmods[j])
                if not (predicted == comma_dim == t_dim):
                    certs.append(
                        {
                            "clause": "hom-dim-mismatch",
                            "kind": kind,
                            "source": x.label,
                            "target": y.label,
                            "formula": predicted,
                            "comma_dim": comma_dim,
                            "t_module_dim": t_dim,
                        }
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
    verdicts = []
    rts = list(fx.right_t_universe.values())
    objs = list(fx.comma_universe.values())
    per_shape: dict[int, list] = {k: [] for k in range(1, 6)}
    shape_counts = {k: 0 for k in range(1, 6)}
    agreement_certs = []
    for rt in rts:
        for c in objs:
            main = tensor_T(rt, c).dim
            brute = tensor_T_bruteforce(rt, c)
            via_t = tensor_T_via_algebra(rt, c, fx.t)
            if not (main == brute == via_t):
                agreement_certs.append(
                    {
                        "clause": "tensor-oracle-mismatch",
                        "right_module": rt.label,
                        "comma": c.label,
                        "main": main,
                        "bruteforce": brute,
                        "via_algebra": via_t,
                    }
                )
            for shape, predicted in tensor_shape_predictions(rt, c):
                shape_counts[shape] += 1
                if predicted != main:
                    per_shape[shape].append(
                        {
                            "clause": "tensor-dim-mismatch",
                            "shape": shape,
                            "right_module": rt.label,
                            "comma": c.label,
                            "predicted": predicted,
                            "computed": main,
                        }
                    )
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
    for name_a, name_b in _FIXTURE_CASES[fx.name]["decomposition_pairs"]:
        sigma_a = fx.presentations[name_a]
        sigma_b = fx.presentations[name_b]
        pres_t = sigma_for_p(fx.t, sigma_a.target, sigma_a, sigma_b.target, sigma_b)
        certs = []
        for label, m in fx.t_universe.items():
            comma = from_T_module(m, fx.t).comma
            lhs = d_sigma_member(pres_t, m)
            rhs = d_sigma_member(sigma_a, comma.A) and d_sigma_member(sigma_b, comma.B)
            if lhs != rhs:
                certs.append(
                    {
                        "clause": "decomposition-mismatch",
                        "module": label,
                        "whole": lhs,
                        "componentwise": rhs,
                    }
                )
        verdicts.append(
            Verdict(
                claim=f"presentation-decomposition[{name_a},{name_b}]",
                result="holds" if not certs else "fails",
                certificates=certs,
                data={"sigma_a": name_a, "sigma_b": name_b},
                universe_hash=universe_hash(fx.t_universe_list()),
            )
        )
        bound = 4  # the universe builder's default total-dimension cap
        lhs_tc = is_torsion_class(
            family_d_sigma(pres_t, fx.t_universe_list(), label="D[sigma_T]"),
            fx.t_universe_list(),
            max_dim=bound,
        )
        rhs_a = is_torsion_class(
            family_d_sigma(sigma_a, fx.r_universe_list(), label="D[sigma_A]"),
            fx.r_universe_list(),
            max_dim=bound,
        )
        rhs_b = is_torsion_class(
            family_d_sigma(sigma_b, fx.s_universe_list(), label="D[sigma_B]"),
            fx.s_universe_list(),
            max_dim=bound,
        )
        agree = lhs_tc.holds == (rhs_a.holds and rhs_b.holds)
        verdicts.append(
            Verdict(
                claim=f"torsion-class-decomposition[{name_a},{name_b}]",
                result="holds" if agree else "fails",
                sub=[lhs_tc, rhs_a, rhs_b],
                data={
                    "sigma_a": name_a,
                    "sigma_b": name_b,
                    "whole": lhs_tc.holds,
                    "componentwise": rhs_a.holds and rhs_b.holds,
                },
            )
        )
    return verdicts


def _claim_silting_transfer(fx: Fixture) -> list[Verdict]:
    verdicts = []
    for a_name, sa_name, b_name, sb_name in _FIXTURE_CASES[fx.name]["transfer_cases"]:
        a = fx.r_universe[a_name]
        b = fx.s_universe[b_name]
        sigma_a = fx.presentations[sa_name]
        sigma_b = fx.presentations[sb_name]
        v = verify_silting_transfer(
            fx.t, a, sigma_a, b, sigma_b,
            fx.r_universe_list(), fx.s_universe_list(), fx.t_universe_list(),
        )
        v.claim = f"silting-transfer[a={a_name},b={b_name}]"
        v.data["params"] = {"a": a_name, "sigma_a": sa_name, "b": b_name, "sigma_b": sb_name}
        verdicts.append(v)
        vp = verify_partial_silting_transfer(
            fx.t, a, sigma_a, b, sigma_b,
            fx.r_universe_list(), fx.s_universe_list(), fx.t_universe_list(),
        )
        vp.claim = f"partial-silting-transfer[a={a_name},b={b_name}]"
        vp.data["params"] = {"a": a_name, "sigma_a": sa_name, "b": b_name, "sigma_b": sb_name}
        verdicts.append(vp)
    return verdicts


def _claim_adjunctions(fx: Fixture) -> list[Verdict]:
    certs_pq = []
    certs_qh = []
    for a in fx.r_universe.values():
        for b in fx.s_universe.values():
            pab = functor_p(fx.u, a, b)
            hab = functor_h(fx.u, a, b)
            for c in fx.comma_universe.values():
                lhs = hom_comma_dim(pab, c)
                rhs = hom_dim(a, c.A) + hom_dim(b, c.B)
                if lhs != rhs:
                    certs_pq.append(
                        {
                            "clause": "adjunction-mismatch",
                            "a": a.label,
                            "b": b.label,
                            "comma": c.label,
                            "comma_hom": lhs,
                            "component_hom": rhs,
                        }
                    )
                lhs = hom_comma_dim(c, hab)
                rhs = hom_dim(c.A, a) + hom_dim(c.B, b)
                if lhs != rhs:
                    certs_qh.append(
                        {
                            "clause": "adjunction-mismatch",
                            "a": a.label,
                            "b": b.label,
                            "comma": c.label,
                            "comma_hom": lhs,
                            "component_hom": rhs,
                        }
                    )
    n_pairs = len(fx.r_universe) * len(fx.s_universe) * len(fx.comma_universe)
    return [
        Verdict(
            "adjunction-p-q",
            "holds" if not certs_pq else "fails",
            certs_pq,
            data={"pairs": n_pairs},
        ),
        Verdict(
            "adjunction-q-h",
            "holds" if not certs_qh else "fails",
            certs_qh,
            data={"pairs": n_pairs},
        ),
    ]


def _claim_perp_transfer(fx: Fixture) -> list[Verdict]:
    verdicts = []
    r_u, s_u, t_u = fx.r_universe_list(), fx.s_universe_list(), fx.t_universe_list()
    for ck in _BASIC_FAMILY_KINDS:
        for dk in _BASIC_FAMILY_KINDS:
            v = verify_prop_B_perp(fx.t, _basic_family(ck, r_u), _basic_family(dk, s_u), r_u, s_u, t_u)
            v.claim = f"perp-transfer-mono[c={ck},d={dk}]"
            v.data["params"] = {"c": ck, "d": dk}
            verdicts.append(v)
    for ck in _BASIC_FAMILY_KINDS:
        for dk in _BASIC_FAMILY_KINDS:
            v = verify_prop_J_perp(fx.t, _basic_family(ck, r_u), _basic_family(dk, s_u), r_u, s_u, t_u)
            v.claim = f"perp-transfer-adjoint[c={ck},d={dk}]"
            v.data["params"] = {"c": ck, "d": dk}
            verdicts.append(v)
    return verdicts


def _claim_torsion_transfer(fx: Fixture) -> list[Verdict]:
    verdicts = []
    r_u, s_u, t_u = fx.r_universe_list(), fx.s_universe_list(), fx.t_universe_list()
    combos = [("zero", "all"), ("all", "zero")]
    for c1k, c2k in combos:
        for d1k, d2k in combos:
            v = verify_thm_torsion_B(
                fx.t,
                _basic_family(c1k, r_u),
                _basic_family(c2k, r_u),
                _basic_family(d1k, s_u),
                _basic_family(d2k, s_u),
                r_u, s_u, t_u,
            )
            v.claim = f"torsion-transfer-mono[c=({c1k},{c2k}),d=({d1k},{d2k})]"
            v.data["params"] = {"c1": c1k, "c2": c2k, "d1": d1k, "d2": d2k}
            verdicts.append(v)
    for c1k, c2k in combos:
        for d1k, d2k in combos:
            v = verify_thm_torsion_J(
                fx.t,
                _basic_family(c1k, r_u),
                _basic_family(c2k, r_u),
                _basic_family(d1k, s_u),
                _basic_family(d2k, s_u),
                r_u, s_u, t_u,
            )
            v.claim = f"torsion-transfer-adjoint[c=({c1k},{c2k}),d=({d1k},{d2k})]"
            v.data["params"] = {"c1": c1k, "c2": c2k, "d1": d1k, "d2": d2k}
            verdicts.append(v)
    return verdicts


def _claim_final_corollaries(fx: Fixture) -> list[Verdict]:
    a_name, sa_name, b_name, sb_name = _FIXTURE_CASES[fx.name]["corollary_case"]
    v = verify_final_corollaries(
        fx.t,
        fx.r_universe[a_name],
        fx.presentations[sa_name],
        fx.s_universe[b_name],
        fx.presentations[sb_name],
        fx.r_universe_list(),
        fx.s_universe_list(),
        fx.t_universe_list(),
    )
    v.data["params"] = {"a": a_name, "sigma_a": sa_name, "b": b_name, "sigma_b": sb_name}
    return [v]


def _claim_round_trip(fx: Fixture) -> list[Verdict]:
    certs = []
    for name, c in fx.comma_universe.items():
        m = to_T_module(c, fx.t)
        back = from_T_module(m, fx.t)
        wit_ok = back.witness.is_valid() and rank(back.witness.matrix) == m.dim
        iso, _ = comma_is_isomorphic(back.comma, c)
        if not (wit_ok and iso):
            certs.append(
                {
                    "clause": "roundtrip-failure",
                    "comma": name,
                    "witness_valid": wit_ok,
                    "isomorphic": iso,
                }
            )
    return [
        Verdict(
            "t-module-round-trip",
            "holds" if not certs else "fails",
            certs,
            data={"objects": len(fx.comma_universe)},
        )
    ]


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
    if kind == "is-silting":
        pres = ref["presentation"]
        verdict = is_silting(pres.target, pres, ref["universe"])
        return {
            "name": name,
            "kind": kind,
            "holds": verdict.holds,
            "disagreements": verdict.disagreements,
            "universe_hash": verdict.universe_hash,
        }
    if kind == "is-partial-silting":
        pres = ref["presentation"]
        verdict = is_partial_silting(pres.target, pres, ref["universe"])
        return {
            "name": name,
            "kind": kind,
            "holds": verdict.holds,
            "failures": verdict.failures,
            "universe_hash": verdict.universe_hash,
        }
    if kind == "d-sigma-member":
        pres = ref["presentation"]
        return {
            "name": name,
            "kind": kind,
            "member": d_sigma_member(pres, ref["module"]),
        }
    if kind == "gen-member":
        return {
            "name": name,
            "kind": kind,
            "member": gen_member(ref["generator"], ref["module"]),
        }
    if kind == "silting-transfer":
        v = verify_silting_transfer(
            ref["bimodule"],
            ref["a"],
            ref["sigma_a"],
            ref["b"],
            ref["sigma_b"],
            ref["r_universe"],
            ref["s_universe"],
            ref["t_universe"],
        )
        return {"name": name, "kind": kind, "verdicts": [v.to_dict()]}
    raise TaskError(f"unknown task kind {kind!r}")


def run_document(doc: Document, task_filter: Optional[Sequence[str]] = None) -> list[dict]:
    out = []
    for i, task in enumerate(doc.tasks):
        name = task.get("name", f"task{i}")
        if task_filter and name not in task_filter and task.get("kind") not in task_filter:
            continue
        out.append(run_document_task(doc, task, i))
    return out


# -- certificate replay -------------------------------------------------------------


def _replay_verdict(v: dict, env: dict, failures: list, context: str) -> None:
    for cert in v.get("certificates", []):
        try:
            ok = recheck_certificate(cert, env)
        except Exception as exc:  # replay must never crash silently
            ok = False
            failures.append(f"{context}: certificate {cert.get('clause')} raised {exc}")
            continue
        if not ok:
            failures.append(f"{context}: certificate {cert.get('clause')} did not replay")


def _replay_torsion_pair_sub(v: dict, x: ModuleFamily, y: ModuleFamily, universe, failures, context):
    env = {"universe": universe, "x": x, "y": y}
    _replay_verdict(v, env, failures, context)


class MalformedReport(ValueError):
    """A report field that replay reads is missing, of the wrong type, or
    names nothing in the fixture."""


def _field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]``, which must hold a JSON value of exactly type ``kind``."""
    if key not in obj:
        raise MalformedReport(f"{where}: missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise MalformedReport(f"{where}.{key} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _ref(table: dict, obj: dict, key: str, where: str):
    """The fixture entry that ``obj[key]`` names."""
    name = _field(obj, key, str, where)
    if name not in table:
        raise MalformedReport(f"{where}.{key}: no entry {name!r} in the fixture")
    return table[name]


def _basic_ref(obj: dict, key: str, universe: Sequence[ModuleRep], where: str) -> ModuleFamily:
    """The zero or all family that ``obj[key]`` names."""
    kind = _field(obj, key, str, where)
    if kind not in _BASIC_FAMILY_KINDS:
        raise MalformedReport(f"{where}.{key}: unknown basic family kind {kind!r}")
    return _basic_family(kind, universe)


def _params(v: dict, claim: str) -> dict:
    """The ``data.params`` object of a transfer or corollary verdict."""
    return _field(_field(v, "data", dict, claim), "params", dict, f"{claim}: data")


def _decomposition_presentations(fx: Fixture, v: dict, claim: str):
    """sigma_A, sigma_B and their T-presentation, as a decomposition verdict names them."""
    data = _field(v, "data", dict, claim)
    sigma_a = _ref(fx.presentations, data, "sigma_a", f"{claim}: data")
    sigma_b = _ref(fx.presentations, data, "sigma_b", f"{claim}: data")
    return sigma_a, sigma_b, sigma_for_p(fx.t, sigma_a.target, sigma_a, sigma_b.target, sigma_b)


def _certs(v: dict, claim: str):
    """Each certificate of a verdict with where it sits, for error messages."""
    for k, cert in enumerate(v.get("certificates", [])):
        yield cert, f"{claim}: certificates[{k}]"


def replay_verify_all(fx: Fixture, verdicts: list[dict]) -> list[str]:
    """Re-check every certificate in a verify-all verdict list.

    Returns human-readable failure strings; empty means everything
    replayed.  Raises :class:`MalformedReport` when a field read here is
    missing, mistyped or names nothing in the fixture (a sub-verdict's
    certificate that cannot be rechecked is a replay failure instead).
    """
    failures: list[str] = []
    r_u, s_u, t_u = fx.r_universe_list(), fx.s_universe_list(), fx.t_universe_list()
    for v in verdicts:
        claim = v["claim"]
        context = claim
        if claim.startswith("hom-formula"):
            for cert, where in _certs(v, claim):
                x = _ref(fx.comma_universe, cert, "source", where)
                y = _ref(fx.comma_universe, cert, "target", where)
                kind = _field(cert, "kind", int, where)
                if kind not in range(1, 6):
                    raise MalformedReport(f"{where}.kind must be 1..5, got {kind}")
                formula = _field(cert, "formula", int, where)
                comma_dim = _field(cert, "comma_dim", int, where)
                ok = (
                    hom_formula_applicable(kind, x, y)
                    and hom_formula(kind, x, y) == formula
                    and hom_comma_dim(x, y) == comma_dim
                )
                if not ok:
                    failures.append(f"{context}: certificate did not replay")
        elif claim.startswith("tensor"):
            for cert, where in _certs(v, claim):
                rt = _ref(fx.right_t_universe, cert, "right_module", where)
                c = _ref(fx.comma_universe, cert, "comma", where)
                recorded = _field(cert, "computed" if "computed" in cert else "main", int, where)
                if tensor_T(rt, c).dim != recorded:
                    failures.append(f"{context}: certificate did not replay")
        elif claim.startswith("presentation-decomposition"):
            sigma_a, sigma_b, pres_t = _decomposition_presentations(fx, v, claim)
            for cert, where in _certs(v, claim):
                m = _ref(fx.t_universe, cert, "module", where)
                whole = _field(cert, "whole", bool, where)
                componentwise = _field(cert, "componentwise", bool, where)
                comma = from_T_module(m, fx.t).comma
                lhs = d_sigma_member(pres_t, m)
                rhs = d_sigma_member(sigma_a, comma.A) and d_sigma_member(sigma_b, comma.B)
                if not (lhs == whole and rhs == componentwise and lhs != rhs):
                    failures.append(f"{context}: certificate did not replay")
        elif claim.startswith("silting-transfer") or claim.startswith("partial-silting-transfer"):
            params = _params(v, claim)
            where = f"{claim}: data.params"
            a = _ref(fx.r_universe, params, "a", where)
            b = _ref(fx.s_universe, params, "b", where)
            sigma_a = _ref(fx.presentations, params, "sigma_a", where)
            sigma_b = _ref(fx.presentations, params, "sigma_b", where)
            pres_t = sigma_for_p(fx.t, a, sigma_a, b, sigma_b)
            partial = claim.startswith("partial")
            envs = {}
            for sub_claim, pres, gen_mod, univ in (
                ("left-side", pres_t, pres_t.target, t_u),
                ("component-A", sigma_a, a, r_u),
                ("component-B", sigma_b, b, s_u),
            ):
                env = {"universe": univ, "presentation": pres, "gen_module": gen_mod}
                if partial:
                    env["family"] = family_d_sigma(pres, univ)
                envs[sub_claim] = env
            for sub in v.get("sub", []):
                env = envs.get(sub["claim"])
                if env is not None:
                    _replay_verdict(sub, env, failures, f"{context}/{sub['claim']}")
        elif claim.startswith("torsion-class-decomposition"):
            sigma_a, sigma_b, pres_t = _decomposition_presentations(fx, v, claim)
            triples = [
                (family_d_sigma(pres_t, t_u), t_u),
                (family_d_sigma(sigma_a, r_u), r_u),
                (family_d_sigma(sigma_b, s_u), s_u),
            ]
            for sub, (fam, univ) in zip(v.get("sub", []), triples):
                _replay_verdict(sub, {"universe": univ, "family": fam}, failures, f"{context}/{sub['claim']}")
        elif claim.startswith("torsion-transfer"):
            params = _params(v, claim)
            where = f"{claim}: data.params"
            c1 = _basic_ref(params, "c1", r_u, where)
            c2 = _basic_ref(params, "c2", r_u, where)
            d1 = _basic_ref(params, "d1", s_u, where)
            d2 = _basic_ref(params, "d2", s_u, where)
            if "mono" in claim:
                xfam = comma_family("B", c1, d1, fx.t, t_u)
                yfam = comma_family("U", c2, d2, fx.t, t_u)
            else:
                xfam = comma_family("U", c1, d1, fx.t, t_u)
                yfam = comma_family("J", c2, d2, fx.t, t_u)
            subs = v.get("sub", [])
            if len(subs) == 3:
                _replay_torsion_pair_sub(subs[0], c1, c2, r_u, failures, f"{context}/components-R")
                _replay_torsion_pair_sub(subs[1], d1, d2, s_u, failures, f"{context}/components-S")
                _replay_torsion_pair_sub(subs[2], xfam, yfam, t_u, failures, f"{context}/comma-pair")
        elif claim.startswith("perp-transfer"):
            params = _params(v, claim)
            cfam = _basic_ref(params, "c", r_u, f"{claim}: data.params")
            dfam = _basic_ref(params, "d", s_u, f"{claim}: data.params")
            mono = "mono" in claim
            if mono:
                lhs1 = perp_right(comma_family("B", cfam, dfam, fx.t, t_u), t_u)
                rhs1 = comma_family("U", perp_right(cfam, r_u), perp_right(dfam, s_u), fx.t, t_u)
                fwd_small = comma_family("B", perp_left(cfam, r_u), perp_left(dfam, s_u), fx.t, t_u)
                fwd_large = perp_left(comma_family("U", cfam, dfam, fx.t, t_u), t_u)
            else:
                lhs1 = perp_left(comma_family("J", cfam, dfam, fx.t, t_u), t_u)
                rhs1 = comma_family("U", perp_left(cfam, r_u), perp_left(dfam, s_u), fx.t, t_u)
                fwd_small = comma_family("J", perp_right(cfam, r_u), perp_right(dfam, s_u), fx.t, t_u)
                fwd_large = perp_right(comma_family("U", cfam, dfam, fx.t, t_u), t_u)
            envs = [
                {"universe": t_u, "lhs": lhs1, "rhs": rhs1},
                {"universe": t_u, "lhs": fwd_small, "rhs": fwd_large},
                {"universe": t_u, "lhs": fwd_large, "rhs": fwd_small},
            ]
            for sub, env in zip(v.get("sub", []), envs):
                _replay_verdict(sub, env, failures, f"{context}/{sub['claim']}")
        elif claim == "adjunction-p-q" or claim == "adjunction-q-h":
            for cert, where in _certs(v, claim):
                a = _ref(fx.r_universe, cert, "a", where)
                b = _ref(fx.s_universe, cert, "b", where)
                c = _ref(fx.comma_universe, cert, "comma", where)
                comma_hom = _field(cert, "comma_hom", int, where)
                component_hom = _field(cert, "component_hom", int, where)
                if claim.endswith("p-q"):
                    lhs = hom_comma_dim(functor_p(fx.u, a, b), c)
                    rhs = hom_dim(a, c.A) + hom_dim(b, c.B)
                else:
                    lhs = hom_comma_dim(c, functor_h(fx.u, a, b))
                    rhs = hom_dim(c.A, a) + hom_dim(c.B, b)
                if not (lhs == comma_hom and rhs == component_hom and lhs != rhs):
                    failures.append(f"{context}: certificate did not replay")
        elif claim == "t-module-round-trip":
            for cert in v.get("certificates", []):
                failures.append(f"{context}: round-trip certificate recorded a failure")
        elif claim == "final-corollaries":
            for sub in v.get("sub", []):
                for inner in sub.get("sub", []):
                    # nested torsion-pair verdicts: rebuild from the corollary params
                    params = _params(v, claim)
                    a = _ref(fx.r_universe, params, "a", f"{claim}: data.params")
                    b = _ref(fx.s_universe, params, "b", f"{claim}: data.params")
                    gen_a = family_gen(a, r_u)
                    gen_b = family_gen(b, s_u)
                    a_perp = perp_right_modules([a], r_u)
                    b_perp = perp_right_modules([b], s_u)
                    if sub["claim"].endswith("mono"):
                        xfam = comma_family("B", gen_a, gen_b, fx.t, t_u)
                        yfam = comma_family("U", a_perp, b_perp, fx.t, t_u)
                    else:
                        xfam = comma_family("U", gen_a, gen_b, fx.t, t_u)
                        yfam = comma_family("J", a_perp, b_perp, fx.t, t_u)
                    _replay_torsion_pair_sub(
                        inner, xfam, yfam, t_u, failures, f"{context}/{sub['claim']}"
                    )
    return failures


def replay_report(report: dict, fx: Fixture) -> list[str]:
    """Replay failures of every verify-all task of a report whose lists
    are shaped as ``run`` writes them; raises :class:`MalformedReport` as
    :func:`replay_verify_all` does."""
    failures = []
    for task in report.get("tasks", []):
        if task.get("kind") == "verify-all":
            failures.extend(replay_verify_all(fx, task.get("verdicts", [])))
    return failures

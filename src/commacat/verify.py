"""Verifiers for the transfer statements, and the certificate clauses.

Each verifier computes both sides of its statement independently and
reports whether they agree; none of them hard-codes an expected truth
value.  The perpendicular and torsion-pair transfers take a ``side``:
"mono" is the statement for the mono family B, under the hypothesis S+
in D, and "adjoint" its mirror for the adjoint-epi family J, under R in
C.  The families and presentations of a statement come from one
constructor each (:func:`silting_sides`, :func:`perp_transfer_families`,
:func:`comma_pair`), which certificate replay in ``tasks`` calls too, on
the arguments that the fixture's own case built, never on names read from
the report; so do the facts that the top-level claims record (``*_facts``).

Verdicts carry certificates that name concrete universe members or
fixture entries and record the facts that witnessed a violation.
:data:`CLAUSES` holds, per clause, the fields a certificate must carry
with their kinds, and a ``recheck(cert, env)`` that recomputes those
facts from raw data.  :func:`check_certificate` checks the fields and
raises :class:`MalformedReport` for a missing, mistyped or dangling one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple, Optional, Sequence

from .algebra import TriangularAlgebra
from .comma import (
    CommaObject,
    RightTModule,
    comma_is_isomorphic,
    from_T_module,
    functor_h,
    functor_p,
    hom_comma_dim,
    hom_formula,
    hom_formula_applicable,
    sigma_for_p,
    tensor_over,
    tensor_shape_predictions,
    tensor_T,
    tensor_T_bruteforce,
    tensor_T_via_algebra,
    to_T_module,
)
from .linalg import column_space_basis, int64_array, rank
from .modules import (
    ModuleMap,
    ModuleRep,
    direct_sum,
    dual_module,
    extension_middle_terms,
    gen_member,
    hom_dim,
    is_isomorphic,
    regular_module,
    submodule,
    zero_module,
)
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
    comma_family,
    family_gen,
    is_torsion_pair,
    perp_left,
    perp_predicate,
    perp_right,
    perp_right_modules,
    torsion_sequence,
)


# -- silting transfer -------------------------------------------------------------


def silting_sides(
    t: TriangularAlgebra,
    sigma_a: Presentation,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> list[tuple[str, Presentation, Sequence[ModuleRep]]]:
    """(sub-verdict claim, presentation, universe) of the three silting conditions: over T with the
    block presentation of (0, B) + (A, FA), and over R and S for A and B, the modules presented."""
    return [
        ("left-side", sigma_for_p(t, sigma_a, sigma_b), t_universe),
        ("component-A", sigma_a, r_universe),
        ("component-B", sigma_b, s_universe),
    ]


def verify_silting_transfer(
    t: TriangularAlgebra,
    sigma_a: Presentation,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Silting of (0, B) + (A, FA) against the three component conditions,
    for A and B the modules ``sigma_a`` and ``sigma_b`` present.

    Left side: silting over T with the block presentation.  Right side:
    A silting, B silting, and FA generated by B.  The verdict states
    whether the two sides agree.
    """
    sides = silting_sides(t, sigma_a, sigma_b, r_universe, s_universe, t_universe)
    lhs, rhs_a, rhs_b = verdicts = [replace(is_silting(pres, u), claim=claim) for claim, pres, u in sides]
    fa = tensor_over(t.u, sigma_a.target).module
    rhs_gen = gen_member(sigma_b.target, fa)
    rhs = rhs_a.holds and rhs_b.holds and rhs_gen
    return Verdict(
        claim="silting-transfer",
        result="holds" if lhs.holds == rhs else "fails",
        sub=verdicts,
        data={"left_side": lhs.holds, "right_side": rhs, "fa_in_gen_b": rhs_gen, "fa_dim": fa.dim},
        universe_hash=universe_hash(t_universe),
    )


def verify_partial_silting_transfer(
    t: TriangularAlgebra,
    sigma_a: Presentation,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Partial-silting variant: the third clause asks FA to lie in the
    sigma_B class instead of Gen B."""
    sides = silting_sides(t, sigma_a, sigma_b, r_universe, s_universe, t_universe)
    lhs, rhs_a, rhs_b = verdicts = [replace(is_partial_silting(pres, u), claim=claim) for claim, pres, u in sides]
    rhs_fa = d_sigma_member(sigma_b, tensor_over(t.u, sigma_a.target).module)
    rhs = rhs_a.holds and rhs_b.holds and rhs_fa
    return Verdict(
        claim="partial-silting-transfer",
        result="holds" if lhs.holds == rhs else "fails",
        sub=verdicts,
        data={"left_side": lhs.holds, "right_side": rhs, "fa_in_d_sigma_b": rhs_fa},
        universe_hash=universe_hash(t_universe),
    )


# -- perpendicular and torsion-pair transfer -----------------------------------------


def side_hypothesis(side: str, t: TriangularAlgebra, cfam: ModuleFamily, dfam: ModuleFamily) -> bool:
    """The hypothesis of a transfer statement: the dual module S+ lies in
    ``dfam`` (mono side), or the regular module R in ``cfam`` (adjoint)."""
    if side == "mono":
        return dfam.contains(dual_module(t.s))
    return cfam.contains(regular_module(t.r))


def perp_transfer_families(
    side: str,
    t: TriangularAlgebra,
    cfam: ModuleFamily,
    dfam: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> tuple[ModuleFamily, ModuleFamily, ModuleFamily, ModuleFamily]:
    """(lhs, rhs, small, large) of a perpendicular transfer: lhs = rhs is its
    equality and small in large its forward inclusion.

    Mono side: (B^C_D)^perp = U^{C^perp}_{D^perp}, and B on the left perps
    of C and D lies in perp(U^C_D).  Adjoint side, with the perps swapped:
    perp(J^C_D) = U^{perp C}_{perp D}, and J on the right perps lies in
    (U^C_D)^perp.
    """
    kind, perp, other = ("B", perp_right, perp_left) if side == "mono" else ("J", perp_left, perp_right)
    lhs = perp(comma_family(kind, cfam, dfam, t), t_universe)
    rhs = comma_family("U", perp(cfam, r_universe), perp(dfam, s_universe), t)
    small = comma_family(kind, other(cfam, r_universe), other(dfam, s_universe), t)
    large = other(comma_family("U", cfam, dfam, t), t_universe)
    return lhs, rhs, small, large


def _inclusion_certs(
    smaller: ModuleFamily, larger: ModuleFamily, universe: Sequence[ModuleRep], clause: str
) -> list[dict]:
    return [
        {"clause": clause, "module": k, "label": m.label}
        for k, m in enumerate(universe)
        if smaller.contains(m) and not larger.contains(m)
    ]


def verify_perp_transfer(
    side: str,
    t: TriangularAlgebra,
    cfam: ModuleFamily,
    dfam: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Perpendicular calculus of the mono family (side "mono") or of the
    adjoint-epi family ("adjoint"), as :func:`perp_transfer_families` states
    it; the converse of the inclusion is tested under the side's hypothesis."""
    lhs, rhs, small, large = perp_transfer_families(side, t, cfam, dfam, r_universe, s_universe, t_universe)
    certs1 = []
    for k, m in enumerate(t_universe):
        facts = {"in_lhs": lhs.contains(m), "in_rhs": rhs.contains(m)}
        if disagree(facts):
            certs1.append({"clause": "perp-equality", "module": k, "label": m.label, **facts})
    equality = "right-perp-equality" if side == "mono" else "left-perp-equality"
    sub1 = Verdict(equality, "holds" if not certs1 else "fails", certs1)
    certs2 = _inclusion_certs(small, large, t_universe, "forward-inclusion")
    sub2 = Verdict("forward-inclusion", "holds" if not certs2 else "fails", certs2)
    hyp = side_hypothesis(side, t, cfam, dfam)
    if hyp:
        certs3 = _inclusion_certs(large, small, t_universe, "converse-inclusion")
        sub3 = Verdict("converse-inclusion", "holds" if not certs3 else "fails", certs3)
    else:
        sub3 = Verdict("converse-inclusion", "out-of-scope", [], data={"hypothesis": False})
    applicable = [sub1, sub2] + ([sub3] if hyp else [])
    hyp_key = "dual_module_hypothesis" if side == "mono" else "regular_hypothesis"
    return Verdict(
        claim=f"perp-transfer-{side}",
        result="holds" if all(v.holds for v in applicable) else "fails",
        sub=[sub1, sub2, sub3],
        data={"c": cfam.spec, "d": dfam.spec, hyp_key: hyp},
        universe_hash=universe_hash(t_universe),
    )


def comma_pair(
    side: str,
    t: TriangularAlgebra,
    c1: ModuleFamily,
    c2: ModuleFamily,
    d1: ModuleFamily,
    d2: ModuleFamily,
) -> tuple[ModuleFamily, ModuleFamily, bool]:
    """The comma pair (B^{C1}_{D1}, U^{C2}_{D2}) with its hypothesis S+ in D2
    (mono side), or (U^{C1}_{D1}, J^{C2}_{D2}) with R in C1 (adjoint)."""
    kinds = ("B", "U") if side == "mono" else ("U", "J")
    return (
        comma_family(kinds[0], c1, d1, t),
        comma_family(kinds[1], c2, d2, t),
        side_hypothesis(side, t, c1, d2),
    )


def verify_torsion_transfer(
    side: str,
    t: TriangularAlgebra,
    c1: ModuleFamily,
    c2: ModuleFamily,
    d1: ModuleFamily,
    d2: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Transfer of torsion pairs through the mono or the adjoint-epi family.

    Left side: (c1, c2) and (d1, d2) are torsion pairs.  Right side: the
    :func:`comma_pair` of the side is a torsion pair over T.  Out of scope
    unless the side's hypothesis holds; both sides are attached.
    """
    p_r = is_torsion_pair(c1, c2, r_universe)
    p_s = is_torsion_pair(d1, d2, s_universe)
    x, y, hyp = comma_pair(side, t, c1, c2, d1, d2)
    q = is_torsion_pair(x, y, t_universe)
    left = p_r.holds and p_s.holds
    return Verdict(
        claim=f"torsion-transfer-{side}",
        result="out-of-scope" if not hyp else "holds" if left == q.holds else "fails",
        sub=[p_r, p_s, q],
        data={"hypothesis": hyp, "component_pairs_hold": left, "comma_pair_holds": q.holds},
        universe_hash=universe_hash(t_universe),
    )


# -- closing corollaries -------------------------------------------------------------


def corollary_families(a: ModuleRep, b: ModuleRep) -> tuple[ModuleFamily, ModuleFamily, ModuleFamily, ModuleFamily]:
    """(Gen A, A^perp, Gen B, B^perp): the torsion pairs a silting pair induces."""
    return (
        family_gen(a),
        perp_right_modules([a], label=f"({a.label})^perp"),
        family_gen(b),
        perp_right_modules([b], label=f"({b.label})^perp"),
    )


def _agreement(claim: str, lhs: bool, rhs: bool) -> Verdict:
    return Verdict(claim, "holds" if lhs == rhs else "fails", data={"left_side": lhs, "right_side": rhs})


def verify_final_corollaries(
    t: TriangularAlgebra,
    sigma_a: Presentation,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """The closing corollaries: silting reductions and the induced comma torsion
    pairs from a silting pair (A, B), the modules ``sigma_a`` and ``sigma_b`` present."""
    subs: list[Verdict] = []
    a, b = sigma_a.target, sigma_b.target
    pres_t = sigma_for_p(t, sigma_a, sigma_b)
    premise_silting = is_silting(pres_t, t_universe).holds
    premise_partial = is_partial_silting(pres_t, t_universe).holds

    s_reg = regular_module(t.s)
    if b.dim == s_reg.dim and is_isomorphic(b, s_reg).isomorphic:
        for name, decide, lhs in (
            ("silting", is_silting, premise_silting),
            ("partial-silting", is_partial_silting, premise_partial),
        ):
            subs.append(_agreement(f"{name}-vs-component-A", lhs, decide(sigma_a, r_universe).holds))
    else:
        subs.append(Verdict("silting-vs-component-A", "out-of-scope", [], data={"b_is_regular": False}))

    # For the A = 0 component the definition's existential presentation
    # choice matters: only the cover R -> 0 makes the zero module silting
    # (its class is then exactly {0} = Gen 0), so that is the one used.
    zero_r = zero_module(t.r)
    zero_cover = Presentation(sigma=ModuleMap(regular_module(t.r), zero_r, []), witness=ModuleMap(zero_r, zero_r, []))
    lhs_b = is_silting(sigma_for_p(t, zero_cover, sigma_b), t_universe).holds
    subs.append(_agreement("silting-vs-component-B", lhs_b, is_silting(sigma_b, s_universe).holds))

    families = corollary_families(a, b)
    for side in ("mono", "adjoint"):
        x, y, hyp = comma_pair(side, t, *families)
        if (premise_silting or premise_partial) and hyp:
            q = is_torsion_pair(x, y, t_universe)
            subs.append(Verdict(f"induced-torsion-pair-{side}", q.result, sub=[q], data={"hypothesis": True}))
        else:
            subs.append(
                Verdict(
                    f"induced-torsion-pair-{side}",
                    "out-of-scope",
                    [],
                    data={"premise_silting": premise_silting, "hypothesis": hyp},
                )
            )

    applicable = [v for v in subs if v.result != "out-of-scope"]
    return Verdict(
        claim="final-corollaries",
        result="holds" if all(v.holds for v in applicable) else "fails",
        sub=subs,
        data={"premise_silting": premise_silting, "premise_partial": premise_partial},
        universe_hash=universe_hash(t_universe),
    )


# -- facts the top-level claims record -------------------------------------------------


def hom_formula_facts(kind: int, x: CommaObject, y: CommaObject, tx: ModuleRep, ty: ModuleRep) -> dict:
    """dim Hom(X, Y) by formula ``kind``, between the comma objects, and
    between their T-modules ``tx`` and ``ty``."""
    return {"formula": hom_formula(kind, x, y), "comma_dim": hom_comma_dim(x, y), "t_module_dim": hom_dim(tx, ty)}


def tensor_oracle_facts(rt: RightTModule, c: CommaObject, t: TriangularAlgebra) -> dict:
    """dim of (X, Y, psi) (x)_T (A, B, phi) by the main, brute-force and algebra routes."""
    return {
        "main": tensor_T(rt, c),
        "bruteforce": tensor_T_bruteforce(rt, c),
        "via_algebra": tensor_T_via_algebra(rt, c, t),
    }


def decomposition_facts(presentations: tuple, m: ModuleRep, t: TriangularAlgebra) -> dict:
    """Whether M lies in D[sigma_T], and whether its components lie in
    D[sigma_A] and D[sigma_B], for ``presentations`` = (sigma_A, sigma_B, sigma_T)."""
    sigma_a, sigma_b, pres_t = presentations
    comma = from_T_module(m, t).comma
    return {
        "whole": d_sigma_member(pres_t, m),
        "componentwise": d_sigma_member(sigma_a, comma.A) and d_sigma_member(sigma_b, comma.B),
    }


def adjunction_facts(side: str, functor_ab: CommaObject, a: ModuleRep, b: ModuleRep, c: CommaObject) -> dict:
    """dim Hom(p(A, B), C) against dim Hom(A, C_A) + dim Hom(B, C_B) (side
    "p-q", ``functor_ab`` = p(A, B)), or dim Hom(C, h(A, B)) against
    dim Hom(C_A, A) + dim Hom(C_B, B) ("q-h", ``functor_ab`` = h(A, B))."""
    if side == "p-q":
        return {"comma_hom": hom_comma_dim(functor_ab, c), "component_hom": hom_dim(a, c.A) + hom_dim(b, c.B)}
    return {"comma_hom": hom_comma_dim(c, functor_ab), "component_hom": hom_dim(c.A, a) + hom_dim(c.B, b)}


def round_trip_facts(c: CommaObject, t: TriangularAlgebra) -> dict:
    """Whether C -> T-module -> comma object has a valid, invertible
    witness and gives back an object isomorphic to C."""
    m = to_T_module(c, t)
    back = from_T_module(m, t)
    return {
        "witness_valid": back.witness.is_valid() and rank(m.p, back.witness.matrix) == m.dim,
        "isomorphic": comma_is_isomorphic(back.comma, c).isomorphic,
    }


# -- certificate clauses ---------------------------------------------------------------


class MalformedReport(ValueError):
    """A report field that replay reads is missing, of the wrong type, or
    names nothing in the fixture or universe."""


# Field kinds besides the JSON types int, bool and str.  A field of any
# other str kind names an entry of that table of env["fixture"].
INDEX = "index"  # an index into env["universe"]
PAIR = "pair"  # a list of two such indices
MATRIX = "matrix"  # a list of rows of exact int64 integers


class Clause(NamedTuple):
    """The fields a certificate clause requires, and how to recheck it."""

    fields: dict
    recheck: Callable[[dict, dict], bool]


CLAUSES: dict[str, Clause] = {}


def _clause(*names: str, **fields) -> Callable:
    """Register the decorated recheck under each clause name, with ``fields``."""

    def register(recheck: Callable[[dict, dict], bool]) -> Callable:
        for name in names:
            CLAUSES[name] = Clause(fields, recheck)
        return recheck

    return register


def _kind_error(value, kind, env: dict) -> Optional[str]:
    """Why ``value`` is not a field of ``kind``, or None."""
    if isinstance(kind, type):
        return None if type(value) is kind else f" must be {kind.__name__}, got {type(value).__name__}"
    if kind == MATRIX:
        try:
            rows = int64_array(value, "matrix")
        except ValueError as exc:
            return f": {exc}"
        return None if type(value) is list and (rows.ndim == 2 or not value) else " must be a list of rows"
    if kind == PAIR:
        if type(value) is list and len(value) == 2:
            return next(filter(None, (_kind_error(i, INDEX, env) for i in value)), None)
        return f" must be a pair of universe indices, got {value!r}"
    if kind == INDEX:
        n = len(env["universe"])
        return None if type(value) is int and 0 <= value < n else f" must be an index below {n}, got {value!r}"
    if type(value) is not str:
        return f" must be str, got {type(value).__name__}"
    return None if value in getattr(env["fixture"], kind) else f": no entry {value!r} in the fixture"


def check_field(obj: dict, key: str, kind, env: dict, where: str):
    """``obj[key]``, checked to be a field of ``kind``; raises :class:`MalformedReport`."""
    if key not in obj:
        raise MalformedReport(f"{where}: missing field {key!r}")
    error = _kind_error(obj[key], kind, env)
    if error:
        raise MalformedReport(f"{where}.{key}{error}")
    return obj[key]


def check_certificate(cert: dict, clauses: Sequence[str], env: dict, where: str) -> Clause:
    """The entry of ``cert``'s clause, one of ``clauses``, after checking each
    field it requires against ``env``; raises :class:`MalformedReport`.

    Where only one clause is allowed its fields are checked first, then
    that the certificate names it.
    """
    name = clauses[0] if len(clauses) == 1 else check_field(cert, "clause", str, {}, where)
    if name not in clauses:
        raise MalformedReport(f"{where}.clause: {name!r} is not one of {list(clauses)}")
    entry = CLAUSES[name]
    for key, kind in entry.fields.items():
        check_field(cert, key, kind, env, where)
    if check_field(cert, "clause", str, {}, where) != name:
        raise MalformedReport(f"{where}.clause must be {name!r}, got {cert['clause']!r}")
    return entry


def _records(cert: dict, facts: dict) -> bool:
    """Whether ``cert`` records exactly ``facts``."""
    return all(cert[key] == value for key, value in facts.items())


def disagree(facts: dict) -> bool:
    """Whether the facts a claim compares disagree, so that it records a certificate."""
    return len(set(facts.values())) > 1


def _records_mismatch(cert: dict, facts: dict) -> bool:
    """Whether ``cert`` records exactly ``facts``, and they disagree."""
    return _records(cert, facts) and disagree(facts)


def _map(src: ModuleRep, tgt: ModuleRep, rows: list) -> Optional[ModuleMap]:
    """The map src -> tgt with matrix ``rows`` (no rows: into the zero
    module), or None if its shape is wrong or src and tgt are not over one
    algebra and side."""
    try:
        return ModuleMap(src, tgt, rows)
    except ValueError:
        return None


@_clause("hom-vanishing", x=INDEX, y=INDEX, hom_dim=int, witness=MATRIX)
def _hom_vanishing(cert: dict, env: dict) -> bool:
    src, tgt = env["universe"][cert["x"]], env["universe"][cert["y"]]
    if not cert["hom_dim"] or hom_dim(src, tgt) != cert["hom_dim"]:
        return False
    witness = _map(src, tgt, cert["witness"])
    return witness is not None and witness.is_valid() and bool(witness.matrix.any())


@_clause("torsion-sequence", module=INDEX, trace_dim=int, trace_in_x=bool, quotient_in_y=bool)
def _torsion_sequence(cert: dict, env: dict) -> bool:
    universe, x = env["universe"], env["x"]
    trace_dim, facts = torsion_sequence(x, env["y"], x.members(universe), universe[cert["module"]])
    return trace_dim == cert["trace_dim"] and _records(cert, facts) and not all(facts.values())


@_clause("perp-right", "perp-left", module=INDEX, in_perp=bool, in_family=bool)
def _perp(cert: dict, env: dict) -> bool:
    universe, x, y = env["universe"], env["x"], env["y"]
    m = universe[cert["module"]]
    if cert["clause"] == "perp-right":
        facts = {"in_perp": perp_predicate(x.members(universe), "right")(m), "in_family": y.contains(m)}
    else:
        facts = {"in_perp": perp_predicate(y.members(universe), "left")(m), "in_family": x.contains(m)}
    return _records_mismatch(cert, facts)


@_clause("membership-mismatch", module=INDEX, in_d_sigma=bool, in_gen=bool)
def _membership_mismatch(cert: dict, env: dict) -> bool:
    m = env["universe"][cert["module"]]
    pres = env["presentation"]
    facts = {"in_d_sigma": d_sigma_member(pres, m), "in_gen": gen_member(pres.target, m)}
    return _records_mismatch(cert, facts)


@_clause("self-membership")
def _self_membership(cert: dict, env: dict) -> bool:
    return not d_sigma_member(env["presentation"], env["presentation"].target)


@_clause("perp-equality", module=INDEX, in_lhs=bool, in_rhs=bool)
def _perp_equality(cert: dict, env: dict) -> bool:
    m = env["universe"][cert["module"]]
    return _records_mismatch(cert, {"in_lhs": env["lhs"].contains(m), "in_rhs": env["rhs"].contains(m)})


@_clause("forward-inclusion", "converse-inclusion", module=INDEX)
def _inclusion(cert: dict, env: dict) -> bool:
    m = env["universe"][cert["module"]]
    return env["lhs"].contains(m) and not env["rhs"].contains(m)


@_clause("image-closure", source=INDEX, target=INDEX, map=MATRIX, image_dim=int)
def _image_closure(cert: dict, env: dict) -> bool:
    src, tgt = env["universe"][cert["source"]], env["universe"][cert["target"]]
    mm = _map(src, tgt, cert["map"])
    if mm is None or not mm.is_valid():
        return False
    img = submodule(tgt, column_space_basis(src.p, mm.matrix))
    return img.dim == cert["image_dim"] and not env["family"].contains(img)


@_clause("sum-closure", pair=PAIR)
def _sum_closure(cert: dict, env: dict) -> bool:
    x, y = (env["universe"][i] for i in cert["pair"])
    return not env["family"].contains(direct_sum([x, y]))


@_clause("extension-closure", pair=PAIR, middle_dim=int)
def _extension_closure(cert: dict, env: dict) -> bool:
    x, y = (env["universe"][i] for i in cert["pair"])
    res = extension_middle_terms(x, y)
    return any(e.dim == cert["middle_dim"] and not env["family"].contains(e) for e in res.middle_terms)


@_clause(
    "hom-dim-mismatch",
    source="comma_universe", target="comma_universe", kind=int, formula=int, comma_dim=int, t_module_dim=int,
)
def _hom_dim_mismatch(cert: dict, env: dict) -> bool:
    fx = env["fixture"]
    x, y = fx.comma_universe[cert["source"]], fx.comma_universe[cert["target"]]
    if cert["kind"] != env["kind"] or not hom_formula_applicable(env["kind"], x, y):
        return False
    facts = hom_formula_facts(env["kind"], x, y, fx.t_universe[x.label], fx.t_universe[y.label])
    return _records_mismatch(cert, facts)


@_clause(
    "tensor-dim-mismatch",
    shape=int, right_module="right_t_universe", comma="comma_universe", predicted=int, computed=int,
)
def _tensor_dim_mismatch(cert: dict, env: dict) -> bool:
    fx = env["fixture"]
    rt, c = fx.right_t_universe[cert["right_module"]], fx.comma_universe[cert["comma"]]
    predicted = dict(tensor_shape_predictions(rt, c)).get(env["shape"])
    facts = {"predicted": predicted, "computed": tensor_T(rt, c)}
    return cert["shape"] == env["shape"] and _records_mismatch(cert, facts)


@_clause(
    "tensor-oracle-mismatch",
    right_module="right_t_universe", comma="comma_universe", main=int, bruteforce=int, via_algebra=int,
)
def _tensor_oracle_mismatch(cert: dict, env: dict) -> bool:
    fx = env["fixture"]
    rt, c = fx.right_t_universe[cert["right_module"]], fx.comma_universe[cert["comma"]]
    return _records_mismatch(cert, tensor_oracle_facts(rt, c, fx.t))


@_clause("decomposition-mismatch", module="t_universe", whole=bool, componentwise=bool)
def _decomposition_mismatch(cert: dict, env: dict) -> bool:
    fx = env["fixture"]
    return _records_mismatch(cert, decomposition_facts(env["presentations"], fx.t_universe[cert["module"]], fx.t))


@_clause(
    "adjunction-mismatch",
    a="r_universe", b="s_universe", comma="comma_universe", comma_hom=int, component_hom=int,
)
def _adjunction_mismatch(cert: dict, env: dict) -> bool:
    fx, side = env["fixture"], env["side"]
    a, b, c = fx.r_universe[cert["a"]], fx.s_universe[cert["b"]], fx.comma_universe[cert["comma"]]
    functor_ab = (functor_p if side == "p-q" else functor_h)(fx.t.u, a, b)
    return _records_mismatch(cert, adjunction_facts(side, functor_ab, a, b, c))


@_clause("roundtrip-failure", comma="comma_universe", witness_valid=bool, isomorphic=bool)
def _roundtrip_failure(cert: dict, env: dict) -> bool:
    facts = round_trip_facts(env["fixture"].comma_universe[cert["comma"]], env["fixture"].t)
    return _records(cert, facts) and not all(facts.values())

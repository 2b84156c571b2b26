"""Verifiers for the transfer statements, with machine-checkable verdicts.

Each verifier computes both sides of its statement independently and
reports whether they agree; none of them hard-codes an expected truth
value.  Verdicts carry certificates that name concrete universe members
and record the facts that witnessed a violation; ``recheck_certificate``
replays one certificate from raw data.
"""

from __future__ import annotations

from typing import Sequence

from .algebra import TriangularAlgebra
from .comma import sigma_for_p, tensor_over
from .linalg import FpMatrix
from .modules import (
    ModuleMap,
    ModuleRep,
    dual_module,
    gen_member,
    hom_space,
    is_isomorphic,
    quotient_module,
    regular_module,
    submodule,
    trace_of,
)
from .presentations import (
    Presentation,
    d_sigma_member,
    is_partial_silting,
    is_silting,
    universe_hash,
)
from .torsion import (
    ModuleFamily,
    Verdict,
    all_submodule_bases,
    comma_family,
    is_torsion_pair,
    perp_left,
    perp_right,
)


def _silting_subverdict(claim: str, verdict) -> Verdict:
    certs = [{"clause": "membership-mismatch", **d} for d in verdict.disagreements]
    return Verdict(
        claim=claim,
        result="holds" if verdict.holds else "fails",
        certificates=certs,
        universe_hash=verdict.universe_hash,
    )


def _partial_subverdict(claim: str, verdict) -> Verdict:
    return Verdict(
        claim=claim,
        result="holds" if verdict.holds else "fails",
        certificates=list(verdict.failures),
        universe_hash=verdict.universe_hash,
    )


def verify_silting_transfer(
    t: TriangularAlgebra,
    a: ModuleRep,
    sigma_a: Presentation,
    b: ModuleRep,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Silting of (0, B) + (A, FA) against the three component conditions.

    Left side: silting over T with the block presentation.  Right side:
    A silting, B silting, and FA generated by B.  The verdict states
    whether the two sides agree.
    """
    pres_t = sigma_for_p(t, a, sigma_a, b, sigma_b)
    lhs = is_silting(pres_t.target, pres_t, t_universe)
    rhs_a = is_silting(a, sigma_a, r_universe)
    rhs_b = is_silting(b, sigma_b, s_universe)
    fa = tensor_over(t.u, a).module
    rhs_gen = gen_member(b, fa)
    rhs = rhs_a.holds and rhs_b.holds and rhs_gen
    agree = lhs.holds == rhs
    return Verdict(
        claim="silting-transfer",
        result="holds" if agree else "fails",
        sub=[
            _silting_subverdict("left-side", lhs),
            _silting_subverdict("component-A", rhs_a),
            _silting_subverdict("component-B", rhs_b),
        ],
        data={
            "left_side": lhs.holds,
            "right_side": rhs,
            "fa_in_gen_b": rhs_gen,
            "fa_dim": fa.dim,
        },
        universe_hash=universe_hash(t_universe),
    )


def verify_partial_silting_transfer(
    t: TriangularAlgebra,
    a: ModuleRep,
    sigma_a: Presentation,
    b: ModuleRep,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Partial-silting variant: the third clause asks FA to lie in the
    sigma_B class instead of Gen B."""
    pres_t = sigma_for_p(t, a, sigma_a, b, sigma_b)
    lhs = is_partial_silting(pres_t.target, pres_t, t_universe)
    rhs_a = is_partial_silting(a, sigma_a, r_universe)
    rhs_b = is_partial_silting(b, sigma_b, s_universe)
    fa = tensor_over(t.u, a).module
    rhs_fa = d_sigma_member(sigma_b, fa)
    rhs = rhs_a.holds and rhs_b.holds and rhs_fa
    agree = lhs.holds == rhs
    return Verdict(
        claim="partial-silting-transfer",
        result="holds" if agree else "fails",
        sub=[
            _partial_subverdict("left-side", lhs),
            _partial_subverdict("component-A", rhs_a),
            _partial_subverdict("component-B", rhs_b),
        ],
        data={"left_side": lhs.holds, "right_side": rhs, "fa_in_d_sigma_b": rhs_fa},
        universe_hash=universe_hash(t_universe),
    )


def _set_comparison_certs(
    lhs: ModuleFamily, rhs: ModuleFamily, universe: Sequence[ModuleRep], clause: str
) -> list[dict]:
    certs = []
    for k, m in enumerate(universe):
        in_l, in_r = lhs.contains(m), rhs.contains(m)
        if in_l != in_r:
            certs.append(
                {
                    "clause": clause,
                    "module": k,
                    "label": m.label,
                    "in_lhs": in_l,
                    "in_rhs": in_r,
                }
            )
    return certs


def _inclusion_certs(
    smaller: ModuleFamily, larger: ModuleFamily, universe: Sequence[ModuleRep], clause: str
) -> list[dict]:
    certs = []
    for k, m in enumerate(universe):
        if smaller.contains(m) and not larger.contains(m):
            certs.append({"clause": clause, "module": k, "label": m.label})
    return certs


def verify_prop_B_perp(
    t: TriangularAlgebra,
    cfam: ModuleFamily,
    dfam: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Perpendicular calculus of the mono family.

    Part 1: the right perp of the mono family equals the plain family of
    the component perps.  Part 2: the mono family on left perps embeds
    in the left perp of the plain family, with the converse tested under
    the dual-module hypothesis.
    """
    s_plus = dual_module(t.s)
    bfam = comma_family("B", cfam, dfam, t, t_universe)
    lhs1 = perp_right(bfam, list(t_universe))
    rhs1 = comma_family(
        "U", perp_right(cfam, r_universe), perp_right(dfam, s_universe), t, t_universe
    )
    certs1 = _set_comparison_certs(lhs1, rhs1, t_universe, "perp-equality")
    sub1 = Verdict("right-perp-equality", "holds" if not certs1 else "fails", certs1)

    b_on_perps = comma_family(
        "B", perp_left(cfam, r_universe), perp_left(dfam, s_universe), t, t_universe
    )
    u_cd = comma_family("U", cfam, dfam, t, t_universe)
    left_perp_u = perp_left(u_cd, list(t_universe))
    certs2 = _inclusion_certs(b_on_perps, left_perp_u, t_universe, "forward-inclusion")
    sub2 = Verdict("forward-inclusion", "holds" if not certs2 else "fails", certs2)

    hyp = dfam.contains(s_plus)
    if hyp:
        certs3 = _inclusion_certs(left_perp_u, b_on_perps, t_universe, "converse-inclusion")
        sub3 = Verdict("converse-inclusion", "holds" if not certs3 else "fails", certs3)
    else:
        sub3 = Verdict("converse-inclusion", "out-of-scope", [], data={"hypothesis": False})
    applicable = [sub1, sub2] + ([sub3] if hyp else [])
    ok = all(v.holds for v in applicable)
    return Verdict(
        claim="perp-transfer-mono",
        result="holds" if ok else "fails",
        sub=[sub1, sub2, sub3],
        data={"c": cfam.spec, "d": dfam.spec, "dual_module_hypothesis": hyp},
        universe_hash=universe_hash(t_universe),
    )


def verify_prop_J_perp(
    t: TriangularAlgebra,
    cfam: ModuleFamily,
    dfam: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Perpendicular calculus of the adjoint-epi family (mirror statement)."""
    r_reg = regular_module(t.r)
    jfam = comma_family("J", cfam, dfam, t, t_universe)
    lhs1 = perp_left(jfam, list(t_universe))
    rhs1 = comma_family(
        "U", perp_left(cfam, r_universe), perp_left(dfam, s_universe), t, t_universe
    )
    certs1 = _set_comparison_certs(lhs1, rhs1, t_universe, "perp-equality")
    sub1 = Verdict("left-perp-equality", "holds" if not certs1 else "fails", certs1)

    j_on_perps = comma_family(
        "J", perp_right(cfam, r_universe), perp_right(dfam, s_universe), t, t_universe
    )
    u_cd = comma_family("U", cfam, dfam, t, t_universe)
    right_perp_u = perp_right(u_cd, list(t_universe))
    certs2 = _inclusion_certs(j_on_perps, right_perp_u, t_universe, "forward-inclusion")
    sub2 = Verdict("forward-inclusion", "holds" if not certs2 else "fails", certs2)

    hyp = cfam.contains(r_reg)
    if hyp:
        certs3 = _inclusion_certs(right_perp_u, j_on_perps, t_universe, "converse-inclusion")
        sub3 = Verdict("converse-inclusion", "holds" if not certs3 else "fails", certs3)
    else:
        sub3 = Verdict("converse-inclusion", "out-of-scope", [], data={"hypothesis": False})
    applicable = [sub1, sub2] + ([sub3] if hyp else [])
    ok = all(v.holds for v in applicable)
    return Verdict(
        claim="perp-transfer-adjoint",
        result="holds" if ok else "fails",
        sub=[sub1, sub2, sub3],
        data={"c": cfam.spec, "d": dfam.spec, "regular_hypothesis": hyp},
        universe_hash=universe_hash(t_universe),
    )


def verify_thm_torsion_B(
    t: TriangularAlgebra,
    c1: ModuleFamily,
    c2: ModuleFamily,
    d1: ModuleFamily,
    d2: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Transfer of torsion pairs through the mono family.

    Left side: the component pairs are torsion pairs.  Right side: the
    pair (mono family on (c1, d1), plain family on (c2, d2)) is a
    torsion pair over T.  Requires the dual module in d2; reports the
    equivalence verdict with both sides attached.
    """
    s_plus = dual_module(t.s)
    p_r = is_torsion_pair(c1, c2, r_universe)
    p_s = is_torsion_pair(d1, d2, s_universe)
    hyp = d2.contains(s_plus)
    bfam = comma_family("B", c1, d1, t, t_universe)
    ufam = comma_family("U", c2, d2, t, t_universe)
    q = is_torsion_pair(bfam, ufam, t_universe)
    left = p_r.holds and p_s.holds
    if not hyp:
        result = "out-of-scope"
    else:
        result = "holds" if left == q.holds else "fails"
    return Verdict(
        claim="torsion-transfer-mono",
        result=result,
        sub=[p_r, p_s, q],
        data={
            "hypothesis": hyp,
            "component_pairs_hold": left,
            "comma_pair_holds": q.holds,
        },
        universe_hash=universe_hash(t_universe),
    )


def verify_thm_torsion_J(
    t: TriangularAlgebra,
    c1: ModuleFamily,
    c2: ModuleFamily,
    d1: ModuleFamily,
    d2: ModuleFamily,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
) -> Verdict:
    """Transfer of torsion pairs through the adjoint-epi family (mirror)."""
    r_reg = regular_module(t.r)
    p_r = is_torsion_pair(c1, c2, r_universe)
    p_s = is_torsion_pair(d1, d2, s_universe)
    hyp = c1.contains(r_reg)
    ufam = comma_family("U", c1, d1, t, t_universe)
    jfam = comma_family("J", c2, d2, t, t_universe)
    q = is_torsion_pair(ufam, jfam, t_universe)
    left = p_r.holds and p_s.holds
    if not hyp:
        result = "out-of-scope"
    else:
        result = "holds" if left == q.holds else "fails"
    return Verdict(
        claim="torsion-transfer-adjoint",
        result=result,
        sub=[p_r, p_s, q],
        data={
            "hypothesis": hyp,
            "component_pairs_hold": left,
            "comma_pair_holds": q.holds,
        },
        universe_hash=universe_hash(t_universe),
    )


def verify_final_corollaries(
    t: TriangularAlgebra,
    a: ModuleRep,
    sigma_a: Presentation,
    b: ModuleRep,
    sigma_b: Presentation,
    r_universe: Sequence[ModuleRep],
    s_universe: Sequence[ModuleRep],
    t_universe: Sequence[ModuleRep],
    iso_cap: int = 16,
) -> Verdict:
    """The closing corollaries: silting reductions and the induced
    comma torsion pairs from a silting pair (A, B)."""
    from .modules import zero_module

    u = t.u
    subs: list[Verdict] = []

    s_reg = regular_module(t.s)
    if b.dim == s_reg.dim and is_isomorphic(b, s_reg, cap=iso_cap).isomorphic:
        pres_t = sigma_for_p(t, a, sigma_a, b, sigma_b)
        lhs = is_silting(pres_t.target, pres_t, t_universe)
        rhs = is_silting(a, sigma_a, r_universe)
        subs.append(
            Verdict(
                "silting-vs-component-A",
                "holds" if lhs.holds == rhs.holds else "fails",
                data={"left_side": lhs.holds, "right_side": rhs.holds},
            )
        )
        lhs_p = is_partial_silting(pres_t.target, pres_t, t_universe)
        rhs_p = is_partial_silting(a, sigma_a, r_universe)
        subs.append(
            Verdict(
                "partial-silting-vs-component-A",
                "holds" if lhs_p.holds == rhs_p.holds else "fails",
                data={"left_side": lhs_p.holds, "right_side": rhs_p.holds},
            )
        )
    else:
        subs.append(Verdict("silting-vs-component-A", "out-of-scope", [], data={"b_is_regular": False}))

    # For the A = 0 component the definition's existential presentation
    # choice matters: only the cover R -> 0 makes the zero module silting
    # (its class is then exactly {0} = Gen 0), so that is the one used.
    zero_r = zero_module(t.r)
    zero_cover = Presentation(
        sigma=ModuleMap(regular_module(t.r), zero_r, FpMatrix.zeros(t.p, 0, t.r.dim)),
        target=zero_r,
        witness=ModuleMap(zero_r, zero_r, FpMatrix.zeros(t.p, 0, 0)),
    )
    pres_b_only = sigma_for_p(t, zero_r, zero_cover, b, sigma_b)
    lhs_b = is_silting(pres_b_only.target, pres_b_only, t_universe)
    rhs_b = is_silting(b, sigma_b, s_universe)
    subs.append(
        Verdict(
            "silting-vs-component-B",
            "holds" if lhs_b.holds == rhs_b.holds else "fails",
            data={"left_side": lhs_b.holds, "right_side": rhs_b.holds},
        )
    )

    pres_t = sigma_for_p(t, a, sigma_a, b, sigma_b)
    premise_silting = is_silting(pres_t.target, pres_t, t_universe).holds
    premise_partial = is_partial_silting(pres_t.target, pres_t, t_universe).holds

    gen_a = ModuleFamily(
        f"Gen({a.label})", {"kind": "gen", "module": a.label}, list(r_universe),
        lambda m: gen_member(a, m),
    )
    gen_b = ModuleFamily(
        f"Gen({b.label})", {"kind": "gen", "module": b.label}, list(s_universe),
        lambda m: gen_member(b, m),
    )
    a_perp = ModuleFamily(
        f"({a.label})^perp", {"kind": "perp_right_modules", "modules": [a.label]},
        list(r_universe), lambda m: len(hom_space(a, m)) == 0,
    )
    b_perp = ModuleFamily(
        f"({b.label})^perp", {"kind": "perp_right_modules", "modules": [b.label]},
        list(s_universe), lambda m: len(hom_space(b, m)) == 0,
    )
    s_plus = dual_module(t.s)
    r_reg = regular_module(t.r)

    hyp_mono = b_perp.contains(s_plus)
    if (premise_silting or premise_partial) and hyp_mono:
        q = is_torsion_pair(
            comma_family("B", gen_a, gen_b, t, t_universe),
            comma_family("U", a_perp, b_perp, t, t_universe),
            t_universe,
        )
        subs.append(
            Verdict(
                "induced-torsion-pair-mono",
                q.result,
                sub=[q],
                data={"hypothesis": True},
            )
        )
    else:
        subs.append(
            Verdict(
                "induced-torsion-pair-mono",
                "out-of-scope",
                [],
                data={"premise_silting": premise_silting, "hypothesis": hyp_mono},
            )
        )

    hyp_adj = gen_a.contains(r_reg)
    if (premise_silting or premise_partial) and hyp_adj:
        q = is_torsion_pair(
            comma_family("U", gen_a, gen_b, t, t_universe),
            comma_family("J", a_perp, b_perp, t, t_universe),
            t_universe,
        )
        subs.append(
            Verdict(
                "induced-torsion-pair-adjoint",
                q.result,
                sub=[q],
                data={"hypothesis": True},
            )
        )
    else:
        subs.append(
            Verdict(
                "induced-torsion-pair-adjoint",
                "out-of-scope",
                [],
                data={"premise_silting": premise_silting, "hypothesis": hyp_adj},
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


# -- certificate replay ----------------------------------------------------------


def recheck_certificate(cert: dict, env: dict) -> bool:
    """Re-verify one certificate from raw data.

    ``env`` supplies the context the certificate's clause needs:
    "universe" (list of modules, for index references), "x"/"y"
    (families for torsion clauses), "family" (for closure clauses),
    "presentation" and "gen_module" (for silting mismatches).
    """
    clause = cert.get("clause")
    universe: Sequence[ModuleRep] = env.get("universe", [])
    if clause == "hom-vanishing":
        src, tgt = universe[cert["x"]], universe[cert["y"]]
        basis = hom_space(src, tgt)
        if len(basis) != cert["hom_dim"] or not basis:
            return False
        witness = ModuleMap(src, tgt, FpMatrix(src.p, cert["witness"]))
        return witness.is_valid() and not witness.matrix.is_zero()
    if clause == "torsion-sequence":
        x: ModuleFamily = env["x"]
        y: ModuleFamily = env["y"]
        m = universe[cert["module"]]
        sub, inc = trace_of(x.members(universe), m)
        if sub.dim != cert["trace_dim"]:
            return False
        quot, _ = quotient_module(m, inc.matrix)
        t_in_x = x.contains(sub)
        q_in_y = y.contains(quot)
        return (
            t_in_x == cert["trace_in_x"]
            and q_in_y == cert["quotient_in_y"]
            and not (t_in_x and q_in_y)
        )
    if clause == "no-sequence":
        x, y = env["x"], env["y"]
        m = universe[cert["module"]]
        for w in all_submodule_bases(m):
            sub, _ = submodule(m, w)
            if not x.contains(sub):
                continue
            quot, _ = quotient_module(m, w)
            if y.contains(quot):
                return False
        return True
    if clause in ("perp-right", "perp-left"):
        x, y = env["x"], env["y"]
        m = universe[cert["module"]]
        if clause == "perp-right":
            in_perp = all(len(hom_space(g, m)) == 0 for g in x.members(universe))
            in_fam = y.contains(m)
        else:
            in_perp = all(len(hom_space(m, g)) == 0 for g in y.members(universe))
            in_fam = x.contains(m)
        return in_perp == cert["in_perp"] and in_fam == cert["in_family"] and in_perp != in_fam
    if clause == "membership-mismatch":
        pres: Presentation = env["presentation"]
        gen_mod: ModuleRep = env["gen_module"]
        m = universe[cert["module"]]
        in_d = d_sigma_member(pres, m)
        in_g = gen_member(gen_mod, m)
        return in_d == cert["in_d_sigma"] and in_g == cert["in_gen"] and in_d != in_g
    if clause == "self-membership":
        pres = env["presentation"]
        return not d_sigma_member(pres, pres.target)
    if clause in ("perp-equality", "forward-inclusion", "converse-inclusion"):
        lhs: ModuleFamily = env["lhs"]
        rhs: ModuleFamily = env["rhs"]
        m = universe[cert["module"]]
        in_l, in_r = lhs.contains(m), rhs.contains(m)
        if clause == "perp-equality":
            return in_l == cert["in_lhs"] and in_r == cert["in_rhs"] and in_l != in_r
        return in_l and not in_r
    if clause == "image-closure":
        fam: ModuleFamily = env["family"]
        src = universe[cert["source"]]
        tgt = universe[cert["target"]]
        rows = cert["map"]
        # A map into the zero module has no rows to carry its width.
        mat = FpMatrix(src.p, rows) if rows else FpMatrix.zeros(src.p, 0, src.dim)
        mm = ModuleMap(src, tgt, mat)
        if not mm.is_valid():
            return False
        from .linalg import column_space_basis

        img, _ = submodule(tgt, column_space_basis(mat))
        return img.dim == cert["image_dim"] and not fam.contains(img)
    if clause == "sum-closure":
        fam = env["family"]
        from .modules import direct_sum

        i, j = cert["pair"]
        total = direct_sum([universe[i], universe[j]], algebra=universe[i].algebra).module
        return not fam.contains(total)
    if clause == "extension-closure":
        fam = env["family"]
        from .modules import extension_middle_terms

        i, j = cert["pair"]
        res = extension_middle_terms(universe[i], universe[j])
        return any(e.dim == cert["middle_dim"] and not fam.contains(e) for e in res.middle_terms)
    raise ValueError(f"unknown certificate clause: {clause!r}")

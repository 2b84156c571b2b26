"""Module families, perpendicular classes, and the torsion-pair decision.

A family is an intrinsic membership predicate together with a declared
finite universe of representatives.  All decisions (torsion pair,
torsion class) are taken over such universes and produce verdicts whose
certificates can be re-checked instance by instance from raw data.

The torsion-pair test has an exhaustive counterpart that enumerates all
invariant subspaces instead of using the trace; acceptance requires the
two to agree on the fixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import TriangularAlgebra
from .comma import family_membership, from_T_module
from .linalg import batched_rref, combination_chunks, enumerate_vectors, rank
from .modules import (
    ModuleRep,
    direct_sum,
    extension_middle_terms,
    gen_member,
    hom_dim,
    hom_space,
    is_isomorphic,
    quotient_module,
    submodule,
    trace_of,
)
from .presentations import Presentation, d_sigma_member, universe_hash


@dataclass
class ModuleFamily:
    """Intrinsic membership predicate plus a universe of representatives."""

    label: str
    spec: dict
    universe: list[ModuleRep]
    predicate: Callable[[ModuleRep], bool]

    def contains(self, m: ModuleRep) -> bool:
        return self.predicate(m)

    def member_indices(self, universe: Optional[Sequence[ModuleRep]] = None) -> list[int]:
        univ = self.universe if universe is None else universe
        return [i for i, m in enumerate(univ) if self.predicate(m)]

    def members(self, universe: Optional[Sequence[ModuleRep]] = None) -> list[ModuleRep]:
        univ = self.universe if universe is None else universe
        return [m for m in univ if self.predicate(m)]


def family_all(universe: Sequence[ModuleRep]) -> ModuleFamily:
    return ModuleFamily("all", {"kind": "all"}, list(universe), lambda m: True)


def family_zero(universe: Sequence[ModuleRep]) -> ModuleFamily:
    return ModuleFamily("zero", {"kind": "zero"}, list(universe), lambda m: m.dim == 0)


def family_explicit(
    members: Sequence[ModuleRep], universe: Sequence[ModuleRep], label: str = ""
) -> ModuleFamily:
    reps = list(members)

    def pred(m: ModuleRep) -> bool:
        return any(
            m.dim == r.dim and is_isomorphic(m, r).isomorphic for r in reps
        )

    return ModuleFamily(
        label or "explicit",
        {"kind": "explicit", "modules": [r.label for r in reps]},
        list(universe),
        pred,
    )


def family_gen(t: ModuleRep, universe: Sequence[ModuleRep], label: str = "") -> ModuleFamily:
    return ModuleFamily(
        label or f"Gen({t.label})",
        {"kind": "gen", "module": t.label},
        list(universe),
        lambda m: gen_member(t, m),
    )


def family_d_sigma(pres: Presentation, universe: Sequence[ModuleRep], label: str = "") -> ModuleFamily:
    return ModuleFamily(
        label or "D_sigma",
        {"kind": "d_sigma", "target": pres.target.label},
        list(universe),
        lambda m: d_sigma_member(pres, m),
    )


def _perp_predicate(generators: list[ModuleRep], side: str) -> Callable[[ModuleRep], bool]:
    if side == "right":
        return lambda m: all(hom_dim(g, m) == 0 for g in generators)
    return lambda m: all(hom_dim(m, g) == 0 for g in generators)


def perp_right(f: ModuleFamily, universe: Sequence[ModuleRep]) -> ModuleFamily:
    """Members vanishing under Hom from every family member of the universe."""
    gens = f.members()
    return ModuleFamily(
        f"({f.label})^perp",
        {"kind": "perp_right", "of": f.spec},
        list(universe),
        _perp_predicate(gens, "right"),
    )


def perp_left(f: ModuleFamily, universe: Sequence[ModuleRep]) -> ModuleFamily:
    gens = f.members()
    return ModuleFamily(
        f"perp^({f.label})",
        {"kind": "perp_left", "of": f.spec},
        list(universe),
        _perp_predicate(gens, "left"),
    )


def perp_right_modules(
    mods: Sequence[ModuleRep], universe: Sequence[ModuleRep], label: str = ""
) -> ModuleFamily:
    gens = list(mods)
    return ModuleFamily(
        label or "perp-right",
        {"kind": "perp_right_modules", "modules": [m.label for m in gens]},
        list(universe),
        _perp_predicate(gens, "right"),
    )


def comma_family(
    kind: str,
    cfam: ModuleFamily,
    dfam: ModuleFamily,
    t: TriangularAlgebra,
    universe: Sequence[ModuleRep],
    label: str = "",
) -> ModuleFamily:
    """The U/B/J family as an intrinsic predicate on left T-modules."""

    def pred(m: ModuleRep) -> bool:
        comma = from_T_module(m, t).comma
        return family_membership(comma, kind, cfam, dfam)

    return ModuleFamily(
        label or f"{kind}[{cfam.label};{dfam.label}]",
        {"kind": "comma", "family": kind, "c": cfam.spec, "d": dfam.spec},
        list(universe),
        pred,
    )


# -- verdicts ------------------------------------------------------------------


@dataclass
class Verdict:
    claim: str
    result: str  # "holds" | "fails" | "out-of-scope"
    certificates: list[dict] = field(default_factory=list)
    sub: list["Verdict"] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    universe_hash: str = ""

    @property
    def holds(self) -> bool:
        return self.result == "holds"

    def to_dict(self) -> dict:
        return {
            "claim": self.claim,
            "result": self.result,
            "certificates": self.certificates,
            "data": self.data,
            "universe_hash": self.universe_hash,
            "sub": [s.to_dict() for s in self.sub],
        }


# -- submodule enumeration -----------------------------------------------------


def all_subspace_bases(p: int, n: int) -> list[np.ndarray]:
    """Every subspace of F_p^n exactly once, as the columns of its canonical RREF basis."""
    out = [np.zeros((n, 0), dtype=np.int64)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free_positions = [
                (i, j)
                for i in range(k)
                for j in range(n)
                if j > pivots[i] and j not in pivots
            ]
            for values in enumerate_vectors(p, len(free_positions)):
                rows = np.zeros((k, n), dtype=np.int64)
                for i in range(k):
                    rows[i, pivots[i]] = 1
                for (i, j), v in zip(free_positions, values):
                    rows[i, j] = v
                out.append(rows.T)
    return out


def all_submodule_bases(m: ModuleRep) -> list[np.ndarray]:
    """Bases of all action-invariant subspaces."""
    out = []
    for w in all_subspace_bases(m.p, m.dim):
        if w.shape[1] == 0:
            out.append(w)
            continue
        width = rank(m.p, w)
        if all(rank(m.p, np.hstack([w, act @ w % m.p])) == width for act in m.action):
            out.append(w)
    return out


# -- torsion pair --------------------------------------------------------------


def _hom_vanishing_certs(xi: list[int], yi: list[int], universe: Sequence[ModuleRep]) -> list[dict]:
    certs = []
    for i in xi:
        for j in yi:
            if hom_dim(universe[i], universe[j]):
                basis = hom_space(universe[i], universe[j])
                certs.append(
                    {
                        "clause": "hom-vanishing",
                        "x": i,
                        "y": j,
                        "x_label": universe[i].label,
                        "y_label": universe[j].label,
                        "hom_dim": len(basis),
                        "witness": basis[0].tolist(),
                    }
                )
    return certs


def _perp_certs(xi: list[int], yi: list[int], universe: Sequence[ModuleRep]) -> list[dict]:
    certs = []
    x_members = [universe[i] for i in xi]
    y_members = [universe[i] for i in yi]
    x_set, y_set = set(xi), set(yi)
    for k, m in enumerate(universe):
        in_pr = all(hom_dim(g, m) == 0 for g in x_members)
        in_y = k in y_set
        if in_pr != in_y:
            certs.append(
                {
                    "clause": "perp-right",
                    "module": k,
                    "label": m.label,
                    "in_perp": in_pr,
                    "in_family": in_y,
                }
            )
        in_pl = all(hom_dim(m, g) == 0 for g in y_members)
        in_x = k in x_set
        if in_pl != in_x:
            certs.append(
                {
                    "clause": "perp-left",
                    "module": k,
                    "label": m.label,
                    "in_perp": in_pl,
                    "in_family": in_x,
                }
            )
    return certs


def is_torsion_pair(x: ModuleFamily, y: ModuleFamily, universe: Sequence[ModuleRep]) -> Verdict:
    """Torsion-pair test via the trace.

    Checks (a) Hom vanishing between members, (b) for every universe
    member M the trace t of the x-members satisfies t in x and M/t in y,
    (c) the two perpendicular equalities restricted to the universe.
    Each family's predicate is evaluated once per universe member.
    """
    xi = x.member_indices(universe)
    yi = y.member_indices(universe)
    certs = _hom_vanishing_certs(xi, yi, universe)
    x_members = [universe[i] for i in xi]
    for k, m in enumerate(universe):
        sub, inc = trace_of(x_members, m)
        t_in_x = x.contains(sub)
        quot, _ = quotient_module(m, inc.matrix)
        q_in_y = y.contains(quot)
        if not (t_in_x and q_in_y):
            certs.append(
                {
                    "clause": "torsion-sequence",
                    "module": k,
                    "label": m.label,
                    "trace_dim": sub.dim,
                    "trace_in_x": t_in_x,
                    "quotient_in_y": q_in_y,
                }
            )
    certs.extend(_perp_certs(xi, yi, universe))
    return Verdict(
        claim=f"torsion-pair({x.label}, {y.label})",
        result="holds" if not certs else "fails",
        certificates=certs,
        data={
            "x": x.spec,
            "y": y.spec,
            "x_members": xi,
            "y_members": yi,
        },
        universe_hash=universe_hash(universe),
    )


def torsion_pair_oracle(x: ModuleFamily, y: ModuleFamily, universe: Sequence[ModuleRep]) -> Verdict:
    """Exhaustive torsion-pair test: sequence existence by enumerating
    every invariant subspace of every universe member."""
    xi = x.member_indices(universe)
    yi = y.member_indices(universe)
    certs = _hom_vanishing_certs(xi, yi, universe)
    for k, m in enumerate(universe):
        found = False
        for w in all_submodule_bases(m):
            sub, _ = submodule(m, w)
            if not x.contains(sub):
                continue
            quot, _ = quotient_module(m, w)
            if y.contains(quot):
                found = True
                break
        if not found:
            certs.append({"clause": "no-sequence", "module": k, "label": m.label})
    certs.extend(_perp_certs(xi, yi, universe))
    return Verdict(
        claim=f"torsion-pair-oracle({x.label}, {y.label})",
        result="holds" if not certs else "fails",
        certificates=certs,
        data={"x": x.spec, "y": y.spec},
        universe_hash=universe_hash(universe),
    )


# -- torsion class --------------------------------------------------------------

# is_torsion_class enumerates the maps of a member/universe pair only up to
# this Hom dimension, and forms at most EXT_CAP extension classes per pair of
# members; past either the verdict is flagged partial.
MAP_ENUM_CAP = 12
EXT_CAP = 64


def is_torsion_class(
    f: ModuleFamily,
    universe: Sequence[ModuleRep],
    max_dim: Optional[int] = None,
) -> Verdict:
    """Closure under images of maps into the universe, pairwise direct
    sums, and extension middle terms.

    Sums and extensions are only formed within ``max_dim`` (the
    universe's dimension bound); the verdict is flagged partial when a
    hom space exceeds the enumeration cap or extension classes were
    truncated.

    Many maps share an image, so the image test is memoized per call on
    (target index, canonical basis of the image), across all source
    members: only an image not seen before is built as a submodule and
    tested.  The bases come from one :func:`batched_rref` of the
    transposed maps per enumeration chunk, not from one ``rref`` per map.
    Maps are still visited in enumeration order and each (source, target)
    pair stops at its first map with a failing image, so an
    ``image-closure`` certificate names the same map as testing every
    image would, and the family predicate is called on a subset of the
    images it would otherwise see.
    """
    certs = []
    partial = False
    members = [(i, universe[i]) for i in f.member_indices(universe)]
    image_in_f: dict[tuple[int, bytes], bool] = {}
    for i, m in members:
        for j, n in enumerate(universe):
            basis = hom_space(m, n) if hom_dim(m, n) else np.zeros((0, n.dim, m.dim), dtype=np.int64)
            if len(basis) > MAP_ENUM_CAP:
                partial = True
                continue
            for chunk in combination_chunks(m.p, basis):
                reduced, ranks = batched_rref(m.p, chunk.transpose(0, 2, 1))
                for k, r in enumerate(ranks.tolist()):
                    rows = reduced[k, :r]  # the transposed canonical basis of the image
                    key = (j, rows.tobytes())
                    ok = image_in_f.get(key)
                    if ok is None:
                        ok = image_in_f[key] = f.contains(submodule(n, rows.T)[0])
                    if not ok:
                        certs.append({"clause": "image-closure", "source": i, "target": j,
                                      "map": chunk[k].tolist(), "image_dim": r})
                        break
                else:
                    continue
                break  # the pair's first failing map ends its enumeration
    for i, m in members:
        for j, n in members:
            if max_dim is not None and m.dim + n.dim > max_dim:
                continue
            total = direct_sum([m, n], algebra=m.algebra, side=m.side).module
            if not f.contains(total):
                certs.append({"clause": "sum-closure", "pair": [i, j]})
    for i, m in members:
        for j, n in members:
            if max_dim is not None and m.dim + n.dim > max_dim:
                continue
            res = extension_middle_terms(m, n, cap=EXT_CAP)
            if res.truncated:
                partial = True
            for e in res.middle_terms:
                if not f.contains(e):
                    certs.append({"clause": "extension-closure", "pair": [i, j], "middle_dim": e.dim})
                    break
    return Verdict(
        claim=f"torsion-class({f.label})",
        result="holds" if not certs else "fails",
        certificates=certs,
        data={
            "family": f.spec,
            "partial": partial,
            "members": [i for i, _ in members],
            "dimension_bound": max_dim,
        },
        universe_hash=universe_hash(universe),
    )

"""Module families, perpendicular classes, and the torsion-pair decision.

A family is an intrinsic membership predicate with a label and a spec;
it stores no universe.  Every decision (torsion pair, torsion class) is
taken over a finite universe passed to it, and produces a
:class:`~commacat.presentations.Verdict` whose certificates can be
re-checked instance by instance from raw data.  A perpendicular class
takes its generators from the universe it is built over.

The torsion-pair test has an exhaustive counterpart that enumerates all
invariant subspaces instead of using the trace; acceptance requires the
two to agree on the fixtures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import TriangularAlgebra
from .comma import family_membership, from_T_module
from .linalg import ENUM_CHUNK, batched_rref, combination_chunks, rank
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
    trace_span,
)
from .presentations import Presentation, Verdict, d_sigma_member, universe_hash


@dataclass
class ModuleFamily:
    """An intrinsic membership predicate, with the label and spec a report names it by."""

    label: str
    spec: dict
    predicate: Callable[[ModuleRep], bool]

    def contains(self, m: ModuleRep) -> bool:
        return self.predicate(m)

    def member_indices(self, universe: Sequence[ModuleRep]) -> list[int]:
        return [i for i, m in enumerate(universe) if self.predicate(m)]

    def members(self, universe: Sequence[ModuleRep]) -> list[ModuleRep]:
        return [m for m in universe if self.predicate(m)]


def family_all() -> ModuleFamily:
    return ModuleFamily("all", {"kind": "all"}, lambda m: True)


def family_zero() -> ModuleFamily:
    return ModuleFamily("zero", {"kind": "zero"}, lambda m: m.dim == 0)


def family_explicit(members: Sequence[ModuleRep]) -> ModuleFamily:
    reps = list(members)

    def pred(m: ModuleRep) -> bool:
        return any(m.dim == r.dim and is_isomorphic(m, r).isomorphic for r in reps)

    return ModuleFamily("explicit", {"kind": "explicit", "modules": [r.label for r in reps]}, pred)


def family_gen(t: ModuleRep) -> ModuleFamily:
    return ModuleFamily(f"Gen({t.label})", {"kind": "gen", "module": t.label}, lambda m: gen_member(t, m))


def family_d_sigma(pres: Presentation, label: str = "") -> ModuleFamily:
    spec = {"kind": "d_sigma", "target": pres.target.label}
    return ModuleFamily(label or "D_sigma", spec, lambda m: d_sigma_member(pres, m))


def perp_predicate(generators: Sequence[ModuleRep], side: str) -> Callable[[ModuleRep], bool]:
    """Membership in the right (no nonzero map from a generator) or left (none to one)
    perpendicular class of ``generators``, for families, certificates and replay."""
    if side == "right":
        return lambda m: all(hom_dim(g, m) == 0 for g in generators)
    return lambda m: all(hom_dim(m, g) == 0 for g in generators)


def perp_right(f: ModuleFamily, universe: Sequence[ModuleRep]) -> ModuleFamily:
    """Modules with no nonzero map from a member of ``f`` in ``universe``."""
    spec = {"kind": "perp_right", "of": f.spec}
    return ModuleFamily(f"({f.label})^perp", spec, perp_predicate(f.members(universe), "right"))


def perp_left(f: ModuleFamily, universe: Sequence[ModuleRep]) -> ModuleFamily:
    """Modules with no nonzero map to a member of ``f`` in ``universe``."""
    spec = {"kind": "perp_left", "of": f.spec}
    return ModuleFamily(f"perp^({f.label})", spec, perp_predicate(f.members(universe), "left"))


def perp_right_modules(mods: Sequence[ModuleRep], label: str = "") -> ModuleFamily:
    gens = list(mods)
    spec = {"kind": "perp_right_modules", "modules": [m.label for m in gens]}
    return ModuleFamily(label or "perp-right", spec, perp_predicate(gens, "right"))


def comma_family(kind: str, cfam: ModuleFamily, dfam: ModuleFamily, t: TriangularAlgebra) -> ModuleFamily:
    """The U/B/J family as an intrinsic predicate on left T-modules."""

    def pred(m: ModuleRep) -> bool:
        return family_membership(from_T_module(m, t).comma, kind, cfam, dfam)

    spec = {"kind": "comma", "family": kind, "c": cfam.spec, "d": dfam.spec}
    return ModuleFamily(f"{kind}[{cfam.label};{dfam.label}]", spec, pred)


# -- submodule enumeration -----------------------------------------------------


def all_subspace_bases(p: int, n: int) -> list[np.ndarray]:
    """Every subspace of F_p^n exactly once, as the columns of its canonical RREF basis:
    per pivot pattern, its unit rows plus each combination of units at its free entries."""
    out = [np.zeros((n, 0), dtype=np.int64)]
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [i * n + j for i in range(k) for j in range(pivots[i] + 1, n) if j not in pivots]
            base = np.eye(n, dtype=np.int64)[list(pivots)]
            for chunk in combination_chunks(p, np.eye(k * n, dtype=np.int64)[free].reshape(-1, k, n)):
                out.extend((base + chunk).transpose(0, 2, 1))
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
    in_x_perp = perp_predicate([universe[i] for i in xi], "right")
    in_perp_y = perp_predicate([universe[i] for i in yi], "left")
    x_set, y_set = set(xi), set(yi)
    for k, m in enumerate(universe):
        in_pr = in_x_perp(m)
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
        in_pl = in_perp_y(m)
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


def torsion_sequence(
    x: ModuleFamily, y: ModuleFamily, x_members: Sequence[ModuleRep], m: ModuleRep
) -> tuple[int, dict]:
    """dim t(M), and whether t(M) lies in x and M/t(M) in y, for the sequence
    0 -> t(M) -> M -> M/t(M) -> 0 with t(M) the trace of ``x_members`` in M.

    Returns (dim t(M), {"trace_in_x": ..., "quotient_in_y": ...}): the facts
    of a ``torsion-sequence`` certificate, which its replay recomputes here.
    """
    span = trace_span(x_members, m)
    trace_in_x = x.contains(submodule(m, span, label="trace"))
    return span.shape[1], {"trace_in_x": trace_in_x, "quotient_in_y": y.contains(quotient_module(m, span))}


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
        trace_dim, facts = torsion_sequence(x, y, x_members, m)
        if not all(facts.values()):
            certs.append({"clause": "torsion-sequence", "module": k, "label": m.label, "trace_dim": trace_dim, **facts})
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
        bases = all_submodule_bases(m)
        if not any(x.contains(submodule(m, w)) and y.contains(quotient_module(m, w)) for w in bases):
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
# this Hom dimension, and forms at most modules.EXT_CAP extension classes per
# pair of members; past either the verdict is flagged partial.
MAP_ENUM_CAP = 12


def _first_failures(f: ModuleFamily, j: int, n: ModuleRep, batch: list, image_in_f: dict, failed: dict) -> None:
    """Record in ``failed``, by source index, the ``image-closure`` certificate of
    the first map whose image is not in ``f``, for each source of ``batch`` that
    has none yet.  ``batch`` holds (source index, chunk of its maps into ``n``)
    pairs in enumeration order, ``n`` being the universe member of index ``j``.
    The transposed maps are reduced by one :func:`batched_rref`, zero-padded to
    one height, which changes neither their reduced rows nor their rank;
    ``image_in_f`` memoizes the family's answer per (target index, canonical
    basis of the image)."""
    stack = np.zeros((sum(len(c) for _, c in batch), max(c.shape[2] for _, c in batch), n.dim), dtype=np.int64)
    start = 0
    for _, chunk in batch:
        stack[start : start + len(chunk), : chunk.shape[2]] = chunk.transpose(0, 2, 1)
        start += len(chunk)
    reduced, ranks = batched_rref(n.p, stack)
    start = 0
    for i, chunk in batch:
        if i not in failed:
            for k, r in enumerate(ranks[start : start + len(chunk)].tolist()):
                rows = reduced[start + k, :r]  # the transposed canonical basis of the image
                key = (j, rows.tobytes())
                ok = image_in_f.get(key)
                if ok is None:
                    ok = image_in_f[key] = f.contains(submodule(n, rows.T))
                if not ok:
                    failed[i] = {"clause": "image-closure", "source": i, "target": j,
                                 "map": chunk[k].tolist(), "image_dim": r}
                    break
        start += len(chunk)


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
    tested.  The bases come from one :func:`batched_rref` per target of the
    transposed maps of every member into it, at most ``ENUM_CHUNK`` maps
    per batch (:func:`_first_failures`), not from one ``rref`` per map.
    Maps are still visited in enumeration order and each (source, target)
    pair stops at its first map with a failing image, so an
    ``image-closure`` certificate names the same map as testing every
    image would, and the family predicate is called on a subset of the
    images it would otherwise see.  Certificates come in (source, target)
    order.
    """
    partial = False
    members = [(i, universe[i]) for i in f.member_indices(universe)]
    image_in_f: dict[tuple[int, bytes], bool] = {}
    image_certs = {}
    for j, n in enumerate(universe):
        batch: list[tuple[int, np.ndarray]] = []
        failed: dict[int, dict] = {}
        for i, m in members:
            h = hom_dim(m, n)
            if h > MAP_ENUM_CAP:
                partial = True
                continue
            basis = hom_space(m, n) if h else np.zeros((0, n.dim, m.dim), dtype=np.int64)
            for chunk in combination_chunks(m.p, basis, ENUM_CHUNK):
                if sum(len(c) for _, c in batch) + len(chunk) > ENUM_CHUNK:
                    _first_failures(f, j, n, batch, image_in_f, failed)
                    batch = []
                if i in failed:
                    break  # the pair's first failing map ends its enumeration
                batch.append((i, chunk))
        if batch:
            _first_failures(f, j, n, batch, image_in_f, failed)
        image_certs.update(((i, j), cert) for i, cert in failed.items())
    certs = [image_certs[key] for key in sorted(image_certs)]
    for i, m in members:
        for j, n in members:
            if max_dim is not None and m.dim + n.dim > max_dim:
                continue
            if not f.contains(direct_sum([m, n])):
                certs.append({"clause": "sum-closure", "pair": [i, j]})
    for i, m in members:
        for j, n in members:
            if max_dim is not None and m.dim + n.dim > max_dim:
                continue
            res = extension_middle_terms(m, n)
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

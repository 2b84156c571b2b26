"""Projective presentations, the class they cut out, and silting decisions.

A presentation is an exact pair P1 --sigma--> P0 --witness--> M -> 0.
Projectivity of P1, P0 is declared by the caller (free presentations use
powers of the regular module, which are projective by construction);
exactness is verified, projectivity is not derived.

For a presentation sigma, a module X belongs to the associated class
when composition with sigma maps Hom(P0, X) onto Hom(P1, X).  Silting
and partial silting are decided against a declared finite universe of
modules, and the verdicts carry the failing witnesses plus a hash of the
universe so certificates are reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .linalg import (
    FpMatrix,
    column_space_basis,
    combinations,
    hstack,
    kernel_basis,
    kron,
    rank,
    solve,
    vstack,
)
from .modules import (
    AlgebraMismatch,
    IsoSearchCapExceeded,
    ModuleMap,
    ModuleRep,
    direct_sum,
    gen_member,
    hom_coords,
    hom_dim,
    hom_space,
    regular_module,
    zero_module,
)
from .memo import memo

# sha256 from the interpreter's builtin module, as Lib/random.py takes sha512:
# hashlib would load OpenSSL's libcrypto (about 3.5 MB resident) for one digest.
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256


class Presentation(NamedTuple):
    sigma: ModuleMap  # P1 -> P0, both flagged projective
    target: ModuleRep  # M
    witness: ModuleMap  # epi P0 -> M with kernel = im(sigma)

    @property
    def p(self) -> int:
        return self.target.p


def validate_presentation(s: Presentation) -> list[dict]:
    """Exactness violations of P1 -> P0 -> M -> 0."""
    violations = []
    if s.sigma.target != s.witness.source:
        violations.append({"kind": "chain-mismatch"})
        return violations
    if s.witness.target != s.target:
        violations.append({"kind": "target-mismatch"})
    if not s.sigma.is_valid():
        violations.append({"kind": "sigma-not-a-map"})
    if not s.witness.is_valid():
        violations.append({"kind": "witness-not-a-map"})
    if not (s.witness.matrix @ s.sigma.matrix).is_zero():
        violations.append({"kind": "composite-nonzero"})
    if rank(s.witness.matrix) != s.target.dim:
        violations.append({"kind": "witness-not-epi"})
    if rank(s.sigma.matrix) != s.sigma.target.dim - s.target.dim:
        violations.append({"kind": "not-exact-at-P0"})
    return violations


def trivial_presentation(m: ModuleRep) -> Presentation:
    """Presentation with P1 = 0 and P0 = M itself (for projective targets)."""
    zero = zero_module(m.algebra, m.side)
    return Presentation(
        sigma=ModuleMap(zero, m, FpMatrix.zeros(m.p, m.dim, 0)),
        target=m,
        witness=ModuleMap(m, m, FpMatrix.identity(m.p, m.dim)),
    )


def _minimal_generating_subset(m: ModuleRep, cols: FpMatrix) -> list[int]:
    """Greedy minimal subset of the given columns generating their span
    as a submodule (closure under the action)."""
    chosen: list[int] = []
    target_rank = rank(_module_closure(m, cols))
    current = FpMatrix.zeros(m.p, m.dim, 0)
    current_rank = 0
    for j in range(cols.cols):
        if current_rank == target_rank:
            break
        closed = _module_closure(m, hstack([current, cols.column_vector(j)]))
        if rank(closed) > current_rank:
            chosen.append(j)
            current = closed
            current_rank = rank(closed)
    return chosen


def _module_closure(m: ModuleRep, cols: FpMatrix) -> FpMatrix:
    """Basis of the submodule generated by the given columns."""
    if cols.cols == 0:
        return cols
    span = cols
    while True:
        moved = [span] + [m.action[i] @ span for i in range(m.algebra.dim)]
        new_span = column_space_basis(hstack(moved))
        if rank(new_span) == rank(span):
            return new_span
        span = new_span


def free_presentation(m: ModuleRep, minimize: bool = False) -> Presentation:
    """Presentation by powers of the regular module.

    P0 has one regular summand per chosen generator of M (all basis
    vectors by default), P1 one per chosen generator of ker(P0 -> M).
    With ``minimize`` a greedy pass picks minimal generating subsets;
    the result is not radical-minimal, just smaller.
    """
    alg = m.algebra
    p = m.p
    reg = regular_module(alg, m.side)
    gens = FpMatrix.identity(p, m.dim)
    if minimize and m.dim:
        idx = _minimal_generating_subset(m, gens)
        gens = gens.take_columns(idx)
    g = gens.cols
    p0 = direct_sum([reg] * g, algebra=alg, side=m.side).module
    # P0 -> M: the j-th regular summand sends its unit to the j-th generator
    cols = []
    for j in range(g):
        target_vec = gens.column_vector(j)
        for i in range(alg.dim):
            cols.append((m.act(_basis_vec(alg.dim, i)) @ target_vec).array()[:, 0])
    wit_mat = (
        FpMatrix(p, np.stack(cols, axis=1)) if cols else FpMatrix.zeros(p, m.dim, 0)
    )
    witness = ModuleMap(p0, m, wit_mat)
    ker = kernel_basis(wit_mat)
    if minimize and ker.cols:
        idx = _minimal_generating_subset(p0, ker)
        ker = ker.take_columns(idx)
    h = ker.cols
    p1 = direct_sum([reg] * h, algebra=alg, side=m.side).module
    cols = []
    for j in range(h):
        kv = ker.column_vector(j)
        for i in range(alg.dim):
            cols.append((p0.act(_basis_vec(alg.dim, i)) @ kv).array()[:, 0])
    sig_mat = (
        FpMatrix(p, np.stack(cols, axis=1)) if cols else FpMatrix.zeros(p, p0.dim, 0)
    )
    pres = Presentation(sigma=ModuleMap(p1, p0, sig_mat), target=m, witness=witness)
    bad = validate_presentation(pres)
    assert not bad, f"free presentation failed its own exactness check: {bad[0]}"
    return pres


def _basis_vec(dim: int, i: int) -> np.ndarray:
    e = np.zeros(dim, dtype=np.int64)
    e[i] = 1
    return e


def _hom_onto(f: ModuleMap, x: ModuleRep) -> bool:
    """True when Hom(f, x): Hom(f.target, x) -> Hom(f.source, x), h -> h . f, is onto.

    Decided by the rank of its matrix in the two Hom bases.
    """
    if not hom_dim(f.source, x):
        return True
    h_target = hom_space(f.target, x)
    h_source = hom_space(f.source, x)
    mat = hom_coords(x.p, h_source, [b.matrix @ f.matrix for b in h_target])
    return rank(mat) == len(h_source)


@memo("d_sigma_member")
def d_sigma_member(s: Presentation, x: ModuleRep) -> bool:
    """True when Hom(sigma, x) is surjective.  Memoized."""
    if x.algebra != s.target.algebra or x.side != s.target.side:
        raise AlgebraMismatch("module is not over the presentation's algebra")
    return _hom_onto(s.sigma, x)


def d_sigma_member_oracle(s: Presentation, x: ModuleRep, cap: int = 16) -> bool:
    """Enumerative check: every element of Hom(P1, x) lifts through sigma.

    Solves the lifting system afresh for each of the p^h maps instead of
    comparing ranks.
    """
    h1 = hom_space(s.sigma.source, x)
    if len(h1) > cap:
        raise IsoSearchCapExceeded(f"hom dimension {len(h1)} exceeds cap {cap}")
    p = x.p
    p0, p1 = s.sigma.target, s.sigma.source
    targets = combinations(p, [b.matrix for b in h1], x.dim, p1.dim)
    if x.dim == 0 or p0.dim == 0:
        return all(t.is_zero() for t in targets)
    # unknown h0 with h0 intertwining and h0 . sigma = target_map
    ix = FpMatrix.identity(p, x.dim)
    ip0 = FpMatrix.identity(p, p0.dim)
    blocks = [
        kron(x.action[i], ip0) - kron(ix, p0.action[i].transpose()) for i in range(x.algebra.dim)
    ]
    blocks.append(kron(ix, s.sigma.matrix.transpose()))
    system = vstack(blocks)
    zeros = np.zeros(x.algebra.dim * x.dim * p0.dim, dtype=np.int64)
    for target_map in targets:
        rhs = FpMatrix(p, np.concatenate([zeros, target_map.array().reshape(-1)]).reshape(-1, 1))
        if solve(system, rhs) is None:
            return False
    return True


def universe_hash(universe: Sequence[ModuleRep]) -> str:
    return _universe_hash(tuple(universe))


@memo("universe_hash")
def _universe_hash(universe: tuple[ModuleRep, ...]) -> str:
    """Memoized on the tuple of modules: the digest reads only dimensions,
    sides and actions, which the modules' content keys fix."""
    payload = [
        {
            "dim": m.dim,
            "side": m.side,
            "action": [a.to_lists() for a in m.action],
        }
        for m in universe
    ]
    digest = sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:16]


@dataclass
class SiltingVerdict:
    holds: bool
    disagreements: list[dict] = field(default_factory=list)
    universe_hash: str = ""


def is_silting(m: ModuleRep, s: Presentation, universe: Sequence[ModuleRep]) -> SiltingVerdict:
    """Silting with respect to sigma: the sigma-class equals Gen(m) on the universe.

    The verdict lists every universe member where the two predicates
    disagree, with the direction of the disagreement.
    """
    if s.target != m:
        raise ValueError("presentation does not present the module")
    disagreements = []
    for idx, x in enumerate(universe):
        in_d = d_sigma_member(s, x)
        in_gen = gen_member(m, x)
        if in_d != in_gen:
            disagreements.append(
                {
                    "module": idx,
                    "label": x.label,
                    "in_d_sigma": in_d,
                    "in_gen": in_gen,
                }
            )
    return SiltingVerdict(not disagreements, disagreements, universe_hash(universe))


@dataclass
class PartialSiltingVerdict:
    holds: bool
    failures: list[dict] = field(default_factory=list)
    universe_hash: str = ""


def is_partial_silting(
    m: ModuleRep,
    s: Presentation,
    universe: Sequence[ModuleRep],
    max_sum_dim: Optional[int] = None,
) -> PartialSiltingVerdict:
    """Partial silting: m is in its own sigma-class, and the class meets
    the universe in a set closed under pairwise direct sums.

    Closure under images and extensions is not checked here: the class
    of a map of projectives always has it, so only sum-closure can fail.
    """
    if s.target != m:
        raise ValueError("presentation does not present the module")
    failures = []
    if not d_sigma_member(s, m):
        failures.append({"clause": "self-membership", "label": m.label})
    members = [(i, x) for i, x in enumerate(universe) if d_sigma_member(s, x)]
    # x + y = y + x and the class is closed under isomorphism: (j, i) reuses (i, j)
    in_class: dict[tuple[int, int], bool] = {}
    for i, x in members:
        for j, y in members:
            if max_sum_dim is not None and x.dim + y.dim > max_sum_dim:
                continue
            ok = in_class.get((j, i))
            if ok is None:
                ok = in_class[i, j] = d_sigma_member(s, _pair_sum(x, y))
            if not ok:
                failures.append({"clause": "sum-closure", "pair": [i, j]})
    return PartialSiltingVerdict(not failures, failures, universe_hash(universe))


@memo("pair_sum")
def _pair_sum(x: ModuleRep, y: ModuleRep) -> ModuleRep:
    """The module x + y; memoized, since every partial-silting decision over
    a universe tests the same pair sums."""
    return direct_sum([x, y]).module


def is_left_approximation(f: ModuleMap, family, universe: Sequence[ModuleRep]) -> bool:
    """True when every map from the source into a family member of the
    universe factors through f."""
    return all(_hom_onto(f, x) for x in universe if family.contains(x))

"""Projective presentations, the class they cut out, and silting decisions.

A presentation is an exact pair P1 --sigma--> P0 --witness--> M -> 0.
Projectivity of P1, P0 is declared by the caller; exactness is verified,
projectivity is not derived.

For a presentation sigma, a module X belongs to the associated class
when composition with sigma maps Hom(P0, X) onto Hom(P1, X).  Silting
and partial silting are decided against a declared finite universe of
modules, and the verdicts carry the failing witnesses plus a hash of the
universe so certificates are reproducible.  :class:`Verdict` is the record
every decider of the package returns, these two and the torsion deciders included.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .linalg import combination_chunks, rank, solve
from .modules import (
    ISO_CAP,
    AlgebraMismatch,
    IsoSearchCapExceeded,
    ModuleMap,
    ModuleRep,
    gen_member,
    hom_dim,
    hom_space,
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
    """P1 --sigma--> P0 --witness--> M -> 0; the witness fixes the presented module M."""

    sigma: ModuleMap  # P1 -> P0, both flagged projective
    witness: ModuleMap  # epi P0 -> M with kernel = im(sigma)

    @property
    def target(self) -> ModuleRep:
        """M, the module presented."""
        return self.witness.target

    @property
    def p(self) -> int:
        return self.target.p


def validate_presentation(s: Presentation) -> list[dict]:
    """Exactness violations of P1 -> P0 -> M -> 0."""
    violations = []
    if s.sigma.target != s.witness.source:
        violations.append({"kind": "chain-mismatch"})
        return violations
    if not s.sigma.is_valid():
        violations.append({"kind": "sigma-not-a-map"})
    if not s.witness.is_valid():
        violations.append({"kind": "witness-not-a-map"})
    if (s.witness.matrix @ s.sigma.matrix % s.p).any():
        violations.append({"kind": "composite-nonzero"})
    if rank(s.p, s.witness.matrix) != s.target.dim:
        violations.append({"kind": "witness-not-epi"})
    if rank(s.p, s.sigma.matrix) != s.sigma.target.dim - s.target.dim:
        violations.append({"kind": "not-exact-at-P0"})
    return violations


def trivial_presentation(m: ModuleRep) -> Presentation:
    """Presentation with P1 = 0 and P0 = M itself (for projective targets)."""
    zero = zero_module(m.algebra, m.side)
    return Presentation(
        sigma=ModuleMap(zero, m, np.zeros((m.dim, 0), dtype=np.int64)),
        witness=ModuleMap(m, m, np.eye(m.dim, dtype=np.int64)),
    )


def _hom_onto(f: ModuleMap, x: ModuleRep) -> bool:
    """True when Hom(f, x): Hom(f.target, x) -> Hom(f.source, x), h -> h . f, is onto.

    The composites of a basis of Hom(f.target, x) with f span the image, which
    lies in Hom(f.source, x), so it is onto exactly when their rank is
    dim Hom(f.source, x); no basis of Hom(f.source, x) is built.
    """
    h_source = hom_dim(f.source, x)
    if not h_source:
        return True
    composites = hom_space(f.target, x) @ f.matrix % x.p
    return rank(x.p, composites.reshape(len(composites), x.dim * f.source.dim)) == h_source


@memo("d_sigma_member")
def d_sigma_member(s: Presentation, x: ModuleRep) -> bool:
    """True when Hom(sigma, x) is surjective.  Memoized."""
    if x.algebra != s.target.algebra or x.side != s.target.side:
        raise AlgebraMismatch("module is not over the presentation's algebra")
    return _hom_onto(s.sigma, x)


def d_sigma_member_oracle(s: Presentation, x: ModuleRep) -> bool:
    """Enumerative check: every element of Hom(P1, x) lifts through sigma.

    Solves the lifting system afresh for each of the p^h maps instead of
    comparing ranks.
    """
    h1 = hom_space(s.sigma.source, x)
    if len(h1) > ISO_CAP:
        raise IsoSearchCapExceeded(f"hom dimension {len(h1)} exceeds cap {ISO_CAP}")
    p = x.p
    p0 = s.sigma.target
    targets = (t for chunk in combination_chunks(p, h1) for t in chunk)
    if x.dim == 0 or p0.dim == 0:
        return all(not t.any() for t in targets)
    # unknown h0 with h0 intertwining and h0 . sigma = target_map
    ix = np.eye(x.dim, dtype=np.int64)
    ip0 = np.eye(p0.dim, dtype=np.int64)
    blocks = [
        np.kron(x.action[i], ip0) - np.kron(ix, p0.action[i].T) for i in range(x.algebra.dim)
    ]
    blocks.append(np.kron(ix, s.sigma.matrix.T))
    system = np.vstack(blocks) % p
    zeros = np.zeros(x.algebra.dim * x.dim * p0.dim, dtype=np.int64)
    for target_map in targets:
        rhs = np.concatenate([zeros, target_map.reshape(-1)]).reshape(-1, 1)
        if solve(p, system, rhs) is None:
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
            "action": m.action.tolist(),
        }
        for m in universe
    ]
    digest = sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return digest[:16]


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


def is_silting(s: Presentation, universe: Sequence[ModuleRep]) -> Verdict:
    """Silting of the module M that ``s`` presents, with respect to sigma: the
    sigma-class equals Gen(M) on the universe.

    The verdict has a ``membership-mismatch`` certificate for every universe
    member where the two predicates disagree, with the direction of the
    disagreement.
    """
    m = s.target
    certs = []
    for idx, x in enumerate(universe):
        in_d = d_sigma_member(s, x)
        in_gen = gen_member(m, x)
        if in_d != in_gen:
            certs.append(
                {"clause": "membership-mismatch", "module": idx, "label": x.label, "in_d_sigma": in_d, "in_gen": in_gen}
            )
    result = "holds" if not certs else "fails"
    return Verdict(f"silting({m.label})", result, certs, universe_hash=universe_hash(universe))


def is_partial_silting(s: Presentation, universe: Sequence[ModuleRep]) -> Verdict:
    """Partial silting of the module M that ``s`` presents: M is in its own sigma-class.

    No closure of the class is checked: Hom(sigma, X + Y) is Hom(sigma, X)
    + Hom(sigma, Y), so the class is closed under direct sums, and the
    class of a map of projectives is also closed under epimorphic images
    and extensions (Angeleri Huegel, Marks and Vitoria, "Silting modules",
    IMRN 2016).  The universe only fixes the verdict's hash.
    """
    m = s.target
    certs = [] if d_sigma_member(s, m) else [{"clause": "self-membership", "label": m.label}]
    result = "holds" if not certs else "fails"
    return Verdict(f"partial-silting({m.label})", result, certs, universe_hash=universe_hash(universe))

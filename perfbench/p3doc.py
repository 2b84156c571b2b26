"""Seeded generator and closed-form oracles for the ``p3-doc`` workload.

The document is over F_3 with A = F_3[x]/(x^3), basis {1, x, x^2}.  Every
A-module is a sum of Jordan blocks J_a (a = 1, 2, 3) of the nilpotent
action of x, so a module is named by its Jordan type, a partition with
parts <= 3.  The universe holds one module per Jordan type of total
dimension 1..D; each is conjugated by a seeded random invertible matrix,
so two seeds give different matrices but the same isomorphism classes.

The oracles below use only the Jordan types, never ``commacat``:

* dim Hom(+J_a, +J_b) = sum_i sum_j min(a_i, b_j);
* M lies in Gen(T) iff the largest block of M is at most that of T
  (J_a is a quotient of J_k exactly when a <= k);
* the torsion-pair verdict follows the three clauses ``is_torsion_pair``
  decides, with the trace of the x-members in M equal to ker(x^K) on M,
  K the largest block among those members.
"""

from __future__ import annotations

import random
from typing import Callable

P = 3
ALGEBRA_DIM = 3  # basis 1, x, x^2
DEFAULT_MAX_DIM = 8
GEN_MEMBER_GENERATOR = (2,)

Partition = tuple[int, ...]


def partitions(n: int, max_part: int = 3) -> list[Partition]:
    """Partitions of n with parts <= max_part, parts in decreasing order."""
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return out


def universe_types(max_dim: int) -> list[Partition]:
    return [lam for n in range(1, max_dim + 1) for lam in partitions(n)]


def label(parts: Partition) -> str:
    return "J" + "".join(str(a) for a in parts)


# -- modular matrix helpers (plain Python ints) --------------------------------


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % P for col in cols] for row in a]


def _inverse(a: list[list[int]]) -> list[list[int]] | None:
    """Inverse mod P by Gauss-Jordan elimination, or None if singular."""
    n = len(a)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] % P), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        inv = pow(aug[c][c], -1, P)
        aug[c] = [(x * inv) % P for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % P for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _random_invertible(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    while True:
        g = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
        g_inv = _inverse(g)
        if g_inv is not None:
            return g, g_inv


def _nilpotent(parts: Partition) -> list[list[int]]:
    """Action of x: one Jordan block per part, x e_i = e_{i+1} within a block."""
    n = sum(parts)
    nil = [[0] * n for _ in range(n)]
    start = 0
    for a in parts:
        for i in range(start, start + a - 1):
            nil[i + 1][i] = 1
        start += a
    return nil


# -- the document ---------------------------------------------------------------


def _algebra_mul() -> list:
    mul = [[[0] * ALGEBRA_DIM for _ in range(ALGEBRA_DIM)] for _ in range(ALGEBRA_DIM)]
    for i in range(ALGEBRA_DIM):
        for j in range(ALGEBRA_DIM - i):
            mul[i][j][i + j] = 1
    return mul


def _module_record(parts: Partition, rng: random.Random) -> dict:
    n = sum(parts)
    g, g_inv = _random_invertible(rng, n)
    x = _matmul(_matmul(g, _nilpotent(parts)), g_inv)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return {"algebra": "A", "side": "left", "dim": n, "action": [identity, x, _matmul(x, x)]}


def generate(seed: int, max_dim: int = DEFAULT_MAX_DIM) -> dict:
    """The p3-doc document for ``seed``: same structure for every seed."""
    rng = random.Random(seed)
    types = universe_types(max_dim)
    names = [label(t) for t in types]
    modules = {label(t): _module_record(t, rng) for t in types}
    gen = label(GEN_MEMBER_GENERATOR)
    return {
        "field": {"p": P},
        "algebras": {"A": {"dim": ALGEBRA_DIM, "mul": _algebra_mul(), "unit": [1, 0, 0]}},
        "modules": modules,
        "universes": {"U": names},
        "families": {
            "genS": {"kind": "gen", "universe": "U", "module": "J1"},
            "perpS": {"kind": "perp_right_modules", "universe": "U", "modules": ["J1"]},
            "genP": {"kind": "gen", "universe": "U", "module": "J3"},
            "perpP": {"kind": "perp_right_modules", "universe": "U", "modules": ["J3"]},
            "all": {"kind": "all", "universe": "U"},
            "zero": {"kind": "zero", "universe": "U"},
        },
        "tasks": [
            {"name": "hom-table", "kind": "hom-table", "universe": "U"},
            {"name": "tp-genS", "kind": "is-torsion-pair", "x": "genS", "y": "perpS", "universe": "U"},
            {"name": "tp-genP", "kind": "is-torsion-pair", "x": "genP", "y": "perpP", "universe": "U"},
            {"name": "tp-all-zero", "kind": "is-torsion-pair", "x": "all", "y": "zero", "universe": "U"},
        ]
        + [
            {"name": f"gen-{gen}-{name}", "kind": "gen-member", "generator": gen, "module": name}
            for name in names
        ],
    }


# -- closed-form oracles ------------------------------------------------------------


def hom_dim(a: Partition, b: Partition) -> int:
    return sum(min(x, y) for x in a for y in b)


def gen_member(t: Partition, m: Partition) -> bool:
    return max(m, default=0) <= max(t, default=0)


def _family(spec: dict) -> Callable[[Partition], bool]:
    kind = spec["kind"]
    if kind == "all":
        return lambda m: True
    if kind == "zero":
        return lambda m: not m
    if kind == "gen":
        t = _parts(spec["module"])
        return lambda m: gen_member(t, m)
    if kind == "perp_right_modules":
        gens = [_parts(name) for name in spec["modules"]]
        return lambda m: all(hom_dim(g, m) == 0 for g in gens)
    raise ValueError(f"no closed form for family kind {kind!r}")


def _parts(name: str) -> Partition:
    return tuple(int(c) for c in name[1:])


def torsion_pair_holds(x_spec: dict, y_spec: dict, types: list[Partition]) -> bool:
    in_x, in_y = _family(x_spec), _family(y_spec)
    xs = [m for m in types if in_x(m)]
    ys = [m for m in types if in_y(m)]
    if any(hom_dim(a, b) for a in xs for b in ys):
        return False
    k = max((max(a) for a in xs), default=0)
    for m in types:
        trace = tuple(min(a, k) for a in m if min(a, k))
        quotient = tuple(a - k for a in m if a > k)
        if not (in_x(trace) and in_y(quotient)):
            return False
        if all(hom_dim(a, m) == 0 for a in xs) != in_y(m):
            return False
        if all(hom_dim(m, b) == 0 for b in ys) != in_x(m):
            return False
    return True


def report_errors(doc: dict, report: dict) -> list[str]:
    """Every disagreement between a ``commacat run`` report and the oracles."""
    types = [_parts(name) for name in doc["universes"]["U"]]
    families = doc["families"]
    errors = []
    by_name = {t["name"]: t for t in report.get("tasks", [])}
    for task in doc["tasks"]:
        got = by_name.get(task["name"])
        if got is None:
            errors.append(f"task {task['name']} missing from report")
            continue
        if task["kind"] == "hom-table":
            want = [[hom_dim(a, b) for b in types] for a in types]
            if got.get("labels") != doc["universes"]["U"] or got.get("table") != want:
                errors.append("hom-table differs from sum of min(a_i, b_j)")
        elif task["kind"] == "is-torsion-pair":
            holds = torsion_pair_holds(families[task["x"]], families[task["y"]], types)
            results = [v.get("result") for v in got.get("verdicts", [])]
            if results != ["holds" if holds else "fails"]:
                errors.append(f"{task['name']}: got {results}, closed form says holds={holds}")
        elif task["kind"] == "gen-member":
            want = gen_member(_parts(task["generator"]), _parts(task["module"]))
            if got.get("member") is not want:
                errors.append(f"{task['name']}: got {got.get('member')}, closed form says {want}")
    return errors

"""Built-in corpora.

Two fixtures, defined in code so they cannot drift:

* ``a2``: R = S = U = F_2.  The triangular algebra is the path algebra
  of the two-vertex quiver; its module universe is {0, S_R, S_S, P, N}
  with P = (k, k, id) the projective cover of S_R and N = S_R + S_S.

* ``dual-numbers``: R = F_2[x]/(x^2), S = F_2, U = F_2 with x acting as
  zero on the right.  The comma universe is generated from the R-modules
  {0, k, R, k^2} and S-modules {0, k, k^2}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    Bimodule,
    TriangularAlgebra,
    dual_numbers_algebra,
    field_algebra,
    scalar_bimodule,
    triangular_algebra,
)
from .comma import (
    MAX_TOTAL_DIM,
    CommaObject,
    RightTModule,
    comma_from_components,
    comma_universe,
    to_T_module,
)
from .modules import (
    LEFT,
    RIGHT,
    ModuleMap,
    ModuleRep,
    direct_sum,
    regular_module,
    zero_module,
)
from .presentations import Presentation, trivial_presentation


@dataclass
class Fixture:
    """A named corpus over T = ``t``, whose bimodule ``t.u`` fixes R, S and p; ``t_universe``
    is the comma universe as T-modules, built from it under the same names."""

    name: str
    max_dim: int  # the comma universe's bound (a2: MAX_TOTAL_DIM): torsion-class sums and extensions stay within it
    t: TriangularAlgebra
    r_universe: dict[str, ModuleRep]
    s_universe: dict[str, ModuleRep]
    comma_universe: dict[str, CommaObject]
    t_universe: dict[str, ModuleRep] = field(init=False)
    right_t_universe: dict[str, RightTModule] = field(default_factory=dict)
    presentations: dict[str, Presentation] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t_universe = {
            name: to_T_module(c, self.t).relabel(name)
            for name, c in self.comma_universe.items()
        }

    def t_universe_list(self) -> list[ModuleRep]:
        return list(self.t_universe.values())

    def r_universe_list(self) -> list[ModuleRep]:
        return list(self.r_universe.values())

    def s_universe_list(self) -> list[ModuleRep]:
        return list(self.s_universe.values())


def a2_fixture() -> Fixture:
    p = 2
    r = field_algebra(p, "R")
    s = field_algebra(p, "S")
    u = scalar_bimodule(s, r, "U")
    t = triangular_algebra(u, label="T(A2)")

    rk = regular_module(r, LEFT).relabel("k")
    sk = regular_module(s, LEFT).relabel("k")
    r_universe = {"0": zero_module(r, LEFT), "k": rk}
    s_universe = {"0": zero_module(s, LEFT), "k": sk}

    zero = comma_from_components(u, label="0")
    s_r = comma_from_components(u, a=rk, label="S_R")
    s_s = comma_from_components(u, b=sk, label="S_S")
    proj = CommaObject(u, rk, sk, [[1]], label="P")
    split = CommaObject(u, rk, sk, [[0]], label="N")
    comma = {"0": zero, "S_R": s_r, "S_S": s_s, "P": proj, "N": split}

    rkr = regular_module(r, RIGHT).relabel("k")
    skr = regular_module(s, RIGHT).relabel("k")
    zr = zero_module(r, RIGHT)
    zs = zero_module(s, RIGHT)
    right = {
        "0": RightTModule(u, zr, zs, [], label="0"),
        "XR": RightTModule(u, rkr, zs, [[]], label="XR"),
        "YS": RightTModule(u, zr, skr, [], label="YS"),
        "ET": RightTModule(u, rkr, skr, [[1]], label="ET"),
        "NT": RightTModule(u, rkr, skr, [[0]], label="NT"),
    }

    fixture = Fixture(
        name="a2",
        max_dim=MAX_TOTAL_DIM,
        t=t,
        r_universe=r_universe,
        s_universe=s_universe,
        comma_universe=comma,
        right_t_universe=right,
    )

    t_univ = fixture.t_universe
    # sigma: S_S -> P, the inclusion of the socle; presents S_R
    sigma = ModuleMap(t_univ["S_S"], t_univ["P"], [[0], [1]])
    witness = ModuleMap(t_univ["P"], t_univ["S_R"], [[1, 0]])
    fixture.presentations = {
        "triv_k_R": trivial_presentation(rk),
        "triv_k_S": trivial_presentation(sk),
        "triv_0_R": trivial_presentation(r_universe["0"]),
        "triv_0_S": trivial_presentation(s_universe["0"]),
        "S_R_from_P": Presentation(sigma=sigma, witness=witness),
    }
    return fixture


def dual_numbers_fixture(max_total_dim: int) -> Fixture:
    p = 2
    r = dual_numbers_algebra(p, "R")
    s = field_algebra(p, "S")
    u = Bimodule(s, r, 1, [[[1]]], [[[1]], [[0]]], label="U")
    t = triangular_algebra(u, label="T(dual)")

    rr = regular_module(r, LEFT).relabel("R")
    rk = ModuleRep(r, LEFT, 1, [[[1]], [[0]]], label="k")
    rk2 = direct_sum([rk, rk]).relabel("k2")
    r_universe = {"0": zero_module(r, LEFT), "k": rk, "R": rr, "k2": rk2}

    sk = regular_module(s, LEFT).relabel("k")
    sk2 = direct_sum([sk, sk]).relabel("k2")
    s_universe = {"0": zero_module(s, LEFT), "k": sk, "k2": sk2}

    built = comma_universe(u, list(r_universe.values()), list(s_universe.values()), max_total_dim)
    comma = {}
    for idx, c in enumerate(built):
        name = f"c{idx:02d}[{c.A.label},{c.B.label}]"
        comma[name] = c.relabel(name)

    rkr = ModuleRep(r, RIGHT, 1, [[[1]], [[0]]], label="k")
    rrr = regular_module(r, RIGHT).relabel("R")
    skr = regular_module(s, RIGHT).relabel("k")
    zr = zero_module(r, RIGHT)
    zs = zero_module(s, RIGHT)
    right = {
        "0": RightTModule(u, zr, zs, [], label="0"),
        "Xk": RightTModule(u, rkr, zs, [[]], label="Xk"),
        "XR": RightTModule(u, rrr, zs, [[], []], label="XR"),
        "Yk": RightTModule(u, zr, skr, [], label="Yk"),
        "ET": RightTModule(u, rkr, skr, [[1]], label="ET"),
        "NT": RightTModule(u, rkr, skr, [[0]], label="NT"),
    }

    fixture = Fixture(
        name="dual-numbers",
        max_dim=max_total_dim,
        t=t,
        r_universe=r_universe,
        s_universe=s_universe,
        comma_universe=comma,
        right_t_universe=right,
    )

    # sigma = (.x): R -> R presents k; exact since ker(R -> k) = xR
    sigma = ModuleMap(rr, rr, [[0, 0], [1, 0]])
    witness = ModuleMap(rr, rk, [[1, 0]])
    fixture.presentations = {
        "k_from_x": Presentation(sigma=sigma, witness=witness),
        "triv_R": trivial_presentation(rr),
        "triv_k_S": trivial_presentation(sk),
        "triv_0_R": trivial_presentation(r_universe["0"]),
        "triv_0_S": trivial_presentation(s_universe["0"]),
    }
    return fixture


def fixture_names() -> list[str]:
    return ["a2", "dual-numbers"]


def load_fixture(name: str, max_total_dim: int = MAX_TOTAL_DIM) -> Fixture:
    """The fixture ``name``.  Only dual-numbers generates its comma universe, within
    ``max_total_dim``, and records that bound as its ``max_dim``; a2 lists its own
    universe and ignores it."""
    if name == "a2":
        return a2_fixture()
    if name == "dual-numbers":
        return dual_numbers_fixture(max_total_dim)
    raise KeyError(f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")

"""Identity, zero and composite module maps, which the tests build and the program does not."""

import numpy as np

from commacat.modules import AlgebraMismatch, ModuleMap, ModuleRep


def identity_map(m: ModuleRep) -> ModuleMap:
    return ModuleMap(m, m, np.eye(m.dim, dtype=np.int64))


def zero_map(m: ModuleRep, n: ModuleRep) -> ModuleMap:
    return ModuleMap(m, n, np.zeros((n.dim, m.dim), dtype=np.int64))


def compose(g: ModuleMap, f: ModuleMap) -> ModuleMap:
    if f.target != g.source:
        raise AlgebraMismatch("maps do not compose")
    return ModuleMap(f.source, g.target, g.matrix @ f.matrix % f.source.p)

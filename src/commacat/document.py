"""The JSON document format: named algebras, modules, comma data,
presentations, families, universes and tasks.

Matrices are arrays of arrays of integers (residues); structure
constants are triply nested arrays mul[i][j][k]; a comma object's phi is
stored dim B x (dim U * dim A) with column index u_index * dim A +
a_index.  Every reference must resolve and every object must pass its
validation before any task runs, the references of tasks included
(:func:`task_references`); errors carry the offending path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .algebra import Bimodule, FDAlgebra, TriangularAlgebra, triangular_algebra, validate_algebra, validate_bimodule
from .comma import (FAMILY_B, FAMILY_J, FAMILY_U, CommaObject, RightTModule, to_T_module, validate_comma,
                    validate_right_t)
from .linalg import _check_modulus, fp_array
from .modules import LEFT, RIGHT, ModuleMap, ModuleRep, validate_module
from .presentations import Presentation, validate_presentation
from .torsion import (
    ModuleFamily,
    comma_family,
    family_all,
    family_d_sigma,
    family_explicit,
    family_gen,
    family_zero,
    perp_left,
    perp_right,
    perp_right_modules,
)


class DocumentError(ValueError):
    """Parse or validation failure, with the offending path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass
class Document:
    p: int
    algebras: dict[str, FDAlgebra] = field(default_factory=dict)
    bimodules: dict[str, Bimodule] = field(default_factory=dict)
    triangulars: dict[str, TriangularAlgebra] = field(default_factory=dict)
    modules: dict[str, ModuleRep] = field(default_factory=dict)
    comma_objects: dict[str, CommaObject] = field(default_factory=dict)
    right_t_modules: dict[str, RightTModule] = field(default_factory=dict)
    presentations: dict[str, Presentation] = field(default_factory=dict)
    families: dict[str, ModuleFamily] = field(default_factory=dict)
    universes: dict[str, list[ModuleRep]] = field(default_factory=dict)
    # the (algebra, side) of the modules each family decides on; None when nothing fixes it
    family_over: dict[str, Optional[tuple]] = field(default_factory=dict)
    tasks: list[dict] = field(default_factory=list)
    raw: dict = field(default_factory=dict)


def _matrix(p: int, data: Any, path: str, shape: Optional[tuple[int, int]] = None) -> np.ndarray:
    """``data`` as a matrix over F_p (:func:`~commacat.linalg.fp_array`), of ``shape`` if given."""
    try:
        m = fp_array(p, data, shape=shape)
    except (ValueError, TypeError) as exc:
        raise DocumentError(path, f"malformed matrix: {exc}") from None
    if shape is not None and m.shape[0] != shape[0]:
        raise DocumentError(path, f"expected {shape[0]} rows, got {m.shape[0]}")
    if shape is not None and m.shape[1] != shape[1]:
        raise DocumentError(path, f"expected {shape[1]} columns, got {m.shape[1]}")
    return m


def _dim(rec: dict, path: str) -> int:
    dim = rec.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise DocumentError(f"{path}.dim", f"dim must be a nonnegative integer, got {dim!r}")
    return dim


def _actions(p: int, rec: dict, key: str, path: str, dim: int) -> np.ndarray:
    """The dim x dim matrices stored under ``key``, as one int64 stack."""
    data = rec.get(key, [])
    if not isinstance(data, list):
        raise DocumentError(f"{path}.{key}", f"expected a list of matrices, got {type(data).__name__}")
    mats = [_matrix(p, m, f"{path}.{key}[{i}]", (dim, dim)) for i, m in enumerate(data)]
    return np.array(mats, dtype=np.int64).reshape(len(mats), dim, dim)


def _over(modules: list[ModuleRep]) -> Optional[tuple]:
    """The (algebra, side) of the first of ``modules``; None for none."""
    return (modules[0].algebra, modules[0].side) if modules else None


def _require_over(over: Optional[tuple], got: Optional[tuple], path: str) -> None:
    """DocumentError at ``path`` unless ``got`` is ``over`` or either is unknown (None)."""
    if over is not None and got is not None and got != over:
        raise DocumentError(path, f"over {got[0].label} ({got[1]}), expected {over[0].label} ({over[1]})")


def _lookup(table: dict, name: Any, path: str, kind: str):
    if not isinstance(name, str) or name not in table:
        raise DocumentError(path, f"unresolved {kind} reference {name!r}")
    return table[name]


# For each task kind, the Document table each of its reference keys names
# (a bimodule reference resolves to its triangular algebra).
_TASK_REFERENCES = {
    "hom-table": {"universe": "universes"},
    "is-torsion-pair": {"x": "families", "y": "families", "universe": "universes"},
    "torsion-pair-oracle": {"x": "families", "y": "families", "universe": "universes"},
    "is-torsion-class": {"family": "families", "universe": "universes"},
    "is-silting": {"presentation": "presentations", "universe": "universes"},
    "is-partial-silting": {"presentation": "presentations", "universe": "universes"},
    "d-sigma-member": {"presentation": "presentations", "module": "modules"},
    "gen-member": {"generator": "modules", "module": "modules"},
    "silting-transfer": {
        "bimodule": "triangulars", "a": "modules", "sigma_a": "presentations", "b": "modules",
        "sigma_b": "presentations", "r_universe": "universes", "s_universe": "universes", "t_universe": "universes",
    },
}
_REFERENCE_KINDS = {"universes": "universe", "families": "family", "presentations": "presentation",
                    "modules": "module", "triangulars": "bimodule"}


def task_references(doc: Document, task: dict, path: str) -> dict[str, Any]:
    """The object each reference key of ``task`` names, by key.

    Raises DocumentError at ``path.kind`` for an unknown kind, at ``path.<key>``
    for a reference that does not resolve or a module, universe or family over
    another algebra or side than the task needs, and at ``path.sigma_a``
    (``sigma_b``) for a presentation that does not present the task's ``a`` (``b``).
    """
    kind = task.get("kind")
    if not isinstance(kind, str) or kind not in _TASK_REFERENCES:
        raise DocumentError(f"{path}.kind", f"unknown task kind {kind!r}")
    refs = {
        key: _lookup(getattr(doc, table), task.get(key, ""), f"{path}.{key}", _REFERENCE_KINDS[table])
        for key, table in _TASK_REFERENCES[kind].items()
    }
    for sigma, module in (("sigma_a", "a"), ("sigma_b", "b")):
        if sigma in refs and refs[sigma].target != refs[module]:
            raise DocumentError(f"{path}.{sigma}", f"{task[sigma]!r} does not present {task[module]!r}")
    for key in ("x", "y", "family"):
        if key in refs:
            _require_over(_over(refs["universe"]), doc.family_over[task.get(key, "")], f"{path}.{key}")
    # (module or universe key, the (algebra, side) it must be over)
    expected = []
    if kind == "gen-member":
        expected.append(("module", _over([refs["generator"]])))
    if "presentation" in refs:
        expected.append(("module" if "module" in refs else "universe", _over([refs["presentation"].target])))
    if kind == "silting-transfer":
        t = refs["bimodule"]
        expected += [("a", (t.r, LEFT)), ("b", (t.s, LEFT)),
                     ("r_universe", (t.r, LEFT)), ("s_universe", (t.s, LEFT)), ("t_universe", (t, LEFT))]
    for key, over in expected:
        ref = refs[key]
        _require_over(over, _over(ref if isinstance(ref, list) else [ref]), f"{path}.{key}")
    return refs


def parse_document(data: Any, collect: Optional[list] = None) -> Document:
    """Build and validate all named objects.

    With ``collect`` as a list, violations are appended there and the
    offending objects skipped (best effort); otherwise the first
    violation raises DocumentError.  A document that is not a JSON object,
    or a section that is not an object mapping names to entries, always
    raises.
    """

    def report(exc: DocumentError) -> None:
        if collect is None:
            raise exc
        collect.append({"path": exc.path, "message": exc.message})

    def entries(section: str, kind: type = dict) -> list[tuple[str, str, Any]]:
        """(name, path, entry) for each entry of a section that has type ``kind``."""
        table = data.get(section, {})
        if not isinstance(table, dict):
            got = type(table).__name__
            raise DocumentError(section, f"expected an object mapping names to entries, got {got}")
        out = []
        for name, rec in table.items():
            path = f"{section}.{name}"
            if isinstance(rec, kind):
                out.append((name, path, rec))
            else:
                expected = "a list of module names" if kind is list else "an object"
                report(DocumentError(path, f"expected {expected}, got {type(rec).__name__}"))
        return out

    if not isinstance(data, dict):
        raise DocumentError("$", f"a document must be a JSON object, got {type(data).__name__}")
    fieldrec = data.get("field")
    if not isinstance(fieldrec, dict) or "p" not in fieldrec:
        raise DocumentError("field", "missing field record with the prime p")
    p = fieldrec["p"]
    if not isinstance(p, int):
        raise DocumentError("field.p", "p must be an integer")
    try:
        _check_modulus(p)
    except ValueError as exc:
        raise DocumentError("field.p", str(exc)) from None
    doc = Document(p=p, raw=data)

    for name, path, rec in entries("algebras"):
        try:
            try:
                alg = FDAlgebra(p, rec["mul"], rec["unit"], label=name)
            except (KeyError, ValueError, TypeError) as exc:
                raise DocumentError(path, f"malformed algebra: {exc}") from None
            bad = validate_algebra(alg)
            if bad:
                raise DocumentError(path, f"invalid algebra: {bad[0]}")
            doc.algebras[name] = alg
        except DocumentError as exc:
            report(exc)

    for name, path, rec in entries("bimodules"):
        try:
            s_alg = _lookup(doc.algebras, rec.get("s_algebra", ""), path, "algebra")
            r_alg = _lookup(doc.algebras, rec.get("r_algebra", ""), path, "algebra")
            dim = _dim(rec, path)
            left = _actions(p, rec, "left_action", path, dim)
            right = _actions(p, rec, "right_action", path, dim)
            try:
                u = Bimodule(s_alg, r_alg, dim, left, right, label=name)
            except ValueError as exc:
                raise DocumentError(path, str(exc)) from None
            bad = validate_bimodule(u)
            if bad:
                raise DocumentError(path, f"invalid bimodule: {bad[0]}")
            doc.bimodules[name] = u
            doc.triangulars[name] = triangular_algebra(r_alg, s_alg, u, label=f"T[{name}]")
        except DocumentError as exc:
            report(exc)

    for name, path, rec in entries("modules"):
        try:
            alg = _lookup(doc.algebras, rec.get("algebra", ""), path, "algebra")
            side = rec.get("side", LEFT)
            if side not in (LEFT, RIGHT):
                raise DocumentError(path, f"side must be 'left' or 'right', got {side!r}")
            dim = _dim(rec, path)
            action = _actions(p, rec, "action", path, dim)
            if len(action) != alg.dim:
                raise DocumentError(path, f"need {alg.dim} action matrices, got {len(action)}")
            mod = ModuleRep(alg, side, dim, action, label=name)
            bad = validate_module(mod)
            if bad:
                raise DocumentError(path, f"invalid module: {bad[0]}")
            doc.modules[name] = mod
        except DocumentError as exc:
            report(exc)

    for name, path, rec in entries("comma_objects"):
        try:
            u = _lookup(doc.bimodules, rec.get("bimodule", ""), path, "bimodule")
            a = _lookup(doc.modules, rec.get("A", ""), path, "module")
            b = _lookup(doc.modules, rec.get("B", ""), path, "module")
            phi = _matrix(p, rec.get("phi", []), f"{path}.phi")
            if phi.shape == (0, 0):
                phi = np.zeros((b.dim, u.dim * a.dim), dtype=np.int64)
            try:
                c = CommaObject(u, a, b, phi, label=name)
            except ValueError as exc:
                raise DocumentError(path, str(exc)) from None
            bad = validate_comma(c)
            if bad:
                raise DocumentError(path, f"invalid comma object: {bad[0]}")
            doc.comma_objects[name] = c
        except DocumentError as exc:
            report(exc)

    for name, path, rec in entries("right_t_modules"):
        try:
            u = _lookup(doc.bimodules, rec.get("bimodule", ""), path, "bimodule")
            x = _lookup(doc.modules, rec.get("X", ""), path, "module")
            y = _lookup(doc.modules, rec.get("Y", ""), path, "module")
            psi = _matrix(p, rec.get("psi", []), f"{path}.psi")
            if psi.shape == (0, 0):
                psi = np.zeros((x.dim, y.dim * u.dim), dtype=np.int64)
            try:
                rt = RightTModule(u, x, y, psi, label=name)
            except ValueError as exc:
                raise DocumentError(path, str(exc)) from None
            bad = validate_right_t(rt)
            if bad:
                raise DocumentError(path, f"invalid right T-module: {bad[0]}")
            doc.right_t_modules[name] = rt
        except DocumentError as exc:
            report(exc)

    def resolve_module(name: Any, path: str) -> ModuleRep:
        if isinstance(name, str) and name not in doc.modules and name in doc.comma_objects:
            c = doc.comma_objects[name]
            return to_T_module(c, doc.triangulars[c.bimodule.label]).relabel(name)
        return _lookup(doc.modules, name, path, "module")

    for name, path, rec in entries("presentations"):
        try:
            src = resolve_module(rec.get("source", ""), f"{path}.source")
            tgt = resolve_module(rec.get("target", ""), f"{path}.target")
            mod = resolve_module(rec.get("module", ""), f"{path}.module")
            sigma = ModuleMap(src, tgt, _matrix(p, rec.get("sigma", []), f"{path}.sigma", (tgt.dim, src.dim)))
            witness = ModuleMap(tgt, mod, _matrix(p, rec.get("witness", []), f"{path}.witness", (mod.dim, tgt.dim)))
            pres = Presentation(sigma=sigma, target=mod, witness=witness)
            bad = validate_presentation(pres)
            if bad:
                raise DocumentError(path, f"not exact: {bad[0]}")
            doc.presentations[name] = pres
        except DocumentError as exc:
            report(exc)

    for name, path, rec in entries("universes", list):
        try:
            universe = [resolve_module(n, f"{path}[{i}]") for i, n in enumerate(rec)]
            for i, m in enumerate(universe):
                _require_over(_over(universe), _over([m]), f"{path}[{i}]")
            doc.universes[name] = universe
        except DocumentError as exc:
            report(exc)

    for name, path, rec in entries("families"):
        try:
            doc.families[name] = _build_family(doc, name, rec, path)
        except DocumentError as exc:
            report(exc)

    tasks = data.get("tasks") or []
    if not isinstance(tasks, list):
        raise DocumentError("tasks", "tasks must be a list")
    for i, task in enumerate(tasks):
        if not isinstance(task, dict) or "kind" not in task:
            report(DocumentError(f"tasks[{i}]", "each task needs a 'kind'"))
            continue
        try:
            task_references(doc, task, f"tasks[{i}]")
        except DocumentError as exc:
            report(exc)
    doc.tasks = [t for t in tasks if isinstance(t, dict) and "kind" in t]
    return doc


def _module_list(doc: Document, rec: dict, path: str) -> list[ModuleRep]:
    names = rec.get("modules", [])
    if not isinstance(names, list):
        raise DocumentError(f"{path}.modules", f"expected a list of module names, got {type(names).__name__}")
    return [_lookup(doc.modules, n, f"{path}.modules[{i}]", "module") for i, n in enumerate(names)]


def _build_family(doc: Document, name: str, rec: dict, path: str) -> ModuleFamily:
    """The family ``rec`` describes; it decides on modules over the algebra and side of its universe (or, for an
    empty universe, of the first thing it names), as ``doc.family_over`` records, and all it names must match."""
    kind = rec.get("kind")
    universe = _lookup(doc.universes, rec.get("universe", ""), path, "universe")
    over = _over(universe)
    named: list[tuple[str, Optional[tuple]]] = []  # (path, over) of each thing the family names
    if kind == "all":
        fam = family_all(universe)
    elif kind == "zero":
        fam = family_zero(universe)
    elif kind in ("explicit", "perp_right_modules"):
        mods = _module_list(doc, rec, path)
        named = [(f"{path}.modules[{i}]", _over([m])) for i, m in enumerate(mods)]
        if kind == "explicit":
            fam = family_explicit(mods, universe, label=name)
        else:
            fam = perp_right_modules(mods, universe, label=name)
    elif kind == "gen":
        mod = _lookup(doc.modules, rec.get("module", ""), path, "module")
        named = [(f"{path}.module", _over([mod]))]
        fam = family_gen(mod, universe, label=name)
    elif kind == "d_sigma":
        pres = _lookup(doc.presentations, rec.get("presentation", ""), path, "presentation")
        named = [(f"{path}.presentation", _over([pres.target]))]
        fam = family_d_sigma(pres, universe, label=name)
    elif kind in ("perp_right", "perp_left"):
        of = _lookup(doc.families, rec.get("of", ""), path, "family")
        named = [(f"{path}.of", doc.family_over[rec.get("of", "")])]
        fam = (perp_right if kind == "perp_right" else perp_left)(of, universe)
    elif kind == "comma":
        cfam = _lookup(doc.families, rec.get("c", ""), path, "family")
        dfam = _lookup(doc.families, rec.get("d", ""), path, "family")
        u = _lookup(doc.bimodules, rec.get("bimodule", ""), path, "bimodule")
        family = rec.get("family", FAMILY_U)
        if family not in (FAMILY_U, FAMILY_B, FAMILY_J):
            raise DocumentError(f"{path}.family", f"comma family must be U, B or J, got {family!r}")
        _require_over((u.r_algebra, LEFT), doc.family_over[rec.get("c", "")], f"{path}.c")
        _require_over((u.s_algebra, LEFT), doc.family_over[rec.get("d", "")], f"{path}.d")
        t = doc.triangulars[u.label]
        _require_over((t, LEFT), over, f"{path}.universe")
        over = (t, LEFT)
        fam = comma_family(family, cfam, dfam, t, universe, label=name)
    else:
        raise DocumentError(path, f"unknown family kind {kind!r}")
    for sub, got in named:
        _require_over(over, got, sub)
        over = over or got
    doc.family_over[name] = over
    fam.label = name
    return fam


# Bad JSON, bytes that are not UTF-8, and nesting past the decoder's recursion limit
JSON_ERRORS = (json.JSONDecodeError, UnicodeDecodeError, RecursionError)


def load_document(path: str) -> Document:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except JSON_ERRORS as exc:
            raise DocumentError("$", f"not valid JSON: {exc}") from None
    return parse_document(data)


def document_validation_report(data: dict) -> dict:
    """Run every invariant, collecting all violations (best effort)."""
    violations: list[dict] = []
    try:
        parse_document(data, collect=violations)
    except DocumentError as exc:
        violations.append({"path": exc.path, "message": exc.message})
    return {"valid": not violations, "violations": violations}

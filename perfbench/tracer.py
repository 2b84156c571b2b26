"""Outside-in tracer for the ``commacat`` CLI.

Run as::

    python3 perfbench/tracer.py SPANS.json [commacat CLI arguments...]

with ``src`` on PYTHONPATH.  It imports ``commacat``, replaces each traced
public function by a wrapper in *every* ``commacat`` module namespace that
binds it (``from .modules import hom_space`` copies the binding, so
patching only the defining module would miss calls from ``torsion``,
``presentations`` and ``comma``), then runs the CLI with the given
arguments.  Spans (name, start, end, parent) stay in memory and are
written to SPANS.json when the CLI exits, together with counters taken
at the same boundaries.  ``FpMatrix`` constructions are counted, not
spanned.  The program's own code is not modified; its report on stdout
is the same as without tracing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Optional

# Spanned functions as (defining module, function, span name).  The nine
# verify_all claim families are private functions "_claim_<family>" in tasks.
CLAIM_FAMILIES = [
    "hom_formulas",
    "tensor",
    "presentation_decomposition",
    "silting_transfer",
    "adjunctions",
    "perp_transfer",
    "torsion_transfer",
    "final_corollaries",
    "round_trip",
]
TARGETS = [
    (module, function, f"{module}.{function}")
    for module, functions in {
        "linalg": ["rref"],
        "modules": ["hom_space", "is_isomorphic", "extension_middle_terms", "gen_member"],
        "presentations": ["d_sigma_member", "is_silting"],
        "comma": ["hom_comma", "comma_is_isomorphic", "comma_universe"],
        "torsion": ["is_torsion_class", "is_torsion_pair"],
        "document": ["parse_document"],
        "fixtures": ["load_fixture"],
        "tasks": ["replay_report"],
    }.items()
    for function in functions
] + [("tasks", f"_claim_{family}", f"tasks.claim.{family}") for family in CLAIM_FAMILIES]


def span_names() -> list[str]:
    return [name for _, _, name in TARGETS]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[Optional[tuple[int, int, int, int]]] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self._hom_pairs: set = set()

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- counters taken at the span boundaries ------------------------------

    def _after(self, name: str) -> Optional[Callable]:
        count = self._count
        if name == "linalg.rref":
            return lambda args, result: count("linalg.rref.cells", args[0].rows * args[0].cols)
        if name == "modules.hom_space":
            pairs = self._hom_pairs
            return lambda args, result: pairs.add((args[0], args[1]))
        if name == "modules.is_isomorphic":
            return lambda args, result: count("modules.is_isomorphic.positive", int(result.isomorphic))
        if name == "modules.extension_middle_terms":

            def extension(args, result):
                count("modules.extension_middle_terms.terms", len(result.middle_terms))
                count("modules.extension_middle_terms.truncated", int(bool(result.truncated)))

            return extension
        if name == "torsion.is_torsion_class":
            return lambda args, result: count(
                "torsion.is_torsion_class.partial", int(bool(result.data.get("partial")))
            )
        return None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import commacat.cli  # noqa: F401  (imports every commacat module)

        namespaces = [m for n, m in sorted(sys.modules.items()) if n == "commacat" or n.startswith("commacat.")]
        for module, attr, name in TARGETS:
            original = getattr(sys.modules[f"commacat.{module}"], attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, self._after(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)

        from commacat.linalg import FpMatrix

        init = FpMatrix.__init__
        count = self._count

        def counted_init(self, *args, **kwargs):
            count("linalg.FpMatrix.new")
            init(self, *args, **kwargs)

        FpMatrix.__init__ = counted_init

    def dump(self, path: str) -> None:
        spans = [list(s) for s in self.spans]  # every span has closed by now
        self.counters["modules.hom_space.distinct"] = len(self._hom_pairs)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": spans,
                    "counters": self.counters,
                    "missing": self.missing,
                },
                fh,
            )


def main(argv: list[str]) -> None:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from commacat.cli import main as cli_main

    try:
        cli_main.main(args=cli_args, prog_name="commacat")
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    main(sys.argv[1:])

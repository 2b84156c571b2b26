"""The benchmark tracer wraps its targets by name, and reports a name that is
gone only as "not traced" at run time; this keeps every name a function."""

import importlib
import importlib.util
from pathlib import Path


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_tracer_target_is_a_callable_of_commacat():
    targets = _tracer().TARGETS
    assert len(targets) > 20
    missing = [
        name for module, function, name in targets
        if not callable(getattr(importlib.import_module(f"commacat.{module}"), function, None))
    ]
    assert missing == []

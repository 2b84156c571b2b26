"""Time commacat's set-up in a fresh process: import plus fixture or document load.

    python3 perfbench/setup_probe.py fixture dual-numbers
    python3 perfbench/setup_probe.py document path/to/doc.json

Prints one JSON object: the set-up seconds, the file ``commacat`` was
imported from and the numpy version it runs on.
"""

import json
import sys
import time

start = time.perf_counter()
import commacat.cli  # noqa: E402  (the whole package, as the CLI imports it)
from commacat.document import load_document  # noqa: E402
from commacat.fixtures import load_fixture  # noqa: E402

kind, target = sys.argv[1], sys.argv[2]
if kind == "fixture":
    load_fixture(target)
elif kind == "document":
    load_document(target)
else:
    sys.exit(f"unknown set-up kind {kind!r}")
elapsed = time.perf_counter() - start

import numpy  # noqa: E402

print(json.dumps({"setup_s": elapsed, "commacat": commacat.cli.__file__, "numpy": numpy.__version__}))

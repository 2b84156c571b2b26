"""commacat benchmark: cold-CLI time to verdict.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Runs the real ``commacat`` CLI from ``src/`` of the checkout this file sits
in, one fresh child process at a time (closed loop, one client), checks
every report and prints one line per metric, then a last line of JSON:
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` measures the end-to-end metrics of BENCHMARK.json:
  wall time of the CLI command (median), set-up time (import plus
  fixture or document load, median of several fresh processes) and
  peak RSS of the CLI child.  Both times are scaled to a reference host
  speed sampled while each child runs (``HostSpeed``); the raw times are
  printed and recorded beside them.
* ``--trace 1`` alternates untraced and traced invocations (see
  ``tracer.py``) and reports the per-layer metrics of BENCHMARK.json
  plus the tracing overhead.

Workloads, and why each exists, are described in RATIONALE.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import p3doc
from tracer import span_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / "_work"
SRC = ROOT / "src"

# Reference outputs of this revision of commacat.
DUAL_REPORT_SHA = "b662951a7a8fcb7aac94b91f058b29358c63a72f1174267cfd7dbd339162880c"
DUAL_VERDICTS = {"holds": 31, "fails": 4, "out-of-scope": 4}
DUAL_REPORT = "perfbench/data/dual-numbers.report.json"
DUAL_REPLAY_OUT = b"all certificates replayed (95 checked)\n"
# p3-doc report with the seed-dependent universe hashes removed; the same
# for every seed because conjugation keeps each module's isomorphism class.
P3_DOC_PATH = "perfbench/_work/p3-doc.json"
P3_NORMALIZED_SHA = "810e542b9841d6de4e5afcc121603ad217f5ab3129447de735e987d2575a6944"

SETUP_REPEATS = 5
# Host-speed sampling (see HostSpeed): one sample every SAMPLE_PERIOD_S, and
# the median sample time on the reference host (2-vCPU Xeon VM, Python 3.11).
SAMPLE_PERIOD_S = 0.05
SAMPLE_ITERATIONS = 3000
SPEED_REF_S = 0.00025
CHILD_LIMIT_S = 150.0  # no single child may outlive this
RUN_LIMIT_S = 170.0  # nor run past this point of the whole benchmark run


@dataclass
class Prepared:
    cli_args: list[str]
    setup_args: list[str]
    check: Callable[[bytes], list[str]]


@dataclass
class Workload:
    name: str
    prepare: Callable[[int], Prepared]


@dataclass
class Invocation:
    started: float  # time.perf_counter() at spawn
    wall_s: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes


# -- workloads -------------------------------------------------------------------


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixture_verify(name: str, fixture: str, report_sha: str, verdicts: dict[str, int]) -> Workload:
    """``commacat run --fixture NAME --format json``: verify-all plus hom-table."""

    def check(out: bytes) -> list[str]:
        errors = []
        if _sha(out) != report_sha:
            errors.append(f"report sha256 {_sha(out)} != reference {report_sha}")
        try:
            tasks = {t["kind"]: t for t in json.loads(out)["tasks"]}
            results = [v["result"] for v in tasks["verify-all"]["verdicts"]]
        except (ValueError, KeyError, TypeError) as exc:
            return errors + [f"unreadable report: {exc!r}"]
        got = {r: results.count(r) for r in verdicts}
        if got != verdicts or len(results) != sum(verdicts.values()):
            errors.append(f"verdict counts {got} of {len(results)} != {verdicts}")
        return errors

    return Workload(
        name=name,
        prepare=lambda seed: Prepared(
            ["run", "--fixture", fixture, "--format", "json"], ["fixture", fixture], check
        ),
    )


def _normalized(report: object) -> object:
    if isinstance(report, dict):
        return {k: _normalized(v) for k, v in report.items() if k != "universe_hash"}
    if isinstance(report, list):
        return [_normalized(v) for v in report]
    return report


def _prepare_p3_doc(seed: int) -> Prepared:
    doc = p3doc.generate(seed)
    path = ROOT / P3_DOC_PATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")

    def check(out: bytes) -> list[str]:
        try:
            report = json.loads(out)
        except ValueError as exc:
            return [f"unreadable report: {exc!r}"]
        errors = p3doc.report_errors(doc, report)
        normalized = json.dumps(_normalized(report), indent=2, sort_keys=True).encode()
        if _sha(normalized) != P3_NORMALIZED_SHA:
            errors.append(f"normalized report sha256 {_sha(normalized)} != reference {P3_NORMALIZED_SHA}")
        return errors

    return Prepared(["run", P3_DOC_PATH], ["document", P3_DOC_PATH], check)


def _prepare_dual_replay(seed: int) -> Prepared:
    reference = (ROOT / DUAL_REPORT).read_bytes()
    if _sha(reference) != DUAL_REPORT_SHA:
        raise RuntimeError(f"{DUAL_REPORT} is not the reference dual-numbers report")

    def check(out: bytes) -> list[str]:
        return [] if out == DUAL_REPLAY_OUT else [f"replay output {out[-200:]!r}"]

    return Prepared(
        ["validate", "--certificate", DUAL_REPORT], ["fixture", "dual-numbers"], check
    )


WORKLOADS = {
    "dual-verify": fixture_verify("dual-verify", "dual-numbers", DUAL_REPORT_SHA, DUAL_VERDICTS),
    "p3-doc": Workload("p3-doc", _prepare_p3_doc),
    "dual-replay": Workload("dual-replay", _prepare_dual_replay),
}


# -- child processes -------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The caller's environment with commacat settings dropped.

    The CLI reads COMMACAT_MAX_DIM as --max-dim, which would silently
    shrink or grow the dual-numbers universe.  The hash seed is fixed so
    that set and dict iteration order, and with it search order, repeats.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("COMMACAT_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def invoke(argv: list[str], limit_s: float) -> Invocation:
    """Run one child to completion; wall time and peak RSS from os.wait4."""
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(limit_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(start, wall, usage.ru_maxrss, proc.returncode, out.read(), err.read())


class Runner:
    """One benchmark run: child processes under a common deadline."""

    def __init__(self) -> None:
        self.started = time.perf_counter()

    def limit(self) -> float:
        return min(CHILD_LIMIT_S, RUN_LIMIT_S - (time.perf_counter() - self.started))

    def cli(self, args: list[str], spans: Optional[Path] = None) -> Invocation:
        if spans is None:
            argv = [sys.executable, "-m", "commacat.cli", *args]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans), *args]
        return invoke(argv, self.limit())

    def setup(self, args: list[str]) -> tuple[dict, Invocation]:
        inv = invoke([sys.executable, str(BENCH_DIR / "setup_probe.py"), *args], self.limit())
        if inv.exit_code != 0:
            raise RuntimeError(f"set-up probe failed: {inv.stderr.decode(errors='replace')[-2000:]}")
        probe = json.loads(inv.stdout)
        if not Path(probe["commacat"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"commacat imported from {probe['commacat']}, not from {SRC}")
        return probe, inv


class HostSpeed:
    """Samples how fast the host runs while children are timed.

    The host shares its cores with other tenants, and its speed moves by
    tens of percent within seconds.  A thread times a fixed piece of
    pure-Python work every SAMPLE_PERIOD_S on the CPU the children run on
    (about 1 % of that CPU); a child's time is scaled by SPEED_REF_S over the
    median sample taken while it ran, giving seconds at reference speed.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            start = time.perf_counter()
            total = 0
            for i in range(SAMPLE_ITERATIONS):
                total += i * i % 7
            self.samples.append((start, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, inv: Invocation, seconds: float) -> float:
        """``seconds`` measured during ``inv``, at the reference host speed."""
        # half a second before the child, so that short children get samples too
        lo, hi = inv.started - 0.5, inv.started + inv.wall_s
        during = [took for at, took in self.samples if lo <= at <= hi]
        return seconds * SPEED_REF_S / statistics.median(during)


# -- trace aggregation -------------------------------------------------------------


def aggregate(trace: dict) -> dict[str, dict[str, float]]:
    """Calls, inclusive and self seconds per span name.

    Self time is a span's duration minus that of its direct child spans.
    Inclusive time counts only the outermost span of a name, so a
    recursive call is not counted twice.
    """
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    agg = {n: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for n in names}
    for i, (name_id, start, end, parent) in enumerate(spans):
        entry = agg[names[name_id]]
        entry["calls"] += 1
        entry["self_s"] += (end - start - child_ns[i]) / 1e9
        p = parent
        while p >= 0 and spans[p][0] != name_id:
            p = spans[p][3]
        if p < 0:
            entry["incl_s"] += (end - start) / 1e9
    return agg


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric the trace supports, as (value, unit)."""
    agg = aggregate(trace)
    counters = trace["counters"]
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        entry = agg.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = (entry["calls"], "count")
        out[f"{name}.incl_s"] = (entry["incl_s"], "s")
        out[f"{name}.self_s"] = (entry["self_s"], "s")

    def per_call(counter: str, span: str) -> float:
        calls = out[f"{span}.calls"][0]
        return counters.get(counter, 0) / calls if calls else 0.0

    out["linalg.rref.mean_cells"] = (per_call("linalg.rref.cells", "linalg.rref"), "cells")
    out["linalg.FpMatrix.new"] = (counters.get("linalg.FpMatrix.new", 0), "count")
    out["modules.hom_space.distinct_ratio"] = (
        per_call("modules.hom_space.distinct", "modules.hom_space"), "ratio")
    out["modules.is_isomorphic.positive_ratio"] = (
        per_call("modules.is_isomorphic.positive", "modules.is_isomorphic"), "ratio")
    for counter in (
        "modules.extension_middle_terms.terms",
        "modules.extension_middle_terms.truncated",
        "torsion.is_torsion_class.partial",
    ):
        out[counter] = (counters.get(counter, 0), "count")
    return out


# -- statistics ----------------------------------------------------------------------


def tail_percentile(values: list[float]) -> Optional[tuple[str, float]]:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for permille in (900, 990, 999):
        if len(values) * (1000 - permille) >= 10 * 1000:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[permille - 1]
            best = (f"p{permille / 10:g}", cut)
    return best


def describe(values: list[float]) -> str:
    text = f"median of {len(values)}"
    tail = tail_percentile(values)
    if tail:
        text += f", {tail[0]} {tail[1]:.6g}"
    return text


# -- provenance ------------------------------------------------------------------------


def provenance(probe: dict, report_sha: Optional[str]) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        git_sha = done.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "commacat").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": probe["numpy"],
        "nproc": os.cpu_count(),
        "report_sha256": report_sha,
    }


# -- one run -------------------------------------------------------------------------------


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)
    untraced: set[str] = field(default_factory=set)  # span targets not found


def _failures(inv: Invocation, prepared: Prepared) -> list[str]:
    if inv.exit_code != 0:
        return [f"exit code {inv.exit_code}: {inv.stderr.decode(errors='replace')[-2000:]}"]
    return prepared.check(inv.stdout)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    # The children and the HostSpeed sampler share one CPU, so that the
    # sampler sees the speed the children get.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        with HostSpeed() as speed:
            return _run(workload, seed, seconds, trace, speed)
    finally:
        os.sched_setaffinity(0, cpus)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, speed: HostSpeed) -> Result:
    runner = Runner()
    prepared = workload.prepare(seed)
    probe, _ = runner.setup(prepared.setup_args)  # warm-up: also compiles bytecode once
    result = Result()

    def attempt(spans: Optional[Path] = None, expect: Optional[bytes] = None) -> Invocation:
        inv = runner.cli(prepared.cli_args, spans)
        errors = _failures(inv, prepared)
        if expect is not None and inv.stdout != expect:
            errors.append("traced output differs from the untraced one")
        result.attempted += 1
        if errors:
            result.failed += 1
            result.errors.extend(errors)
        return inv

    first_out = None
    if not trace:
        raw: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
        scaled: dict[str, list[float]] = {"wall_s": [], "setup_s": []}
        rss = []

        def probe_setup() -> None:
            setup, inv = runner.setup(prepared.setup_args)
            raw["setup_s"].append(setup["setup_s"])
            scaled["setup_s"].append(speed.scaled(inv, setup["setup_s"]))

        # Set-up probes are spread over the window, which they do not use up,
        # so that one phase of the machine does not catch them all.
        window_start = time.perf_counter()
        deadline = window_start + seconds
        while True:
            inv = attempt()
            raw["wall_s"].append(inv.wall_s)
            scaled["wall_s"].append(speed.scaled(inv, inv.wall_s))
            rss.append(inv.maxrss_kb / 1024)
            first_out = inv.stdout if first_out is None else first_out
            while len(raw["setup_s"]) < SETUP_REPEATS and (
                time.perf_counter() >= window_start + len(raw["setup_s"]) * seconds / SETUP_REPEATS
            ):
                probe_start = time.perf_counter()
                probe_setup()
                deadline += time.perf_counter() - probe_start
            if inv.exit_code < 0 or time.perf_counter() + inv.wall_s > deadline:
                break
        while len(raw["setup_s"]) < SETUP_REPEATS:
            probe_setup()
        result.metrics = {
            "wall_s": (statistics.median(scaled["wall_s"]), "s"),
            "setup_s": (statistics.median(scaled["setup_s"]), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        }
        result.notes = {
            name: f"{describe(scaled[name])} at reference speed; raw median {statistics.median(raw[name]):.6g}"
            for name in scaled
        }
        result.notes["peak_rss_mb"] = describe(rss)
        result.samples = {
            "wall_s": scaled["wall_s"],
            "setup_s": scaled["setup_s"],
            "raw_wall_s": raw["wall_s"],
            "raw_setup_s": raw["setup_s"],
            "peak_rss_mb": rss,
        }
    else:
        spans_path = WORK / f"spans-{workload.name}.json"
        plain, traced, layers = [], [], []
        deadline = time.perf_counter() + seconds
        while True:
            untraced = attempt()
            spans_path.unlink(missing_ok=True)
            inv = attempt(spans_path, expect=untraced.stdout)
            plain.append(speed.scaled(untraced, untraced.wall_s))
            traced.append(speed.scaled(inv, inv.wall_s))
            first_out = untraced.stdout if first_out is None else first_out
            if spans_path.exists():
                spans = json.loads(spans_path.read_text(encoding="utf-8"))
                layers.append(layer_metrics(spans))
                result.untraced.update(spans["missing"])
            pair_s = untraced.wall_s + inv.wall_s
            if inv.exit_code < 0 or time.perf_counter() + pair_s > deadline:
                break
        if layers:
            result.metrics = {
                name: (statistics.median(m[name][0] for m in layers), unit)
                for name, (_, unit) in layers[0].items()
            }
        result.metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
        result.notes = {"trace.overhead_s": f"traced {describe(traced)} minus untraced {describe(plain)}"}
        result.samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    result.provenance = provenance(probe, _sha(first_out) if first_out is not None else None)
    return result


# -- command line -------------------------------------------------------------------------


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: Optional[list[str]] = None, workloads: dict[str, Workload] = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "commacat" / "cli.py").is_file():
        print(f"error: no commacat sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    result = run_workload(workloads[args.workload], args.seed, args.seconds, trace)

    missing = [m["name"] for m in declared if m["name"] not in result.metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": result.metrics[m["name"]][0], "unit": result.metrics[m["name"]][1]}
               for m in declared}
    ratio = result.failed / result.attempted
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("provenance " + json.dumps(result.provenance, sort_keys=True))
    for name, metric in metrics.items():
        note = result.notes.get(name, "")
        print(f"  {name:<48} {metric['value']:>14.6g} {metric['unit']:<6} {note}".rstrip())
    print(f"  {'failed_ratio':<48} {ratio:>14.6g} {'ratio':<6} "
          f"{result.failed} of {result.attempted} invocations failed")
    for error in result.errors[:10]:
        print(f"  FAILED: {error}")
    for name in sorted(result.untraced):
        print(f"  WARNING: {name} not traced: no such function")

    WORK.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": result.provenance,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_ratio": ratio,
        "errors": result.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "samples": result.samples,
    }
    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # On SIGTERM, unwind through invoke(), which kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())

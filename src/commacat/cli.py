"""Command line front end.

``commacat run`` executes the tasks of a JSON document, or the built-in
tasks of a fixture, and writes a deterministic report (text or JSON) to
stdout.  ``commacat validate`` checks every invariant of a document, or
replays the certificates of a previously produced report.  A fixture
report records in its ``source`` the fixture and, when ``--max-dim`` was
given, that bound (only dual-numbers generates its comma universe within
it); the replay rebuilds the fixture from exactly that, so a report needs
no settings repeated.

Exit codes: 0 all tasks executed, 1 output could not be written, 2
validation failure, 3 task error.

A process runs the CLI through ``entry()``, both as ``python -m
commacat.cli`` and as the ``commacat`` console script.  It flushes stdout
and stderr and then ends with ``os._exit``, skipping interpreter teardown,
so nothing in a CLI process may rely on ``atexit`` handlers or finalizers.
``main`` is the click group itself, for callers that run it in-process.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from typing import Optional

import click

from . import tasks as task_runner
from .comma import MAX_TOTAL_DIM
from .document import JSON_ERRORS, DocumentError, document_validation_report, load_document
from .fixtures import fixture_names, load_fixture
from .modules import IsoSearchCapExceeded
from .tasks import MalformedReport, TaskError, replay_report


def _report_to_text(report: dict) -> str:
    lines = [f"commacat report (p = {report['p']}, source = {report['source']})"]
    for task in report["tasks"]:
        lines.append(f"task {task['name']} [{task['kind']}]")
        if "table" in task:
            labels = task["labels"]
            width = max((len(l) for l in labels), default=1) + 1
            header = " " * width + " ".join(f"{l:>{width}}" for l in labels)
            lines.append(header)
            for label, row in zip(labels, task["table"]):
                lines.append(
                    f"{label:<{width}}" + " ".join(f"{v:>{width}}" for v in row)
                )
        if "verdicts" in task:
            for v in task["verdicts"]:
                lines.extend(_verdict_lines(v, indent=2))
        for key in ("holds", "member", "disagreements", "failures"):
            if key in task:
                lines.append(f"  {key}: {task[key]}")
    return "\n".join(lines) + "\n"


def _verdict_lines(v: dict, indent: int) -> list[str]:
    pad = " " * indent
    mark = {"holds": "PASS", "fails": "FAIL", "out-of-scope": "SKIP"}[v["result"]]
    partial = " (partial)" if v["data"].get("partial") else ""
    lines = [f"{pad}[{mark}] {v['claim']}{partial}"]
    for cert in v.get("certificates", []):
        summary = {k: val for k, val in cert.items() if k != "witness" and k != "map"}
        lines.append(f"{pad}  certificate: {json.dumps(summary, sort_keys=True)}")
    for sub in v.get("sub", []):
        lines.extend(_verdict_lines(sub, indent + 2))
    return lines


@click.group()
def main() -> None:
    """Exact comma-category verification over prime fields."""


@main.command()
@click.argument("document", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="json",
              show_default=True, help="Report format.")
@click.option("--fixture", "fixture_name", type=click.Choice(fixture_names()),
              help="Run the built-in corpus instead of a document.")
@click.option("--task", "task_names", multiple=True,
              help="Only run tasks with this name or kind (repeatable).")
@click.option("--max-dim", type=click.IntRange(min=0), default=None,
              help=f"Total-dimension bound for a fixture's generated comma universe (default {MAX_TOTAL_DIM}).  "
                   "When given, it is recorded in the report's source, and validate --certificate reads it "
                   "from there.")
def run(document: Optional[str], fmt: str, fixture_name: Optional[str],
        task_names: tuple[str, ...], max_dim: Optional[int]) -> None:
    """Execute the tasks of DOCUMENT (or of --fixture) and print a report."""
    if not document and not fixture_name:
        click.echo("error: provide a document path or --fixture", err=True)
        sys.exit(2)
    if document and fixture_name:
        click.echo("error: provide a document path or --fixture, not both", err=True)
        sys.exit(2)
    if document and max_dim is not None:
        click.echo("error: --max-dim bounds a fixture's comma universe; a document lists its own universes", err=True)
        sys.exit(2)
    try:
        if fixture_name:
            source = {"fixture": fixture_name}
            if max_dim is not None:
                source["max_dim"] = max_dim
            fx = load_fixture(fixture_name, source.get("max_dim", MAX_TOTAL_DIM))
            results = task_runner.run_fixture(fx, task_names or None)
            p = fx.t.p
        else:
            try:
                doc = load_document(document)
            except DocumentError as exc:
                click.echo(f"validation failure: {exc}", err=True)
                sys.exit(2)
            source = {"document": document}
            p = doc.p
            results = task_runner.run_document(doc, task_names or None)
    except (TaskError, IsoSearchCapExceeded) as exc:
        click.echo(f"task error: {exc}", err=True)
        sys.exit(3)
    report = {"tool": "commacat", "p": p, "source": source, "tasks": results}
    if fmt == "json":
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        click.echo(_report_to_text(report), nl=False)
    sys.exit(0)


@main.command()
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", is_flag=True,
              help="Treat TARGET as a report and replay its certificates.")
def validate(target: str, certificate: bool) -> None:
    """Check every invariant of a document, or replay a report's certificates."""
    with open(target, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except JSON_ERRORS as exc:
            click.echo(f"invalid JSON: {exc}", err=True)
            sys.exit(2)
    if certificate:
        if not isinstance(data, dict):
            click.echo(f"error: a report must be a JSON object, got {type(data).__name__}", err=True)
            sys.exit(2)
        source = data.get("source")
        if not isinstance(source, dict) or "fixture" not in source:
            click.echo("error: certificate replay needs a fixture-based report", err=True)
            sys.exit(3)
        if source["fixture"] not in fixture_names():
            click.echo(f"error: unknown fixture {source['fixture']!r}", err=True)
            sys.exit(2)
        max_dim = source.get("max_dim", MAX_TOTAL_DIM)
        if type(max_dim) is not int or max_dim < 0:
            click.echo(f"error: malformed report: source.max_dim must be a non-negative int, got {max_dim!r}",
                       err=True)
            sys.exit(2)
        try:
            fx = load_fixture(source["fixture"], max_dim)
            failures, checked = replay_report(data, fx)
        except MalformedReport as exc:
            click.echo(f"error: malformed report: {exc}", err=True)
            sys.exit(2)
        except IsoSearchCapExceeded as exc:
            click.echo(f"task error: {exc}", err=True)
            sys.exit(3)
        if failures:
            for f in failures:
                click.echo(f"REPLAY FAIL {f}")
            sys.exit(2)
        click.echo(f"all certificates replayed ({checked} checked)")
        sys.exit(0)
    result = document_validation_report(data)
    if result["valid"]:
        click.echo("valid")
        sys.exit(0)
    for v in result["violations"]:
        click.echo(f"INVALID {v['path']}: {v['message']}")
    sys.exit(2)


def entry() -> None:
    """Run the CLI in standalone mode, flush, and leave with ``os._exit``.

    The exit status is read from the ``SystemExit`` as the interpreter
    would: ``None`` is 0, an int is used as it is, anything else is printed
    to stderr and gives 1.  An ``OSError`` raised while writing or flushing
    stdout prints one line and gives 1 (silently for a broken pipe, as click
    does).  Any other exception propagates with a normal interpreter exit.
    """
    status = 0
    try:
        try:
            main()
        except SystemExit as exc:
            if isinstance(exc.code, int):
                status = exc.code
            elif exc.code is not None:
                print(exc.code, file=sys.stderr)
                status = 1
        sys.stdout.flush()
    except OSError as exc:
        # a failed open() of an input names its file; a failed write to a
        # stream does not
        if exc.filename is not None:
            raise
        status = 1
        if exc.errno != errno.EPIPE:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(status)


if __name__ == "__main__":
    entry()

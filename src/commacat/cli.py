"""Command line front end.

``commacat run`` executes the tasks of a JSON document, or the built-in
tasks of a fixture, and writes a deterministic report (text or JSON) to
stdout.  ``commacat validate`` checks every invariant of a document, or
replays the certificates of a previously produced report.

Exit codes: 0 all tasks executed, 2 validation failure, 3 task error.
"""

from __future__ import annotations

import json
import sys
from typing import Optional

import click

from . import tasks as task_runner
from .document import DocumentError, document_validation_report, load_document
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


def _verdict_lines(v: dict, indent: int = 0) -> list[str]:
    pad = " " * indent
    mark = {"holds": "PASS", "fails": "FAIL", "out-of-scope": "SKIP"}[v["result"]]
    lines = [f"{pad}[{mark}] {v['claim']}"]
    for cert in v.get("certificates", []):
        summary = {k: val for k, val in cert.items() if k != "witness" and k != "map"}
        lines.append(f"{pad}  certificate: {json.dumps(summary, sort_keys=True)}")
    for sub in v.get("sub", []):
        lines.extend(_verdict_lines(sub, indent + 2))
    return lines


ISO_CAP_HELP = (
    "Hom-dimension cap for the comma isomorphism searches that build a fixture's "
    "generated comma universe (dual-numbers).  It reaches only that build: "
    "documents, a2 and every isomorphism search of the tasks use cap 16."
)


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
@click.option("--max-dim", type=click.IntRange(min=0), default=None, envvar="COMMACAT_MAX_DIM",
              help="Total-dimension cap for built universes.")
@click.option("--iso-cap", type=click.IntRange(min=0), default=16, show_default=True,
              help=ISO_CAP_HELP)
def run(document: Optional[str], fmt: str, fixture_name: Optional[str],
        task_names: tuple[str, ...], max_dim: Optional[int], iso_cap: int) -> None:
    """Execute the tasks of DOCUMENT (or of --fixture) and print a report."""
    if not document and not fixture_name:
        click.echo("error: provide a document path or --fixture", err=True)
        sys.exit(2)
    if fixture_name:
        source = {"fixture": fixture_name}
        try:
            fx = load_fixture(fixture_name, iso_cap=iso_cap, max_total_dim=max_dim)
            results = task_runner.run_fixture(fx, task_names or None)
        except (TaskError, IsoSearchCapExceeded) as exc:
            click.echo(f"task error: {exc}", err=True)
            sys.exit(3)
        p = fx.p
    else:
        try:
            doc = load_document(document)
        except DocumentError as exc:
            click.echo(f"validation failure: {exc}", err=True)
            sys.exit(2)
        source = {"document": document}
        p = doc.p
        try:
            results = task_runner.run_document(doc, task_names or None)
        except (TaskError, IsoSearchCapExceeded) as exc:
            click.echo(f"task error: {exc}", err=True)
            sys.exit(3)
    report = {"tool": "commacat", "p": p, "source": source, "tasks": results}
    if fmt == "json":
        click.echo(json.dumps(report, indent=2, sort_keys=True))
    else:
        click.echo(_report_to_text(report), nl=False)
    sys.exit(0)


@main.command()
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@click.option("--certificate", is_flag=True,
              help="Treat TARGET as a report and replay its certificates.")
@click.option("--iso-cap", type=click.IntRange(min=0), default=16, show_default=True,
              help=ISO_CAP_HELP)
@click.option("--max-dim", type=click.IntRange(min=0), default=None, envvar="COMMACAT_MAX_DIM")
def validate(target: str, certificate: bool, iso_cap: int, max_dim: Optional[int]) -> None:
    """Check every invariant of a document, or replay a report's certificates."""
    with open(target, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
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
        try:
            fx = load_fixture(source["fixture"], iso_cap=iso_cap, max_total_dim=max_dim)
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


if __name__ == "__main__":
    main()

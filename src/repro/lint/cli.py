"""``repro lint`` — the CLI face of the invariant linter.

Exit codes match the contract checker convention the rest of the repo
uses: **0** clean, **1** findings, **2** usage error (unknown or empty
rule selection, missing path).  ``--format json`` emits the stable
machine report (:mod:`repro.lint.report`); CI runs exactly that and
fails the build on any finding.
"""

from __future__ import annotations

import sys
from typing import IO, Optional, Sequence

from repro.lint.report import render_json, render_text
from repro.lint.rules import rule_catalog
from repro.lint.runner import LintError, run_lint


def list_rules() -> str:
    """The rule catalog (``repro lint --list-rules``)."""
    lines = []
    for rule_id, title, rationale in rule_catalog():
        lines.append(f"{rule_id}  {title}")
        lines.append(f"       {rationale}")
    return "\n".join(lines)


def run_command(
    paths: Sequence[str],
    select: Optional[str] = None,
    fmt: str = "text",
    show_rules: bool = False,
    root: str = ".",
    out: Optional[IO[str]] = None,
    err: Optional[IO[str]] = None,
) -> int:
    """Execute one lint invocation; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    if show_rules:
        print(list_rules(), file=out)
        return 0
    if fmt not in ("text", "json"):
        print(f"unknown format {fmt!r} (choose text or json)", file=err)
        return 2
    try:
        findings, files, selected = run_lint(
            paths=paths, select=select, root=root
        )
    except LintError as error:
        print(f"repro lint: {error}", file=err)
        return 2
    render = render_json if fmt == "json" else render_text
    report = render(findings, files, selected)
    out.write(report if report.endswith("\n") else report + "\n")
    return 1 if findings else 0

"""The lint runner: file discovery, rule selection, the passes.

``run_lint`` is the entry point the CLI shares with tests: it expands
rule selectors, walks the requested paths (default: ``src`` and
``tests``) and hands the files to :func:`lint_sources`, which parses
each once into one :class:`~repro.lint.program.ProgramGraph` and runs
every selected rule against it.  A finding is waived by a pragma in
the file it anchors to.

Paths in findings are normalized to repo-relative POSIX form (forward
slashes, rooted at ``root``), so reports are byte-stable across
platforms and invocation directories.
"""

from __future__ import annotations

import ast
import os
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.dataflow import DataflowAnalysis
from repro.lint.findings import (
    PRAGMA_RULE_ID,
    Finding,
    Pragma,
    apply_pragmas,
    parse_pragmas,
)
from repro.lint.program import ProgramGraph
from repro.lint.rules import ALL_RULES, RULES

#: directories linted when the CLI gets no explicit paths
DEFAULT_PATHS = ("src", "tests")

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


class LintError(ValueError):
    """A usage problem (unknown or empty rule selection, missing path) —
    exit 2."""


def expand_selectors(select: Optional[str]) -> Tuple[str, ...]:
    """``--select`` string → concrete rule ids.

    Accepts exact ids (``REP302``), family prefixes (``REP3`` or
    ``REP3xx``), comma-separated.  ``None`` selects everything.  Unknown
    selectors, and a string that selects no rule at all (``","``), raise
    :class:`LintError`.
    """
    if select is None:
        return tuple(ALL_RULES)
    chosen: List[str] = []
    for token in select.split(","):
        token = token.strip()
        if not token:
            continue
        normalized = token.upper()
        if normalized.endswith("XX"):
            normalized = normalized[:-2]
        matches = [
            rule_id
            for rule_id in ALL_RULES
            if rule_id == normalized or rule_id.startswith(normalized)
        ]
        if not matches:
            raise LintError(
                f"unknown rule selector {token!r}; known rules: "
                f"{', '.join(ALL_RULES)}"
            )
        chosen.extend(matches)
    if not chosen:
        raise LintError(f"--select {select!r} names no rules")
    return tuple(dict.fromkeys(chosen))


def _iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    for path in (os.path.normpath(p) for p in paths):
        if os.path.isfile(path):
            yield path
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            raise LintError(f"path does not exist: {path}")


def normalize_path(path: str, root: str = ".") -> str:
    """Repo-relative POSIX form of ``path`` (report stability).

    Paths under ``root`` are made relative to it; paths outside are
    kept as given.  Either way separators become forward slashes, so
    ``--format json`` output is byte-identical across platforms and
    invocation directories.
    """
    normalized = os.path.normpath(path)
    root_abs = os.path.abspath(root)
    candidate = os.path.abspath(normalized)
    if candidate == root_abs or candidate.startswith(root_abs + os.sep):
        normalized = os.path.relpath(candidate, root_abs)
    return normalized.replace(os.sep, "/")


def lint_sources(
    sources: Dict[str, str], select: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Lint an in-memory tree: ``{path: source}`` → sorted findings.

    Paths name the modules (``"proj/engine.py"`` → ``proj.engine``), so
    multi-file fixtures exercise cross-module resolution exactly like a
    real run.  Every file is parsed once into one
    :class:`~repro.lint.program.ProgramGraph`; the selected rules run
    against it with one shared dataflow analysis, and each file's
    suppression pragmas waive the findings anchored in it.  Syntax
    errors become a single REP001 finding rather than a crash: the
    linter must be runnable on work-in-progress trees.
    """
    selected = tuple(select) if select is not None else tuple(ALL_RULES)
    parsed: List[Tuple[str, str, ast.Module]] = []
    pragma_map: Dict[str, List[Pragma]] = {}
    findings: List[Finding] = []
    for path, source in sorted(sources.items()):
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            findings.append(
                Finding(
                    rule=PRAGMA_RULE_ID,
                    path=path,
                    line=error.lineno or 1,
                    col=(error.offset or 1) - 1,
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        parsed.append((path, source, tree))
        pragma_map[path], problems = parse_pragmas(source, ALL_RULES)
        if PRAGMA_RULE_ID in selected:
            findings.extend(replace(problem, path=path) for problem in problems)
    rules = [rule for rule in RULES if rule.id in selected]
    if rules and parsed:
        graph = ProgramGraph(parsed)
        analysis = DataflowAnalysis(graph)
        for rule in rules:
            findings.extend(
                apply_pragmas(rule.check(graph, analysis), pragma_map)
            )
    return sorted(findings, key=Finding.sort_key)


def lint_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Lint files/directories; returns ``(findings, files_checked)``.

    Reads every discovered file into :func:`lint_sources`.
    """
    sources: Dict[str, str] = {}
    for path in _iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            sources[path] = handle.read()
    return lint_sources(sources, select), len(sources)


def run_lint(
    paths: Optional[Sequence[str]] = None,
    select: Optional[str] = None,
    root: str = ".",
) -> Tuple[List[Finding], int, Tuple[str, ...]]:
    """The full gate: every selected rule over ``paths``.

    Returns ``(findings, files_checked, selected_rule_ids)``.  With no
    explicit paths, lints :data:`DEFAULT_PATHS` (the ones that exist
    under ``root``).  Finding paths come back repo-relative POSIX
    (:func:`normalize_path`), so reports are deterministic regardless
    of platform or invocation directory.
    """
    selected = expand_selectors(select)
    if paths:
        targets = list(paths)
    else:
        targets = [
            os.path.join(root, name)
            for name in DEFAULT_PATHS
            if os.path.isdir(os.path.join(root, name))
        ]
    findings, files = lint_paths(targets, select=selected)
    findings = [
        replace(finding, path=normalize_path(finding.path, root))
        for finding in findings
    ]
    return findings, files, selected

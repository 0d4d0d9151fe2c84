#!/usr/bin/env python
"""Regenerate the golden sweep specs and the tables they print.

One spec per registered artefact (paper figures/table + ablations), all
at the ``tiny`` preset with the default seed — small enough to diff in
review, big enough to drive the spec-equivalence tests and the CI smoke
sweep — goes to ``tests/golden_specs/<name>.json``.  Each spec's sweep
is then run and its report table goes to
``tests/golden_tables/<name>.txt``, minus the wall-clock columns
(:data:`VOLATILE_COLUMNS`), which measure the host rather than the
reproduction.  Run after any schema or plan-shape change, or after a
change that is meant to move a result::

    PYTHONPATH=src python scripts/generate_golden_specs.py [--check]

``--check`` writes nothing and exits non-zero if any golden spec or
table would change: it reruns the nine sweeps and diffs their tables
(the CI drift gate; a refactor that claims unchanged results must pass
it with the tables as they are).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

import repro.api as api  # noqa: E402
from repro.experiments.specio import plan_to_json  # noqa: E402
from repro.registry import registry  # noqa: E402

TESTS_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"
)
GOLDEN_DIR = os.path.join(TESTS_DIR, "golden_specs")
TABLES_DIR = os.path.join(TESTS_DIR, "golden_tables")
PRESET = "tiny"
#: report columns left out of the golden tables: timings of this host
VOLATILE_COLUMNS = ("latency (ms)",)


def golden_specs() -> dict:
    """artefact name → spec JSON text, for every registered artefact."""
    return {
        name: plan_to_json(
            api.experiment(name).preset(PRESET).plan()
        )
        for name in registry.names("artefacts")
    }


def stable_table(report: str) -> str:
    """``report`` (title, header, rule, rows) without its volatile
    columns; every other column keeps its exact text and padding."""
    title, header, rule, *rows = report.splitlines()
    keep = [
        index
        for index, name in enumerate(header.split(" | "))
        if name.strip() not in VOLATILE_COLUMNS
    ]

    def columns(line: str, sep: str) -> str:
        cells = line.split(sep)
        return sep.join(cells[index] for index in keep)

    lines = [title, columns(header, " | "), columns(rule, "-+-")]
    lines.extend(columns(row, " | ") for row in rows)
    return "\n".join(lines) + "\n"


def golden_tables() -> dict:
    """artefact name → its golden table text, from a fresh sweep each."""
    return {
        name: stable_table(
            api.run_spec(
                api.experiment(name).preset(PRESET).plan()
            ).format_report()
        )
        for name in registry.names("artefacts")
    }


def _sync(directory: str, suffix: str, texts: dict, check: bool) -> list:
    """Write (or, with ``check``, diff) one file per text; returns the
    paths whose content on disk differs."""
    stale = []
    for name, text in sorted(texts.items()):
        path = os.path.join(directory, f"{name}{suffix}")
        if check:
            on_disk = None
            if os.path.exists(path):
                with open(path) as handle:
                    on_disk = handle.read()
            if on_disk != text:
                stale.append(path)
            continue
        with open(path, "w") as handle:
            handle.write(text)
        print(f"wrote {os.path.relpath(path)}")
    return stale


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the files on disk match; write nothing",
    )
    args = parser.parse_args()
    for directory in (GOLDEN_DIR, TABLES_DIR):
        os.makedirs(directory, exist_ok=True)
    specs = golden_specs()
    stale = _sync(GOLDEN_DIR, ".json", specs, args.check)
    stale += _sync(TABLES_DIR, ".txt", golden_tables(), args.check)
    if stale:
        print(
            "golden specs or tables differ (a change meant to move them "
            "reruns scripts/generate_golden_specs.py and says why):",
            file=sys.stderr,
        )
        for path in stale:
            print(f"  {os.path.relpath(path)}", file=sys.stderr)
        return 1
    if args.check:
        print(f"golden specs and tables up to date ({len(specs)} each)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""``repro lint`` — the repo's AST-based invariant linter.

The reproduction's credibility rests on invariants that are otherwise
enforced only dynamically: bit-reproducibility from seeded
:mod:`repro.utils.rng` streams, process-pool picklability and crash
semantics, and cache-key soundness.  This package checks them
*statically* — at review time instead of as a flaky sweep three PRs
later — via four rule families, every one a
:class:`~repro.lint.program.ProgramRule` over one whole-program index:

* **REP1xx determinism** — legacy ``np.random`` module-state calls,
  unseeded ``default_rng()``, stdlib ``random``, wall-clock/OS-entropy
  reads and unordered-set iteration inside cache-key/signature
  functions;
* **REP3xx executor safety** — process-pool entries must be
  module-level and closure-free, broad ``except`` clauses must re-raise
  or carry a pragma, worker entry points must not rebind parent-shared
  module globals;
* **REP5xx seed provenance** — every generator sink's seed must derive
  from a spec-owned seed field or a parameter fed by one: literal
  seeds, wall-clock seeds and seed-dropping call chains are flagged via
  interprocedural dataflow (:mod:`repro.lint.dataflow`);
* **REP6xx cache-key soundness** — a content-keyed cache site's
  computation must not read config values its key payload omits, and
  ``content_key`` payloads must not contain run-volatile values.

Registry, spec-schema and equivalence-coverage contracts are facts the
code computes at runtime, so plain tests check them
(``tests/test_registry.py``, ``tests/test_spec_roundtrip.py``,
``tests/test_scheduler_faults.py``, ``tests/test_fl_batched_round.py``).
So does the concurrency surface: the sweep runs cells inline or in
worker processes, and ``tests/test_lint.py`` pins the tree's only
thread and lock constructions.

A finding is suppressed by a pragma carrying a reason::

    except Exception:  # repro: allow[REP302] recovery path, see docstring

Findings, rules, the program graph and the runner are exposed here for
programmatic use; the CLI lives in :mod:`repro.lint.cli`
(``repro lint``).
"""

from repro.lint.dataflow import DataflowAnalysis
from repro.lint.findings import Finding, Pragma, parse_pragmas
from repro.lint.program import ProgramGraph, ProgramRule
from repro.lint.report import REPORT_SCHEMA_VERSION, render_json, render_text
from repro.lint.rules import ALL_RULES, RULES, rule_catalog
from repro.lint.runner import (
    LintError,
    expand_selectors,
    lint_paths,
    lint_sources,
    normalize_path,
    run_lint,
)

__all__ = [
    "ALL_RULES",
    "DataflowAnalysis",
    "Finding",
    "LintError",
    "Pragma",
    "ProgramGraph",
    "ProgramRule",
    "REPORT_SCHEMA_VERSION",
    "RULES",
    "expand_selectors",
    "lint_paths",
    "lint_sources",
    "normalize_path",
    "parse_pragmas",
    "render_json",
    "render_text",
    "rule_catalog",
    "run_lint",
]

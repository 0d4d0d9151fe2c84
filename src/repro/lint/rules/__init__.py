"""Rule registry: one module per family, aggregated here.

Every rule is a :class:`~repro.lint.program.ProgramRule` run once per
invocation against the whole-program graph
(:mod:`repro.lint.program`) with the shared dataflow analysis.
:data:`PRAGMA_RULE_ID` (REP001) is emitted by the runner itself while
parsing suppression pragmas.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.lint.findings import PRAGMA_RULE_ID
from repro.lint.rules.cachekeys import CACHEKEY_RULES
from repro.lint.rules.determinism import DETERMINISM_RULES
from repro.lint.rules.executor import EXECUTOR_RULES
from repro.lint.rules.provenance import PROVENANCE_RULES

RULES = (
    *DETERMINISM_RULES,
    *EXECUTOR_RULES,
    *PROVENANCE_RULES,
    *CACHEKEY_RULES,
)

#: (id, title, rationale) for REP001 — the ``--list-rules`` catalog and
#: the docs' rule table source of truth, with every rule's own row
PRAGMA_RULE_ROW = (
    PRAGMA_RULE_ID,
    "pragma hygiene",
    "every '# repro: allow[...]' suppression must name real rules and "
    "carry a reason — the linter documents exceptions, it does not "
    "wave them through",
)


def rule_catalog() -> List[Tuple[str, str, str]]:
    """``(id, title, rationale)`` rows for every rule, sorted by id."""
    rows = [PRAGMA_RULE_ROW]
    for rule in RULES:
        rows.append((rule.id, rule.title, rule.rationale))
    return sorted(rows)


ALL_RULES = tuple(row[0] for row in rule_catalog())

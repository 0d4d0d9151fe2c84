"""Findings and suppression pragmas — the linter's shared currency.

A :class:`Finding` is one rule violation at one source location.  A
:class:`Pragma` is an in-source suppression comment::

    # repro: allow[REP302] the error is re-raised from future.result()

The bracket names one or more rule ids (``REP302``) or rule families
(``REP3xx`` — any REP3 rule), comma-separated; the trailing text is the
mandatory human reason.  A pragma suppresses matching findings on its
own line, and — when it is a standalone comment line — on the next
line, so long statements can carry their suppression above them.
A pragma without a reason, or naming a rule or family that does not
exist, is itself a finding (:data:`PRAGMA_RULE_ID`): the linter
documents exceptions, it does not let them go unexplained.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

#: rule id for pragma-hygiene findings (reason-less or malformed pragmas)
PRAGMA_RULE_ID = "REP001"

_PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)")
_RULE_TOKEN_RE = re.compile(r"^REP\d+$|^REP\d{1,2}xx$", re.IGNORECASE)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``line``/``col`` are 1-based line and 0-based column, matching what
    editors and CI annotations expect.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> Dict[str, object]:
        """JSON-native payload (the report schema's ``findings`` entry)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _names(token: str, rule_id: str) -> bool:
    """Does a pragma token (``REP302`` or family ``REP3xx``) name
    ``rule_id``?"""
    token, rule_id = token.upper(), rule_id.upper()
    if token.endswith("XX"):
        return rule_id.startswith(token[:-2])
    return token == rule_id


@dataclass(frozen=True)
class Pragma:
    """One ``# repro: allow[...]`` comment and its suppression scope."""

    line: int
    rules: Tuple[str, ...]
    reason: str
    standalone: bool = False

    def allows(self, rule_id: str) -> bool:
        """Does this pragma suppress ``rule_id``?"""
        return any(_names(token, rule_id) for token in self.rules)

    def covers_line(self, line: int) -> bool:
        """Pragmas cover their own line; standalone comment lines also
        cover the following line (the statement they annotate)."""
        return line == self.line or (self.standalone and line == self.line + 1)


def _comment_tokens(source: str) -> List[Tuple[int, int, str, bool]]:
    """``(line, col, text, standalone)`` for every real comment token.

    Tokenizing (rather than scanning raw lines) keeps pragma syntax
    mentioned inside string literals and docstrings — the linter's own
    documentation included — from being parsed as live pragmas.
    """
    comments: List[Tuple[int, int, str, bool]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                (line, col) = token.start
                standalone = token.line[:col].strip() == ""
                comments.append((line, col, token.string, standalone))
    except (tokenize.TokenizeError, SyntaxError, IndentationError):
        # an unparsable file is reported by the runner; no pragmas here
        return []
    return comments


def parse_pragmas(
    source: str, known_rules: Sequence[str]
) -> Tuple[List[Pragma], List[Finding]]:
    """Extract suppression pragmas from a file's comment tokens.

    Returns ``(pragmas, hygiene_findings)`` — a pragma with no reason,
    with tokens that are not rule ids/families, or with a token naming
    no rule in ``known_rules`` produces a :data:`PRAGMA_RULE_ID` finding
    instead of silently suppressing nothing.  The returned findings
    carry an empty ``path``; the caller stamps the real one.
    """
    pragmas: List[Pragma] = []
    problems: List[Finding] = []
    for lineno, col, text, standalone in _comment_tokens(source):
        match = _PRAGMA_RE.search(text)
        if not match:
            continue
        raw_rules, reason = match.group(1), match.group(2).strip()
        tokens = tuple(
            token.strip() for token in raw_rules.split(",") if token.strip()
        )
        bad = [t for t in tokens if not _RULE_TOKEN_RE.match(t)]
        unknown = [
            t
            for t in tokens
            if not any(_names(t, rule_id) for rule_id in known_rules)
        ]
        if not tokens or bad:
            message = (
                "malformed pragma: allow[...] must name rule ids like "
                f"REP302 or families like REP3xx, got {bad or ['(empty)']}"
            )
        elif unknown:
            message = (
                f"pragma names no existing rule: {unknown} — see "
                f"'repro lint --list-rules'"
            )
        elif not reason:
            message = (
                "pragma without a reason: every '# repro: allow[...]' "
                "must say why the rule is waived here"
            )
        else:
            pragmas.append(
                Pragma(
                    line=lineno,
                    rules=tokens,
                    reason=reason,
                    standalone=standalone,
                )
            )
            continue
        problems.append(
            Finding(
                rule=PRAGMA_RULE_ID,
                path="",
                line=lineno,
                col=col,
                message=message,
            )
        )
    return pragmas, problems


def apply_pragmas(
    findings: Sequence[Finding],
    pragmas_by_path: Mapping[str, Sequence[Pragma]],
) -> List[Finding]:
    """Drop findings a pragma in their own file suppresses."""
    return [
        finding
        for finding in findings
        if not any(
            pragma.covers_line(finding.line) and pragma.allows(finding.rule)
            for pragma in pragmas_by_path.get(finding.path, ())
        )
    ]

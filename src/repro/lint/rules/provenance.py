"""REP5xx — seed provenance (whole-program).

The determinism contract says every generator in the tree is spawned
off a spec-owned seed (``Preset.seed``, ``FederationConfig`` fields, a
``SeedSequence`` threaded down from the engine).  The local REP1xx rules
catch *unseeded* construction; this family catches the subtler leaks a
single file cannot see — a literal seed buried three calls down, a
wall-clock value laundered through a helper, a call chain that simply
drops the seed and silently falls back to a default.

All three rules ride the :mod:`repro.lint.dataflow` provenance pass:
an argument's provenance is computed interprocedurally (defaults plus
every resolved call site), and a rule only fires on what the analysis
can *prove* — e.g. REP501 requires provenance exactly ``{LITERAL}``,
so a parameter that is literal on one path but spec-seeded on another
stays silent.  Test modules are skipped wholesale: fixture seeds are
the point of a test.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.dataflow import LITERAL, WALLCLOCK, DataflowAnalysis
from repro.lint.findings import Finding
from repro.lint.program import (
    CallSite,
    FunctionInfo,
    ModuleInfo,
    ProgramGraph,
    ProgramRule,
    call_basename,
    is_seed_name,
)

#: seed sinks by unqualified callable name → (positional index of the
#: seed argument, keyword spellings).  Matching is by basename so both
#: ``np.random.default_rng`` and a ``from``-imported ``default_rng``
#: hit; the repo owns all of these names.
SEED_SINKS: Dict[str, Tuple[int, Tuple[str, ...]]] = {
    "default_rng": (0, ("seed",)),
    "SeedSequence": (0, ("root_seed", "entropy", "seed")),
    "spawn_rng": (0, ("seed",)),
    "seed_fallback_rng": (0, ("seed",)),
    "client_round_rng": (0, ("seeds",)),
}


def seed_argument(call: ast.Call) -> Optional[ast.AST]:
    """The seed-carrying argument of a sink call, or ``None``
    (no-arg ``default_rng()`` is REP102's business, not ours)."""
    name = call_basename(call)
    if name not in SEED_SINKS:
        return None
    index, keywords = SEED_SINKS[name]
    for keyword in call.keywords:
        if keyword.arg in keywords:
            return keyword.value
    plain = [a for a in call.args if not isinstance(a, ast.Starred)]
    if len(plain) == len(call.args) and index < len(plain):
        return plain[index]
    return None


def _sink_sites(
    graph: ProgramGraph,
) -> Iterator[
    Tuple[ModuleInfo, Optional[FunctionInfo], ast.Call, ast.expr]
]:
    """Yield ``(module, function, call, seed_expr)`` for every seed-sink
    call in non-test, non-class-body-default positions."""
    for module in graph.project_modules():
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            arg = seed_argument(node)
            if arg is None:
                continue
            if module.in_class_body_default(node):
                # dataclass field defaults *define* the spec-owned seed;
                # they are the provenance origin, not a leak
                continue
            function = graph.enclosing_function(module, node)
            yield module, function, node, arg


def _snippet(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except ValueError:  # pragma: no cover - unparse is total on 3.11
        text = "<expr>"
    return text if len(text) <= 40 else text[:37] + "..."


class LiteralSeedSink(ProgramRule):
    """REP501: a generator seeded by nothing but a hard-coded literal."""

    id = "REP501"
    title = "literal seed reaches a generator sink"
    rationale = (
        "a hard-coded seed silently pins randomness outside the "
        "spec/preset seed plumbing — sweeps stop varying with the "
        "preset seed and two components can collide on one stream; "
        "derive the value from a spec seed field or a parameter fed "
        "by one"
    )

    def check(
        self, graph: ProgramGraph, analysis: DataflowAnalysis
    ) -> List[Finding]:
        findings: List[Finding] = []
        for module, function, call, arg in _sink_sites(graph):
            provenance = analysis.provenance_of(arg, module, function)
            if provenance == frozenset({LITERAL}):
                findings.append(
                    self._finding(
                        module,
                        call,
                        f"seed argument {_snippet(arg)!r} of "
                        f"{call_basename(call)}() is provably a literal "
                        "on every path — thread a spec/preset seed "
                        "through instead",
                    )
                )
        return findings


class WallClockSeedSink(ProgramRule):
    """REP502: wall-clock / entropy values flowing into a seed."""

    id = "REP502"
    title = "wall-clock or entropy value reaches a generator sink"
    rationale = (
        "time/uuid/urandom-derived seeds make runs unreproducible by "
        "construction; the whole determinism contract assumes seeds "
        "are pure functions of the spec"
    )

    def check(
        self, graph: ProgramGraph, analysis: DataflowAnalysis
    ) -> List[Finding]:
        findings: List[Finding] = []
        for module, function, call, arg in _sink_sites(graph):
            provenance = analysis.provenance_of(arg, module, function)
            if WALLCLOCK in provenance:
                findings.append(
                    self._finding(
                        module,
                        call,
                        f"seed argument {_snippet(arg)!r} of "
                        f"{call_basename(call)}() can carry a "
                        "wall-clock/entropy value "
                        f"(provenance {analysis.describe(provenance)})",
                    )
                )
        return findings


class SeedDroppingCall(ProgramRule):
    """REP503: a call chain that drops the seed on the floor."""

    id = "REP503"
    title = "call omits a seed parameter despite having one in scope"
    rationale = (
        "a callee with a literal-default seed parameter, called "
        "without it from a function that *has* seed provenance in "
        "scope, silently decouples the callee's randomness from the "
        "experiment seed — the classic cross-module way to lose "
        "reproducibility"
    )

    def check(
        self, graph: ProgramGraph, analysis: DataflowAnalysis
    ) -> List[Finding]:
        findings: List[Finding] = []
        for site in graph.call_sites:
            if site.module.is_test or site.caller is None:
                continue
            if site.has_splat():
                continue  # *args/**kwargs may well forward the seed
            dropped = self._dropped_seed_param(site.callee, site)
            if dropped is None:
                continue
            if not self._caller_has_seed(site.caller):
                continue
            findings.append(
                self._finding(
                    site.module,
                    site.node,
                    f"call to {site.callee.name}() omits seed parameter "
                    f"{dropped!r} (literal default) while the caller has "
                    "seed provenance in scope — pass the seed through",
                )
            )
        return findings

    @staticmethod
    def _dropped_seed_param(
        callee: FunctionInfo, site: CallSite
    ) -> Optional[str]:
        for param in callee.positional_params():
            if not is_seed_name(param):
                continue
            default = callee.defaults.get(param)
            if not isinstance(default, ast.Constant):
                continue
            if default.value is None:
                # `seed=None` defaults are explicit "derive it yourself"
                # contracts (fallback_rng handles them deterministically)
                continue
            if site.argument_for(param) is None:
                return param
        return None

    @staticmethod
    def _caller_has_seed(caller: FunctionInfo) -> bool:
        if any(is_seed_name(p) for p in caller.params):
            return True
        for node in ast.walk(caller.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and is_seed_name(node.attr)
            ):
                return True
        return False


PROVENANCE_RULES = (
    LiteralSeedSink(),
    WallClockSeedSink(),
    SeedDroppingCall(),
)

"""REP6xx — cache-key soundness (whole-program).

The artifact cache's one contract: *everything the cached computation
reads must be in the key*.  PRs 5–7 each hit the same bug class — a new
knob influences the computation but the key builder was not updated, so
stale artifacts are served for new configurations.  These rules catch
that statically.

REP601 pairs every cache consult site (``get_datasets`` /
``get_pretrained`` / ``get_or_compute``) whose
key and compute expressions are both statically traceable with the
``content_key`` payload feeding the key, then diffs two sets:

* **covered** — ``root.attr`` reads appearing in the key payload
  (following one level of local assignment, dict literals and
  comprehensions; ``asdict(x)`` / ``x.to_dict()`` / ``x.identity()`` /
  ``dict(x)`` / ``**x`` splats mark the whole root covered);
* **required** — ``root.attr`` reads on the compute path (lambda,
  local ``def``, or module function), followed interprocedurally
  through calls that pass a tracked object whole.

Anything required-but-not-covered is exactly the "forgot to add the
knob to the key" bug, reported at the cache call site (one pragma
covers a deliberate omission, with its reason).  Sites whose key or
compute arrive as opaque parameters (the cache plumbing itself) are
skipped — the builders are checked where the expressions are written.

REP602 extends REP104 beyond key-named functions: a ``content_key``
payload must never contain run-volatile values (``id()``, ``hash()``,
wall-clock / entropy calls) no matter what the surrounding function is
called.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.dataflow import WALLCLOCK_CALLS, DataflowAnalysis
from repro.lint.findings import Finding
from repro.lint.program import (
    FunctionInfo,
    ModuleInfo,
    ProgramGraph,
    ProgramRule,
    call_basename,
)

#: cache consult sites by unqualified method name → (key argument
#: index, compute argument index)
CACHE_SITES: Dict[str, Tuple[int, int]] = {
    "get_datasets": (0, 1),
    "get_pretrained": (0, 1),
    "get_or_compute": (1, 2),
}

#: names whose reads on the compute path are config-carrying even when
#: the key never mentions them — a wholly-unkeyed config object must
#: still be flagged
_CONFIG_ROOT_RE = re.compile(
    r"^(spec|preset|config|cfg|options|opts|settings|params)$"
)

#: whole-object dumps: the entire root is in the key
_WHOLE_OBJECT_CALLS = frozenset({"asdict", "dict", "vars"})
_WHOLE_OBJECT_METHODS = frozenset({"to_dict", "identity", "_asdict"})

#: run-volatile calls that must never feed a content key
_VOLATILE_BUILTINS = frozenset({"id", "hash"})


def _attr_read(node: ast.AST) -> Optional[Tuple[str, str]]:
    """``root.attr`` with a plain Name root, else ``None``."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id, node.attr
    return None


def _local_assignment(
    function: Optional[FunctionInfo], name: str
) -> Optional[ast.AST]:
    """The single assignment to a local, or ``None`` if absent/multiple
    (multiple reaching definitions → trace declined, site skipped)."""
    if function is None:
        return None
    values = []
    for node in ast.walk(function.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    values.append(node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == name
            ):
                values.append(node.value)
    return values[0] if len(values) == 1 else None


def _local_def(
    function: Optional[FunctionInfo], name: str
) -> Optional[ast.FunctionDef]:
    if function is None:
        return None
    for node in ast.walk(function.node):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return None


class _Coverage:
    """The covered set of one key payload."""

    def __init__(self) -> None:
        self.attrs: Set[Tuple[str, str]] = set()
        self.whole_roots: Set[str] = set()

    def covers(self, root: str, attr: str) -> bool:
        return root in self.whole_roots or (root, attr) in self.attrs

    @property
    def roots(self) -> Set[str]:
        return self.whole_roots | {root for root, _ in self.attrs}


def _collect_coverage(
    expr: ast.AST, function: Optional[FunctionInfo], coverage: _Coverage,
    depth: int = 3,
) -> None:
    """Fold one key-payload expression into the covered set."""
    if depth <= 0:
        return
    for node in ast.walk(expr):
        read = _attr_read(node)
        if read is not None:
            coverage.attrs.add(read)
        if isinstance(node, ast.Call):
            name = call_basename(node)
            if name in _WHOLE_OBJECT_CALLS and node.args:
                target = node.args[0]
                if isinstance(target, ast.Name):
                    coverage.whole_roots.add(target.id)
            elif name in _WHOLE_OBJECT_METHODS and isinstance(
                node.func, ast.Attribute
            ):
                receiver = node.func.value
                if isinstance(receiver, ast.Name):
                    coverage.whole_roots.add(receiver.id)
        elif isinstance(node, ast.Dict):
            # {**base, ...} — the splatted mapping is wholly in the key
            for key, value in zip(node.keys, node.values):
                if key is None and isinstance(value, ast.Name):
                    coverage.whole_roots.add(value.id)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            traced = _local_assignment(function, node.id)
            if traced is not None and traced is not expr:
                _collect_coverage(traced, function, coverage, depth - 1)


def _trace_key_payload(
    key_expr: ast.AST, function: Optional[FunctionInfo]
) -> Optional[ast.AST]:
    """The ``content_key(...)`` payload expression behind a key
    argument, following one local assignment; ``None`` → untraceable."""
    expr: Optional[ast.AST] = key_expr
    if isinstance(expr, ast.Name):
        if function is not None and expr.id in function.params:
            return None  # key built elsewhere: checked at its builder
        expr = _local_assignment(function, expr.id)
    if (
        isinstance(expr, ast.Call)
        and call_basename(expr) == "content_key"
        and expr.args
    ):
        return expr.args[0]
    return None


def _compute_body(
    compute_expr: ast.AST,
    function: Optional[FunctionInfo],
    graph: ProgramGraph,
    module: ModuleInfo,
) -> Optional[ast.AST]:
    """The AST actually executed on a cache miss, or ``None``."""
    expr = compute_expr
    if isinstance(expr, ast.Name):
        if function is not None and expr.id in function.params:
            return None  # opaque callable parameter: plumbing, skip
        local = _local_def(function, expr.id)
        if local is not None:
            return local
        local_value = _local_assignment(function, expr.id)
        if local_value is not None:
            return _compute_body(local_value, function, graph, module)
        qualname = graph.resolve_qualname(module, expr.id)
        if qualname is not None:
            return graph.functions[qualname].node
        return None
    if isinstance(expr, ast.Lambda):
        return expr
    return None


def _required_reads(
    body: ast.AST,
    tracked: Set[str],
    graph: ProgramGraph,
    module: ModuleInfo,
    caller: Optional[FunctionInfo],
    depth: int = 3,
    seen: Optional[Set[str]] = None,
) -> Iterable[Tuple[str, str, int]]:
    """``(root, attr, line)`` reads of tracked objects on the compute
    path, following calls that pass a tracked object whole (the
    callee's reads surface under the caller-side root name)."""
    if depth <= 0:
        return
    if seen is None:
        seen = set()
    for node in ast.walk(body):
        read = _attr_read(node)
        if (
            read is not None
            and read[0] in tracked
            and isinstance(node.ctx, ast.Load)
        ):
            parent_call = None
            # method access (`preset.building(...)`) is not a value
            # read of a field — a documented limitation, the method's
            # own reads are only followed when the object is passed on
            for candidate in module.ancestors(node):
                if (
                    isinstance(candidate, ast.Call)
                    and candidate.func is node
                ):
                    parent_call = candidate
                break
            if parent_call is None:
                yield read[0], read[1], getattr(node, "lineno", 1)
        if isinstance(node, ast.Call):
            callee = graph.resolve_call(module, node, caller)
            if callee is None or callee.qualname in seen:
                continue
            forwarded: List[Tuple[str, str]] = []  # (caller root, param)
            for index, arg in enumerate(
                a for a in node.args if not isinstance(a, ast.Starred)
            ):
                positional = callee.positional_params()
                if (
                    isinstance(arg, ast.Name)
                    and arg.id in tracked
                    and index < len(positional)
                ):
                    forwarded.append((arg.id, positional[index]))
            for keyword in node.keywords:
                if (
                    isinstance(keyword.value, ast.Name)
                    and keyword.value.id in tracked
                    and keyword.arg is not None
                ):
                    forwarded.append((keyword.value.id, keyword.arg))
            if not forwarded:
                continue
            seen.add(callee.qualname)
            rename = {param: root for root, param in forwarded}
            for root, attr, line in _required_reads(
                callee.node,
                set(rename),
                graph,
                callee.module,
                callee,
                depth - 1,
                seen,
            ):
                yield rename[root], attr, getattr(node, "lineno", line)


class CacheKeyCoverage(ProgramRule):
    """REP601: a cached computation reads config the key omits."""

    id = "REP601"
    title = "cache key omits a value the cached computation reads"
    rationale = (
        "a content-keyed cache serves stale artifacts the moment the "
        "computation reads a knob the key does not carry — every "
        "attribute/config read on the cached path must appear in the "
        "key payload (or carry a pragma stating why its omission is "
        "sound)"
    )

    def check(
        self, graph: ProgramGraph, analysis: DataflowAnalysis
    ) -> List[Finding]:
        findings: List[Finding] = []
        for module in graph.project_modules():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = call_basename(node)
                if name not in CACHE_SITES:
                    continue
                findings.extend(self._check_site(graph, module, node))
        return findings

    def _check_site(
        self, graph: ProgramGraph, module: ModuleInfo, call: ast.Call
    ) -> List[Finding]:
        key_index, compute_index = CACHE_SITES[call_basename(call)]
        plain = [a for a in call.args if not isinstance(a, ast.Starred)]
        if len(plain) != len(call.args):
            return []
        if max(key_index, compute_index) >= len(plain):
            return []
        function = graph.enclosing_function(module, call)
        payload = _trace_key_payload(plain[key_index], function)
        body = _compute_body(plain[compute_index], function, graph, module)
        if payload is None or body is None:
            return []
        coverage = _Coverage()
        _collect_coverage(payload, function, coverage)
        tracked = {
            root
            for root in coverage.roots
            if not root.startswith("self")
        }
        if body is not None:
            for sub in ast.walk(body):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and _CONFIG_ROOT_RE.match(sub.id)
                ):
                    tracked.add(sub.id)
        missing: Dict[Tuple[str, str], int] = {}
        for root, attr, line in _required_reads(
            body, tracked, graph, module, function
        ):
            if not coverage.covers(root, attr):
                missing.setdefault((root, attr), line)
        return [
            self._finding(
                module,
                call,
                f"cached computation reads {root}.{attr} (line {line}) "
                "but the cache key payload does not carry it — add it "
                "to the key or pragma the omission with a reason",
            )
            for (root, attr), line in sorted(missing.items())
        ]


class VolatileKeyPayload(ProgramRule):
    """REP602: run-volatile values inside a ``content_key`` payload."""

    id = "REP602"
    title = "content_key payload contains a run-volatile value"
    rationale = (
        "id()/hash()/wall-clock values change between runs and "
        "interpreters, so a key containing one never hits again — "
        "cache keys must be pure functions of the content being keyed"
    )

    def check(
        self, graph: ProgramGraph, analysis: DataflowAnalysis
    ) -> List[Finding]:
        findings: List[Finding] = []
        for module in graph.project_modules():
            for node in ast.walk(module.tree):
                if not (
                    isinstance(node, ast.Call)
                    and call_basename(node) == "content_key"
                    and node.args
                ):
                    continue
                for sub in ast.walk(node.args[0]):
                    if not isinstance(sub, ast.Call):
                        continue
                    label = self._volatile_label(module, sub)
                    if label is not None:
                        findings.append(
                            self._finding(
                                module,
                                sub,
                                f"{label} inside a content_key payload "
                                "is run-volatile — key on the content "
                                "itself",
                            )
                        )
        return findings

    @staticmethod
    def _volatile_label(
        module: ModuleInfo, call: ast.Call
    ) -> Optional[str]:
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in _VOLATILE_BUILTINS
        ):
            return f"{call.func.id}()"
        dotted = module.dotted_name(call.func)
        if dotted in WALLCLOCK_CALLS:
            return f"{dotted}()"
        return None


CACHEKEY_RULES = (
    CacheKeyCoverage(),
    VolatileKeyPayload(),
)

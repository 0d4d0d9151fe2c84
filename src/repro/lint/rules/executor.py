"""REP3xx — executor-safety rules.

The process-pool execution path (PR 5/8) ships cells to worker
processes: entries must pickle (module-level, closure-free), broad
exception handlers must not swallow the scheduler's failure semantics,
and worker code must not rebind module globals the parent relies on
(fork gives each worker a private copy — the "shared" global silently
diverges).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple, Union

from repro.lint.findings import Finding
from repro.lint.program import ModuleInfo, ProgramGraph, ProgramRule

_BROAD_NAMES = ("Exception", "BaseException")

#: function-name shapes treated as process-worker entry points even when
#: the ProcessBackend/submit site lives in another module
_WORKER_NAME_PREFIXES = ("_pool_", "_worker_")
_WORKER_NAME_SUFFIXES = ("_worker",)


def _process_entries(
    module: ModuleInfo,
) -> Iterator[Tuple[ast.Call, ast.AST, str]]:
    """``(call, entry, what)`` for every ``ProcessBackend(entry)`` and
    process-pool ``.submit(entry, ...)`` call in the module."""
    for node in module.nodes(ast.Call):
        dotted = module.dotted_name(node.func) or ""
        if dotted.split(".")[-1] == "ProcessBackend":
            entry = _entry_arg(node)
            if entry is not None:
                yield node, entry, "ProcessBackend entry"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
            and "process" in (module.dotted_name(node.func.value) or "").lower()
            and node.args
        ):
            yield node, node.args[0], "process-pool submit target"


def _entry_arg(node: ast.Call) -> Optional[ast.AST]:
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "entry":
            return keyword.value
    return None


def _module_names(module: ModuleInfo) -> Set[str]:
    """Names bound at module level: defs, classes, imports, assigns."""
    names: Set[str] = set()
    for node in module.tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(node.name)
        elif isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                elts = (
                    target.elts
                    if isinstance(target, (ast.Tuple, ast.List))
                    else [target]
                )
                names.update(e.id for e in elts if isinstance(e, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


def _contains_raise(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


class ProcessEntryPicklable(ProgramRule):
    """REP301: process-pool entries must be module-level callables."""

    id = "REP301"
    title = "process-pool entry is not a module-level callable"
    rationale = (
        "ProcessPoolExecutor pickles the entry by qualified name: "
        "lambdas, closures and locally-defined functions fail at "
        "dispatch time (or, worse, only on spawn platforms). Pool "
        "entries must be plain module-level functions."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        findings: List[Finding] = []
        for module in graph.files:
            module_names = _module_names(module)
            for call, entry, what in _process_entries(module):
                message = self._problem(
                    module, call, entry, what, module_names
                )
                if message is not None:
                    findings.append(self._finding(module, entry, message))
        return findings

    @staticmethod
    def _problem(
        module: ModuleInfo,
        call: ast.Call,
        entry: ast.AST,
        what: str,
        module_names: Set[str],
    ) -> Optional[str]:
        if isinstance(entry, ast.Lambda):
            return (
                f"{what} is a lambda — lambdas do not pickle; define a "
                f"module-level function"
            )
        if isinstance(entry, ast.Name):
            if module.scope_names(call) and entry.id not in module_names:
                return (
                    f"{what} {entry.id!r} is not module-level — nested "
                    f"functions and closures do not pickle"
                )
            return None
        head = entry
        while isinstance(head, ast.Attribute):
            head = head.value
        if isinstance(head, ast.Name) and head.id in ("self", "cls"):
            return (
                f"{what} is a bound method — instance state does not "
                f"ship to workers; use a module-level function taking "
                f"an explicit payload"
            )
        return None


class BroadExceptMustReraise(ProgramRule):
    """REP302: broad handlers must re-raise or carry an allow pragma."""

    id = "REP302"
    title = "broad except swallows errors without re-raising"
    rationale = (
        "bare except / except Exception / except BaseException that "
        "neither re-raises nor carries a '# repro: allow[REP302] reason' "
        "pragma hides worker crashes and scheduler failure semantics — "
        "the exact bugs the fault-tolerant sweep path exists to surface."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        findings: List[Finding] = []
        for module in graph.files:
            for node in module.nodes(ast.ExceptHandler):
                if not self._is_broad(node.type) or _contains_raise(
                    node.body
                ):
                    continue
                caught = "bare except" if node.type is None else (
                    f"except {ast.unparse(node.type)}"
                )
                findings.append(self._finding(
                    module,
                    node,
                    f"{caught} without a re-raise; narrow the exception, "
                    f"re-raise, or justify with "
                    f"'# repro: allow[REP302] reason'",
                ))
        return findings

    @staticmethod
    def _is_broad(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return True
        if isinstance(annotation, ast.Name):
            return annotation.id in _BROAD_NAMES
        if isinstance(annotation, ast.Tuple):
            return any(
                isinstance(e, ast.Name) and e.id in _BROAD_NAMES
                for e in annotation.elts
            )
        return False


class WorkerGlobalMutation(ProgramRule):
    """REP303: worker entries must not rebind module globals."""

    id = "REP303"
    title = "process-worker entry rebinds a module global"
    rationale = (
        "a forked worker's module globals are copies: 'global x; x = ...' "
        "inside a pool entry mutates worker-private state the parent "
        "never sees, and successive cells on one worker see each other's "
        "leftovers. Pass state through the payload, or key a module-level "
        "cache dict (mutation, not rebinding) when per-worker memoization "
        "is intended."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        findings: List[Finding] = []
        for module in graph.files:
            entries = self._worker_entries(module)
            for node in module.nodes(ast.Global):
                entry = next(
                    (
                        name
                        for name in reversed(module.scope_names(node))
                        if name in entries
                    ),
                    None,
                )
                if entry is None:
                    continue
                findings.append(self._finding(
                    module,
                    node,
                    f"worker entry {entry!r} rebinds module global(s) "
                    f"{', '.join(node.names)}; parent and other workers "
                    f"never see the change — thread state through the "
                    f"payload instead",
                ))
        return findings

    @staticmethod
    def _worker_entries(module: ModuleInfo) -> Set[str]:
        """Names handed to a process pool plus the repo's worker naming
        convention (``_pool_*``/``_worker_*``/``*_worker``)."""
        entries = {
            entry.id
            for _call, entry, _what in _process_entries(module)
            if isinstance(entry, ast.Name)
        }
        defs: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = [
            *module.nodes(ast.FunctionDef),
            *module.nodes(ast.AsyncFunctionDef),
        ]
        for node in defs:
            if node.name.startswith(_WORKER_NAME_PREFIXES) or (
                node.name.endswith(_WORKER_NAME_SUFFIXES)
            ):
                entries.add(node.name)
        return entries


EXECUTOR_RULES = (
    ProcessEntryPicklable(),
    BroadExceptMustReraise(),
    WorkerGlobalMutation(),
)

"""The one index every lint rule reads: modules, functions, call graph.

Every rule is a :class:`ProgramRule` checked once per lint invocation
against one :class:`ProgramGraph`.  The local rules (REP1xx/REP3xx)
walk each module's nodes with its alias-resolved names and ancestor
chain; the REP5xx seed-provenance and REP6xx cache-key-soundness
families also ask questions that span modules — *which function does
this call resolve to*, *who calls this function and with what
arguments*.  This module builds that view once per lint invocation:

* a :class:`ModuleInfo` per parsed file with alias- and import-resolved
  symbol tables (``np.random.default_rng`` and
  ``from repro.utils.rng import spawn_rng as s`` both resolve to their
  canonical dotted origins), a parent map and a node-type index;
* a :class:`FunctionInfo` per function/method — including nested defs —
  with parameter lists, defaults, and the enclosing class;
* a best-effort static call graph: every call site resolved to a
  project :class:`FunctionInfo` where the target is a plain name,
  a dotted module attribute, a ``self.method``, or a class constructor
  (resolved to ``__init__``), plus the reverse (callers) index the
  dataflow pass walks for interprocedural parameter provenance.

Resolution is deliberately conservative: anything dynamic (subscripts,
higher-order dispatch, ``**kwargs`` fan-out) resolves to ``None`` and
downstream analyses treat it as opaque — the rules only flag what the
graph can *prove*, so partial trees and unresolvable calls never create
false positives, only missed findings.
"""

from __future__ import annotations

import ast
import os
import re
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

from repro.lint.findings import Finding

NodeT = TypeVar("NodeT", bound=ast.AST)

#: def/lambda nodes: the scopes a node's enclosing-function chain names
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: path components / basenames that mark a module as test code — the
#: interprocedural families skip tests (literal seeds in fixtures are
#: the point of a test, not a determinism leak)
_TEST_DIR_NAMES = {"tests", "test"}

#: names whose word-parts mark a seed-carrying parameter or attribute
SEED_NAME_RE = re.compile(
    r"(^|_)(seed|seeds|rng|rngs|random_state|seed_sequence)(_|$)|seed",
    re.IGNORECASE,
)


def is_seed_name(name: str) -> bool:
    """Does ``name`` look like it carries a seed or generator?"""
    return bool(SEED_NAME_RE.search(name))


def module_name_for(path: str) -> str:
    """Dotted module name for a source path.

    ``src/repro/fl/client.py`` → ``repro.fl.client`` (everything up to
    and including a ``src`` component is the search root);
    ``pkg/__init__.py`` → ``pkg``.
    """
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    parts = [part for part in parts if part not in (".", "")]
    if not parts:
        return ""
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def is_test_path(path: str) -> bool:
    """Is this file test code (skipped by the interprocedural rules)?"""
    parts = os.path.normpath(path).replace(os.sep, "/").split("/")
    base = parts[-1] if parts else ""
    return (
        any(part in _TEST_DIR_NAMES for part in parts[:-1])
        or base.startswith("test_")
        or base == "conftest.py"
    )


class FunctionInfo:
    """One function, method, or nested def in the program."""

    def __init__(
        self,
        qualname: str,
        node: ast.AST,
        module: "ModuleInfo",
        class_name: Optional[str] = None,
    ) -> None:
        self.qualname = qualname
        self.node = node
        self.module = module
        self.class_name = class_name
        args = node.args
        self.params: List[str] = [
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]
        #: param name → default expression node (positional + kw-only)
        self.defaults: Dict[str, ast.AST] = {}
        positional = [*args.posonlyargs, *args.args]
        for param, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            self.defaults[param.arg] = default
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self.defaults[param.arg] = default

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def is_method(self) -> bool:
        """Instance method (first parameter is the receiver)."""
        if self.class_name is None or not self.params:
            return False
        decorators = getattr(self.node, "decorator_list", [])
        for decorator in decorators:
            if isinstance(decorator, ast.Name) and decorator.id in (
                "staticmethod",
                "classmethod",
            ):
                return self.params[0] == "cls" and decorator.id == "classmethod"
        return self.params[0] in ("self", "cls")

    def positional_params(self) -> List[str]:
        """Parameters as matched against call-site positional args
        (the receiver slot dropped for instance/class methods)."""
        return self.params[1:] if self.is_method else list(self.params)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionInfo({self.qualname})"


class CallSite:
    """One resolved call: who calls, the node, and the callee."""

    def __init__(
        self, caller: Optional[FunctionInfo], node: ast.Call,
        callee: FunctionInfo, module: "ModuleInfo",
    ) -> None:
        self.caller = caller  # None for module-level calls
        self.node = node
        self.callee = callee
        self.module = module

    def argument_for(self, param: str) -> Optional[ast.AST]:
        """The expression passed for ``param``, or ``None`` if omitted
        (or unmappable — splats make every unmatched param unknowable)."""
        for keyword in self.node.keywords:
            if keyword.arg == param:
                return keyword.value
        positional = self.callee.positional_params()
        if param not in positional:
            return None
        index = positional.index(param)
        plain_args = [
            a for a in self.node.args if not isinstance(a, ast.Starred)
        ]
        if len(plain_args) != len(self.node.args):
            return None  # *args splat: positional mapping unknowable
        if index < len(plain_args):
            return plain_args[index]
        return None

    def has_splat(self) -> bool:
        """Does the call forward ``*args``/``**kwargs``?"""
        return any(isinstance(a, ast.Starred) for a in self.node.args) or any(
            keyword.arg is None for keyword in self.node.keywords
        )


class ModuleInfo:
    """One parsed file plus its resolved symbol tables."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.name = module_name_for(path)
        self.is_test = is_test_path(path)
        #: ``import numpy as np`` → {"np": "numpy"}
        self.import_aliases: Dict[str, str] = {}
        #: ``from numpy.random import default_rng as d`` →
        #: {"d": "numpy.random.default_rng"}
        self.from_imports: Dict[str, str] = {}
        #: module-level assignment targets → their value expressions
        self.global_assigns: Dict[str, List[ast.AST]] = {}
        #: name → parent node, for ancestor queries
        self.parents: Dict[ast.AST, ast.AST] = {}
        #: node type → every node of that type, in walk order
        self.by_type: Dict[type, List[ast.AST]] = {}
        self._index()

    def _index(self) -> None:
        for node in ast.walk(self.tree):
            self.by_type.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        for stmt in self.tree.body:
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.global_assigns.setdefault(target.id, []).append(
                            stmt.value
                        )
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self.global_assigns.setdefault(
                        stmt.target.id, []
                    ).append(stmt.value)

    # -- name resolution ---------------------------------------------------
    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Alias-resolved dotted chain for a Name/Attribute expression."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        if head in self.import_aliases:
            head = self.import_aliases[head]
        elif head in self.from_imports:
            head = self.from_imports[head]
        parts.append(head)
        return ".".join(reversed(parts))

    def nodes(self, kind: Type[NodeT]) -> List[NodeT]:
        """Every node of one AST type, in walk order (the local rules'
        walk)."""
        return [
            node
            for node in self.by_type.get(kind, ())
            if isinstance(node, kind)
        ]

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        """The node's ancestor chain, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function_node(self, node: ast.AST) -> Optional[ast.AST]:
        """Innermost enclosing def/lambda node, or ``None``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, SCOPE_NODES):
                return ancestor
        return None

    def scope_names(self, node: ast.AST) -> List[str]:
        """Enclosing def/lambda names, innermost first (a lambda is
        ``"<lambda>"``); empty at module level."""
        return [
            getattr(ancestor, "name", "<lambda>")
            for ancestor in self.ancestors(node)
            if isinstance(ancestor, SCOPE_NODES)
        ]

    def in_class_body_default(self, node: ast.AST) -> bool:
        """Is ``node`` part of a class-attribute default value (e.g. a
        dataclass field default) rather than executable function code?

        Walks out through lambdas only: a literal inside
        ``seeds: X = field(default_factory=lambda: SeedSequence(2025))``
        is a *spec-owned default definition* — the provenance origin —
        not a hidden seed.
        """
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
            if isinstance(ancestor, (ast.Assign, ast.AnnAssign)):
                for outer in self.ancestors(ancestor):
                    if isinstance(outer, ast.ClassDef):
                        return True
                    if isinstance(
                        outer,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                    ):
                        return False
                return False
        return False


class ProgramGraph:
    """The whole-program index every rule rides.

    Built once per lint invocation from every file that parsed; rules
    query modules, functions, resolved call sites, and the reverse
    callers index.
    """

    def __init__(self, files: Sequence[Tuple[str, str, ast.Module]]) -> None:
        #: every parsed file, sorted by path (the rule iteration order)
        self.files: List[ModuleInfo] = sorted(
            (ModuleInfo(path, source, tree) for path, source, tree in files),
            key=lambda m: m.path,
        )
        #: dotted module name → module (name resolution)
        self.modules: Dict[str, ModuleInfo] = {}
        #: qualname → FunctionInfo (methods: ``module.Class.method``)
        self.functions: Dict[str, FunctionInfo] = {}
        #: def/lambda node → FunctionInfo (for enclosing-function lookup)
        self.by_node: Dict[ast.AST, FunctionInfo] = {}
        #: class qualname → {method name → FunctionInfo}
        self.classes: Dict[str, Dict[str, FunctionInfo]] = {}
        for module in self.files:
            self.modules.setdefault(module.name, module)
        for module in self.files:
            self._index_functions(module)
        #: callee qualname → resolved call sites (the reverse index)
        self.callers: Dict[str, List[CallSite]] = {}
        self.call_sites: List[CallSite] = []
        for module in self.files:
            self._index_calls(module)

    # -- construction ------------------------------------------------------
    def _index_functions(self, module: ModuleInfo) -> None:
        def register(
            node: ast.AST, qual_parts: List[str], class_name: Optional[str]
        ) -> None:
            qualname = ".".join(qual_parts)
            info = FunctionInfo(qualname, node, module, class_name=class_name)
            self.functions.setdefault(qualname, info)
            self.by_node[node] = info
            if class_name is not None:
                self.classes.setdefault(
                    ".".join(qual_parts[:-1]), {}
                )[qual_parts[-1]] = info

        def walk(
            body: Iterable[ast.stmt], qual_parts: List[str],
            class_name: Optional[str],
        ) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    parts = [*qual_parts, stmt.name]
                    register(stmt, parts, class_name)
                    walk(stmt.body, parts, None)
                elif isinstance(stmt, ast.ClassDef):
                    walk(stmt.body, [*qual_parts, stmt.name], stmt.name)

        walk(module.tree.body, [module.name] if module.name else [], None)

    def _index_calls(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            enclosing = module.enclosing_function_node(node)
            caller = self.by_node.get(enclosing) if enclosing else None
            callee = self.resolve_call(module, node, caller)
            if callee is None:
                continue
            site = CallSite(caller, node, callee, module)
            self.call_sites.append(site)
            self.callers.setdefault(callee.qualname, []).append(site)

    # -- queries -----------------------------------------------------------
    def resolve_qualname(
        self, module: ModuleInfo, dotted: str
    ) -> Optional[str]:
        """Map an alias-resolved dotted chain onto a project qualname.

        Tries the chain as-is (cross-module reference), then local to
        the module (same-file function/class).  Constructor references
        resolve to the class's ``__init__`` when one is indexed.
        """
        for candidate in (dotted, f"{module.name}.{dotted}"):
            if candidate in self.functions:
                return candidate
            init = f"{candidate}.__init__"
            if candidate in self.classes and init in self.functions:
                return init
        return None

    def resolve_call(
        self,
        module: ModuleInfo,
        call: ast.Call,
        caller: Optional[FunctionInfo] = None,
    ) -> Optional[FunctionInfo]:
        """The project function a call dispatches to, or ``None``.

        ``self.method(...)``/``cls.method(...)`` resolve through the
        caller's enclosing class; everything else through the module
        symbol tables.  Dynamic receivers resolve to ``None``.
        """
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and caller is not None
            and caller.class_name is not None
        ):
            class_qual = caller.qualname.rsplit(".", 1)[0]
            return self.classes.get(class_qual, {}).get(func.attr)
        dotted = module.dotted_name(func)
        if dotted is None:
            return None
        qualname = self.resolve_qualname(module, dotted)
        return self.functions.get(qualname) if qualname else None

    def project_modules(self) -> List[ModuleInfo]:
        """Non-test modules, sorted by path (what the interprocedural
        families check)."""
        return [module for module in self.files if not module.is_test]

    def enclosing_function(
        self, module: ModuleInfo, node: ast.AST
    ) -> Optional[FunctionInfo]:
        """Nearest enclosing *registered* function (lambdas skipped —
        their free names resolve through the enclosing def)."""
        for ancestor in module.ancestors(node):
            info = self.by_node.get(ancestor)
            if info is not None:
                return info
        return None


class ProgramRule:
    """Base class for every lint rule.

    ``check(graph, analysis)`` runs once per lint invocation against the
    :class:`ProgramGraph` plus a shared
    :class:`~repro.lint.dataflow.DataflowAnalysis`, and returns findings
    anchored at real file/line positions — the runner applies each
    file's suppression pragmas to them.  Local rules iterate
    ``graph.files`` (test modules included); the interprocedural
    families iterate ``graph.project_modules()``.
    """

    id: str = ""
    title: str = ""
    rationale: str = ""

    def check(
        self, graph: ProgramGraph, analysis: object
    ) -> List[Finding]:
        raise NotImplementedError

    def _finding(
        self, module: ModuleInfo, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def call_basename(call: ast.Call) -> Optional[str]:
    """The unqualified name a call dispatches through (``np.random.
    default_rng`` → ``default_rng``; dynamic receivers → ``None``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None

"""Value-provenance dataflow over the :mod:`program` graph.

The REP5xx/REP6xx rules need one question answered about an arbitrary
expression: *where could this value have come from?*  The answer is a
small provenance set over four origins:

``SEED``
    derives from a spec-owned seed: a seed-ish parameter or attribute
    (``preset.seed``, ``self.root_seed``, ``seeds``, ``rng``, ...).
``LITERAL``
    a constant written at the use site or a module global that is only
    ever assigned constants.
``WALLCLOCK``
    the result of a wall-clock / entropy call (``time.time``,
    ``datetime.now``, ``os.urandom``, ``uuid.uuid4``, ...).
``OPAQUE``
    anything the analysis cannot prove: unresolved calls, subscripts,
    unknown names, exhausted recursion depth.

Sets union along joins (branches, ``or``-chains, repeated assignment),
and parameters refine *interprocedurally*: a non-seed-named parameter's
provenance is the union of its default value and every resolved call
site's argument, recursing up the reverse call index (memoised,
depth-limited, cycle-guarded).  When no call site resolves — the
function may be called from outside the analyzed tree — ``OPAQUE``
joins the set, so rules that require a *pure* provenance (e.g. REP501
flags only ``{LITERAL}``) stay silent rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .program import FunctionInfo, ModuleInfo, ProgramGraph, is_seed_name

SEED = "SEED"
LITERAL = "LITERAL"
WALLCLOCK = "WALLCLOCK"
OPAQUE = "OPAQUE"

Provenance = FrozenSet[str]

#: dotted call targets whose result is wall-clock / entropy derived
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)

#: builtins that pass their argument's provenance through
_TRANSPARENT_CALLS = frozenset(
    {"int", "float", "abs", "min", "max", "sum", "round", "divmod", "pow"}
)

#: recursion budget for interprocedural parameter refinement
_MAX_DEPTH = 4
#: fixpoint sweeps over a function's assignments (locals referencing
#: locals converge in two; a third catches pathological chains)
_ENV_PASSES = 3


class DataflowAnalysis:
    """Provenance queries against one :class:`ProgramGraph`.

    One instance is shared by every rule in a lint invocation so the
    parameter-refinement and environment memos amortise across rules.
    """

    def __init__(self, graph: ProgramGraph) -> None:
        self.graph = graph
        self._param_memo: Dict[Tuple[str, str], Provenance] = {}
        self._env_memo: Dict[ast.AST, Dict[str, Provenance]] = {}
        self._global_memo: Dict[Tuple[str, str], Provenance] = {}
        self._active_params: Set[Tuple[str, str]] = set()

    # -- public queries ----------------------------------------------------
    def provenance_of(
        self,
        expr: ast.AST,
        module: ModuleInfo,
        function: Optional[FunctionInfo],
        depth: int = _MAX_DEPTH,
    ) -> Provenance:
        """Provenance set for ``expr`` evaluated inside ``function``
        (or at module level when ``function`` is ``None``)."""
        env = self._environment(function) if function is not None else {}
        return self._prov(expr, module, function, env, depth)

    def describe(self, provenance: Provenance) -> str:
        """Human-readable rendering, stable order, for rule messages."""
        order = (SEED, LITERAL, WALLCLOCK, OPAQUE)
        return "{" + ", ".join(t for t in order if t in provenance) + "}"

    # -- environments ------------------------------------------------------
    def _environment(
        self, function: FunctionInfo, depth: int = _MAX_DEPTH
    ) -> Dict[str, Provenance]:
        """Local name → provenance for a function body.

        Monotone union over a few sweeps: each assignment joins its
        value's provenance into the target, so branchy rebinding ends
        up as the union of every reaching definition — conservative in
        exactly the direction the rules need.
        """
        node = function.node
        cached = self._env_memo.get(node)
        if cached is not None:
            return cached
        env: Dict[str, Provenance] = {}
        self._env_memo[node] = env  # pre-publish: cycles see partial env
        body = getattr(node, "body", [])
        statements = body if isinstance(body, list) else [ast.Expr(body)]
        for _ in range(_ENV_PASSES):
            for stmt in statements:
                for sub in ast.walk(stmt):
                    self._env_step(sub, function, env, depth)
        return env

    def _env_step(
        self,
        node: ast.AST,
        function: FunctionInfo,
        env: Dict[str, Provenance],
        depth: int,
    ) -> None:
        module = function.module
        if isinstance(node, ast.Assign):
            value = self._prov(node.value, module, function, env, depth)
            for target in node.targets:
                self._bind(target, value, env)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            value = self._prov(node.value, module, function, env, depth)
            self._bind(node.target, value, env)
        elif isinstance(node, ast.AugAssign):
            value = self._prov(node.value, module, function, env, depth)
            if isinstance(node.target, ast.Name):
                env[node.target.id] = env.get(
                    node.target.id, frozenset()
                ) | value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            value = self._prov(node.iter, module, function, env, depth)
            self._bind(node.target, value, env)
        elif isinstance(node, ast.NamedExpr):
            value = self._prov(node.value, module, function, env, depth)
            self._bind(node.target, value, env)

    @staticmethod
    def _bind(
        target: ast.AST, value: Provenance, env: Dict[str, Provenance]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = env.get(target.id, frozenset()) | value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                DataflowAnalysis._bind(element, value, env)

    # -- the core transfer function ---------------------------------------
    def _prov(
        self,
        expr: ast.AST,
        module: ModuleInfo,
        function: Optional[FunctionInfo],
        env: Dict[str, Provenance],
        depth: int,
    ) -> Provenance:
        if depth <= 0:
            return frozenset({OPAQUE})
        if isinstance(expr, ast.Constant):
            return frozenset({LITERAL})
        if isinstance(expr, ast.Name):
            return self._name_prov(expr.id, module, function, env, depth)
        if isinstance(expr, ast.Attribute):
            return self._attribute_prov(expr, module, function, env, depth)
        if isinstance(expr, (ast.BinOp,)):
            return self._prov(
                expr.left, module, function, env, depth
            ) | self._prov(expr.right, module, function, env, depth)
        if isinstance(expr, ast.UnaryOp):
            return self._prov(expr.operand, module, function, env, depth)
        if isinstance(expr, ast.BoolOp):
            out: Provenance = frozenset()
            for value in expr.values:
                out |= self._prov(value, module, function, env, depth)
            return out
        if isinstance(expr, ast.IfExp):
            return self._prov(
                expr.body, module, function, env, depth
            ) | self._prov(expr.orelse, module, function, env, depth)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out = frozenset()
            for element in expr.elts:
                out |= self._prov(element, module, function, env, depth)
            return out or frozenset({LITERAL})
        if isinstance(expr, ast.Starred):
            return self._prov(expr.value, module, function, env, depth)
        if isinstance(expr, ast.Call):
            return self._call_prov(expr, module, function, env, depth)
        return frozenset({OPAQUE})

    def _name_prov(
        self,
        name: str,
        module: ModuleInfo,
        function: Optional[FunctionInfo],
        env: Dict[str, Provenance],
        depth: int,
    ) -> Provenance:
        local = env.get(name)
        out: Provenance = local or frozenset()
        if function is not None and name in function.params:
            if is_seed_name(name):
                out |= frozenset({SEED})
            else:
                out |= self._param_prov(function, name, depth)
            return out
        if local is not None:
            return out
        if name in module.global_assigns:
            return out | self._global_prov(module, name, depth)
        if is_seed_name(name):
            # a free seed-ish name (closure over an outer seed binding)
            return out | frozenset({SEED})
        return out | frozenset({OPAQUE})

    def _attribute_prov(
        self,
        expr: ast.Attribute,
        module: ModuleInfo,
        function: Optional[FunctionInfo],
        env: Dict[str, Provenance],
        depth: int,
    ) -> Provenance:
        # `preset.seed`, `self.root_seed`, `spec.seeds` — a seed-ish
        # terminal attribute is spec-owned provenance by contract: the
        # spec field-table tests pin spec/preset field definitions.
        if is_seed_name(expr.attr):
            return frozenset({SEED})
        dotted = module.dotted_name(expr)
        if dotted is not None:
            root = dotted.split(".")[0]
            if root in module.global_assigns:
                return frozenset({OPAQUE})
        return frozenset({OPAQUE})

    def _call_prov(
        self,
        expr: ast.Call,
        module: ModuleInfo,
        function: Optional[FunctionInfo],
        env: Dict[str, Provenance],
        depth: int,
    ) -> Provenance:
        dotted = module.dotted_name(expr.func)
        if dotted in WALLCLOCK_CALLS:
            return frozenset({WALLCLOCK})
        if dotted in _TRANSPARENT_CALLS:
            out: Provenance = frozenset()
            for arg in expr.args:
                out |= self._prov(arg, module, function, env, depth)
            return out or frozenset({LITERAL})
        return frozenset({OPAQUE})

    # -- interprocedural refinement ----------------------------------------
    def _param_prov(
        self, function: FunctionInfo, param: str, depth: int
    ) -> Provenance:
        """Provenance of a (non-seed-named) parameter: default value
        joined with every resolved call site's argument."""
        key = (function.qualname, param)
        cached = self._param_memo.get(key)
        if cached is not None:
            return cached
        if key in self._active_params or depth <= 0:
            # recursion cycle / budget exhausted: contribute nothing and
            # let the caller's other sources (or the final OPAQUE
            # fallback) decide
            return frozenset() if key in self._active_params else frozenset(
                {OPAQUE}
            )
        self._active_params.add(key)
        try:
            out: Provenance = frozenset()
            default = function.defaults.get(param)
            if default is not None and not (
                isinstance(default, ast.Constant) and default.value is None
            ):
                out |= self._prov(
                    default, function.module, None, {}, depth - 1
                )
            sites = self.graph.callers.get(function.qualname, ())
            resolved_any = False
            for site in sites:
                if site.has_splat():
                    out |= frozenset({OPAQUE})
                    resolved_any = True
                    continue
                arg = site.argument_for(param)
                if arg is None:
                    # omitted at this site: the default (already joined)
                    # is the reaching value
                    resolved_any = resolved_any or default is not None
                    continue
                caller_env = (
                    self._environment(site.caller, depth - 1)
                    if site.caller is not None
                    else {}
                )
                out |= self._prov(
                    arg, site.module, site.caller, caller_env, depth - 1
                )
                resolved_any = True
            if not resolved_any:
                # no analyzed caller: external callers are unknowable
                out |= frozenset({OPAQUE})
            if not out:
                out = frozenset({OPAQUE})
        finally:
            self._active_params.discard(key)
        self._param_memo[key] = out
        return out

    def _global_prov(
        self, module: ModuleInfo, name: str, depth: int
    ) -> Provenance:
        """Provenance of a module global: union of every top-level
        assignment plus any ``global``-declared rebind in functions."""
        key = (module.name, name)
        cached = self._global_memo.get(key)
        if cached is not None:
            return cached
        self._global_memo[key] = frozenset({OPAQUE})  # cycle backstop
        out: Provenance = frozenset()
        for value in module.global_assigns.get(name, ()):
            out |= self._prov(value, module, None, {}, depth - 1)
        for info in self.graph.functions.values():
            if info.module is not module:
                continue
            declares = any(
                isinstance(sub, ast.Global) and name in sub.names
                for sub in ast.walk(info.node)
            )
            if not declares:
                continue
            for sub in ast.walk(info.node):
                if isinstance(sub, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == name
                    for t in sub.targets
                ):
                    env = self._environment(info, depth - 1)
                    out |= self._prov(
                        sub.value, module, info, env, depth - 1
                    )
        if not out:
            out = frozenset({OPAQUE})
        self._global_memo[key] = out
        return out

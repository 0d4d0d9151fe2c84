"""REP1xx — determinism rules.

Every stochastic component draws from a generator spawned off one root
seed (:mod:`repro.utils.rng`), so experiments are bit-reproducible given
the preset seed.  These rules catch the ways that guarantee silently
leaks: numpy's legacy module-state API, unseeded generators, the stdlib
``random`` module, and wall-clock/OS-entropy or unordered-set iteration
feeding cache keys and state signatures.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple, Union

from repro.lint.findings import Finding
from repro.lint.program import ModuleInfo, ProgramGraph, ProgramRule

#: function names treated as cache-key/signature scope by REP104/REP105:
#: anything a cache key, content hash or state signature flows through.
KEY_SCOPE_RE = re.compile(
    r"(^|_)(key|keys|signature|signatures)($|_)|cache_key|content_hash"
)

#: numpy.random attributes that are *constructors*, not legacy
#: module-state draws — calling these is how seeding is done right
_NUMPY_RANDOM_OK = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: wall-clock / OS-entropy calls that must never feed a cache key or
#: state signature (dotted suffixes after alias resolution)
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)


def _calls(graph: ProgramGraph) -> Iterator[Tuple[ModuleInfo, ast.Call, str]]:
    """Every call in every module (tests included) whose target is a
    plain dotted chain, with that chain alias-resolved."""
    for module in graph.files:
        for node in module.nodes(ast.Call):
            dotted = module.dotted_name(node.func)
            if dotted:
                yield module, node, dotted


def _key_scope(module: ModuleInfo, node: ast.AST) -> Optional[str]:
    """The innermost enclosing def/lambda name when ``node`` sits inside
    a cache-key/signature function, else ``None``."""
    names = module.scope_names(node)
    if any(KEY_SCOPE_RE.search(name) for name in names):
        return names[0]
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """A value that is definitely an unordered set: a set literal, a set
    comprehension, or a direct ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class LegacyNumpyRandom(ProgramRule):
    """REP101: calls into numpy's legacy global-state random API."""

    id = "REP101"
    title = "legacy np.random module-state call"
    rationale = (
        "np.random.rand/seed/choice/... mutate one hidden global stream: "
        "any import-order or thread-schedule change reshuffles every "
        "downstream draw. Use repro.utils.rng.spawn_rng or a seeded "
        "np.random.default_rng(seed)."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        findings: List[Finding] = []
        for module, node, dotted in _calls(graph):
            if not dotted.startswith("numpy.random."):
                continue
            tail = dotted.split(".")[-1]
            if tail not in _NUMPY_RANDOM_OK:
                findings.append(self._finding(
                    module,
                    node,
                    f"legacy numpy.random.{tail}() draws from hidden global "
                    f"state; spawn a seeded Generator instead "
                    f"(repro.utils.rng.spawn_rng)",
                ))
        return findings


class UnseededDefaultRng(ProgramRule):
    """REP102: ``np.random.default_rng()`` with no seed argument."""

    id = "REP102"
    title = "unseeded default_rng()"
    rationale = (
        "default_rng() with no arguments seeds from OS entropy — the one "
        "call that makes a whole federation run unreproducible. Pass a "
        "seed or SeedSequence (repro.utils.rng.fallback_rng for "
        "components built without one)."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        return [
            self._finding(
                module,
                node,
                "default_rng() without a seed draws OS entropy; pass a "
                "seed/SeedSequence (or use repro.utils.rng.fallback_rng)",
            )
            for module, node, dotted in _calls(graph)
            if dotted == "numpy.random.default_rng"
            and not node.args
            and not node.keywords
        ]


class StdlibRandom(ProgramRule):
    """REP103: stdlib ``random`` module usage."""

    id = "REP103"
    title = "stdlib random module call"
    rationale = (
        "random.* shares one process-global Mersenne Twister with every "
        "library in the process; numpy Generators spawned per stream "
        "(repro.utils.rng) are the only sanctioned randomness."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        return [
            self._finding(
                module,
                node,
                f"stdlib {dotted}() uses the process-global twister; use "
                f"a seeded numpy Generator (repro.utils.rng.spawn_rng)",
            )
            for module, node, dotted in _calls(graph)
            if dotted.startswith("random.") and dotted.count(".") == 1
        ]


class WallClockInKeyScope(ProgramRule):
    """REP104: wall-clock/OS-entropy reads inside key/signature scope."""

    id = "REP104"
    title = "wall clock or OS entropy in a cache-key/signature function"
    rationale = (
        "cache keys and state signatures must be pure functions of their "
        "inputs: time.time()/datetime.now()/os.urandom/uuid4 inside one "
        "silently changes the key every run, turning the artifact cache "
        "and resume ledger into a cache-miss generator."
    )

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        findings: List[Finding] = []
        for module, node, dotted in _calls(graph):
            forbidden = next(
                (
                    name
                    for name in sorted(_NONDETERMINISTIC_CALLS)
                    if dotted == name or dotted.endswith(f".{name}")
                ),
                None,
            )
            if forbidden is None:
                continue
            scope = _key_scope(module, node)
            if scope is not None:
                findings.append(self._finding(
                    module,
                    node,
                    f"{forbidden}() inside {scope!r} makes the "
                    f"key/signature time-dependent; derive it from the "
                    f"content being keyed",
                ))
        return findings


class SetIterationInKeyScope(ProgramRule):
    """REP105: unordered-set iteration feeding key/signature scope."""

    id = "REP105"
    title = "unordered set iteration in a cache-key/signature function"
    rationale = (
        "set iteration order is hash-seed and history dependent; a key "
        "or signature built by walking a set differs across processes "
        "with identical inputs. Wrap the set in sorted(...)."
    )

    _JOINERS = ("tuple", "list")

    def check(self, graph: ProgramGraph, analysis: object) -> List[Finding]:
        findings: List[Finding] = []
        for module in graph.files:
            for node, iterated, how in self._iterations(module):
                scope = _key_scope(module, node)
                if scope is not None and _is_set_expr(iterated):
                    findings.append(self._finding(
                        module,
                        iterated,
                        f"{how} iterates a set in {scope!r}; iteration "
                        f"order is not deterministic — use sorted(...)",
                    ))
        return findings

    def _iterations(
        self, module: ModuleInfo
    ) -> Iterator[Tuple[ast.AST, ast.AST, str]]:
        """``(node, iterated expression, how)`` for every for loop,
        list/generator/dict comprehension, and join/tuple/list call."""
        for node in module.nodes(ast.For):
            yield node, node.iter, "for loop"
        comprehensions: List[
            Union[ast.ListComp, ast.GeneratorExp, ast.DictComp]
        ] = [
            *module.nodes(ast.ListComp),
            *module.nodes(ast.GeneratorExp),
            *module.nodes(ast.DictComp),
        ]
        for comp in comprehensions:
            for generator in comp.generators:
                yield comp, generator.iter, "comprehension"
        for node in module.nodes(ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "join") or (
                isinstance(func, ast.Name) and func.id in self._JOINERS
            ):
                for arg in node.args:
                    yield node, arg, "join/cast"


DETERMINISM_RULES = (
    LegacyNumpyRandom(),
    UnseededDefaultRng(),
    StdlibRandom(),
    WallClockInKeyScope(),
    SetIterationInKeyScope(),
)

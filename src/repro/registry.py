"""Unified component registry — every pluggable piece of the package by
(namespace, name).

Frameworks, attacks, aggregation strategies, presets and artefact
drivers used to live in disconnected name→factory dicts
(``attacks/registry.py``, ``baselines/registry.py``, plus ad-hoc preset
and artefact wiring in the CLI).  This module replaces them with one
:class:`Registry` holding typed namespaces:

* ``frameworks``    — comparable localization systems (§II / §V),
* ``attacks``       — data-poisoning attacks (§III.A + extensions),
* ``aggregations``  — server-side aggregation strategies (ablation axis),
* ``presets``       — experiment scales (tiny/fast/fast32/paper),
* ``artefacts``     — paper figures/tables + ablation studies.

Each entry is a :class:`ComponentInfo` carrying the factory plus
metadata: whether the component belongs to the paper set or is an
extension, its default kwargs, the kwarg names it accepts and a one-line
doc — which is what ``repro info`` enumerates and what the spec
validator (:mod:`repro.experiments.specio`) checks names against.

Kwarg validation is **strict**: :meth:`Registry.create` raises
:class:`UnknownComponentKwarg` (with a did-you-mean suggestion) for any
kwarg no component in the sweep set accepts, so a typo like
``num_step=10`` fails instead of being silently dropped.
Kwargs accepted by *some* component of the sweep set but not the target
are still filtered, so drivers can pass one uniform kwargs set across
e.g. all five attacks (``num_classes`` only reaches label flipping).

Out-of-tree components join through :func:`register_plugin` or a
``repro.components`` entry point exposing a ``register(registry)``
callable — once registered they are sweepable, spec-addressable and
listed by ``repro info`` exactly like the built-ins.
"""

from __future__ import annotations

import difflib
import inspect
import logging
import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

logger = logging.getLogger("repro.registry")

NAMESPACES = (
    "frameworks",
    "attacks",
    "aggregations",
    "presets",
    "artefacts",
)

#: entry-point group scanned by :meth:`Registry.load_entry_points`
ENTRY_POINT_GROUP = "repro.components"


class UnknownComponent(KeyError, ValueError):
    """Lookup of a name no component in the namespace answers to.

    Subclasses both ``KeyError`` (the legacy registry-dict contract) and
    ``ValueError`` (the legacy constructor-validation contract) so
    pre-redesign ``except`` clauses keep working.
    """

    def __init__(
        self, namespace: str, name: str, choices: Iterable[str]
    ) -> None:
        choices = sorted(choices)
        message = f"unknown {namespace[:-1]} {name!r}; choices: {choices}"
        suggestion = _did_you_mean(name, choices)
        if suggestion:
            message += f" — did you mean {suggestion!r}?"
        super().__init__(message)
        self.namespace = namespace
        self.name = name

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


class UnknownComponentKwarg(TypeError):
    """A kwarg that no component in the sweep set accepts (likely a typo)."""

    def __init__(
        self,
        namespace: str,
        name: str,
        kwarg: str,
        universe: Iterable[str],
    ) -> None:
        universe = sorted(universe)
        message = (
            f"{namespace[:-1]} {name!r} got unknown kwarg {kwarg!r} "
            f"(accepted by no component in the sweep; known kwargs: "
            f"{universe})"
        )
        suggestion = _did_you_mean(kwarg, universe)
        if suggestion:
            message += f" — did you mean {suggestion!r}?"
        super().__init__(message)
        self.kwarg = kwarg


def _did_you_mean(word: str, choices: Iterable[str]) -> Optional[str]:
    matches = difflib.get_close_matches(word, list(choices), n=1, cutoff=0.6)
    return matches[0] if matches else None


def _signature_kwargs(factory: Callable) -> Tuple[Dict[str, object], bool]:
    """(defaulted-kwarg → default, accepts **kwargs) for a factory.

    Classes are inspected through ``__init__``; positional-only and
    no-default parameters (the required construction arguments such as
    ``epsilon`` or ``input_dim``) are not part of the kwarg surface.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without signatures
        return {}, True
    defaults: Dict[str, object] = {}
    open_kwargs = False
    for parameter in signature.parameters.values():
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            open_kwargs = True
        elif (
            parameter.kind
            in (
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                inspect.Parameter.KEYWORD_ONLY,
            )
            and parameter.default is not inspect.Parameter.empty
        ):
            defaults[parameter.name] = parameter.default
    return defaults, open_kwargs


def _signature_surface(
    factory: Callable,
) -> Tuple[FrozenSet[str], FrozenSet[str], bool]:
    """(all parameter names, defaulted names, takes ``**kwargs``) for a
    factory — what :func:`_info_problems` compares metadata against."""
    target = factory
    if inspect.isclass(factory):
        target = factory.__init__
    try:
        signature = inspect.signature(target)
    except (TypeError, ValueError):  # builtins without signatures
        return frozenset(), frozenset(), True
    names: Set[str] = set()
    defaulted: Set[str] = set()
    open_kwargs = False
    for parameter in signature.parameters.values():
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            open_kwargs = True
        elif parameter.kind == inspect.Parameter.VAR_POSITIONAL:
            continue
        else:
            names.add(parameter.name)
            if parameter.default is not inspect.Parameter.empty:
                defaulted.add(parameter.name)
    names.discard("self")
    return frozenset(names), frozenset(defaulted), open_kwargs


def _info_problems(info: "ComponentInfo") -> List[str]:
    """Contract discrepancies for one registered component (REP201)."""
    where = f"{info.namespace}/{info.name}"
    if not callable(info.factory):
        return [f"{where}: registered factory is not callable"]
    problems: List[str] = []
    params, defaulted, takes_kwargs = _signature_surface(info.factory)
    # every declared default must be a kwarg create() can actually pass
    for kwarg in sorted(info.defaults):
        if not info.accepts_kwarg(kwarg):
            problems.append(
                f"{where}: declared default {kwarg!r} is outside the "
                f"accepted-kwarg set — create() filters it out before "
                f"the factory ever sees it"
            )
    if not takes_kwargs:
        # a closed factory signature must honor every advertised kwarg:
        # extra_kwargs naming parameters the factory lost raise
        # TypeError at construction time
        for kwarg in sorted(info.accepts - params):
            problems.append(
                f"{where}: accepted kwarg {kwarg!r} is not a parameter "
                f"of the factory (and it takes no **kwargs) — passing "
                f"it raises TypeError at sweep time"
            )
        # signature drift: a factory kwarg with a default that
        # registration never declared is invisible to spec validation
        for kwarg in sorted(defaulted - info.accepts):
            problems.append(
                f"{where}: factory kwarg {kwarg!r} has a default but is "
                f"missing from the accepted-kwarg set — specs setting "
                f"it are rejected as typos"
            )
    return problems


@dataclass(frozen=True)
class ComponentInfo:
    """One registered component and its metadata.

    Attributes:
        namespace: Registry namespace the component lives in.
        name: Public name (what specs, the CLI and sweeps address).
        factory: Builds the component (class or function).
        paper: True for the paper's component set, False for extensions.
        doc: One-line description (``repro info`` output).
        defaults: Default kwargs as read off the factory signature (or
            overridden at registration).
        accepts: Every kwarg name the factory accepts.
        open_kwargs: Factory takes ``**kwargs`` beyond ``accepts`` (its
            kwarg surface is open; strict filtering passes everything).
        supports_batched_clients: For frameworks — whether the stock
            model exposes a fold-batch program, so ``client_engine=
            "batched"`` stacks its local training instead of falling back
            to the serial per-client loop.  ``None`` means undeclared
            (plugins that never said either way).
    """

    namespace: str
    name: str
    factory: Callable
    paper: bool = True
    doc: str = ""
    defaults: Dict[str, object] = field(default_factory=dict)
    accepts: frozenset = frozenset()
    open_kwargs: bool = False
    supports_batched_clients: Optional[bool] = None

    def accepts_kwarg(self, kwarg: str) -> bool:
        return self.open_kwargs or kwarg in self.accepts


class Registry:
    """Typed multi-namespace component registry.

    Thread-safe for registration and lookup; one process-global instance
    (:data:`registry`) backs the whole package, but independent
    instances can be built for tests.
    """

    def __init__(self, namespaces: Tuple[str, ...] = NAMESPACES) -> None:
        self._lock = threading.RLock()
        self._components: Dict[str, Dict[str, ComponentInfo]] = {
            namespace: {} for namespace in namespaces
        }
        self._populated: Set[str] = set()
        self._entry_points_loaded = False

    # -- registration ------------------------------------------------------
    def register(
        self,
        namespace: str,
        name: str,
        *,
        paper: bool = True,
        doc: Optional[str] = None,
        defaults: Optional[Dict[str, object]] = None,
        extra_kwargs: Optional[Tuple[str, ...]] = None,
        replace: bool = False,
        supports_batched_clients: Optional[bool] = None,
    ) -> Callable[[Callable], Callable]:
        """Decorator registering ``factory`` as ``namespace/name``.

        ``extra_kwargs`` (any non-``None`` value, empty included) names
        the kwargs a ``**kwargs`` factory forwards to an inner component
        (e.g. SAFELOC's strategy knobs), closing its kwarg surface so
        typos are caught instead of passed through.  ``doc`` defaults to
        the factory docstring's first line.
        """

        def decorator(factory: Callable) -> Callable:
            self.add(
                namespace,
                name,
                factory,
                paper=paper,
                doc=doc,
                defaults=defaults,
                extra_kwargs=extra_kwargs,
                replace=replace,
                supports_batched_clients=supports_batched_clients,
            )
            return factory

        return decorator

    def add(
        self,
        namespace: str,
        name: str,
        factory: Callable,
        *,
        paper: bool = True,
        doc: Optional[str] = None,
        defaults: Optional[Dict[str, object]] = None,
        extra_kwargs: Optional[Tuple[str, ...]] = None,
        replace: bool = False,
        supports_batched_clients: Optional[bool] = None,
    ) -> ComponentInfo:
        """Imperative registration (what the decorator delegates to)."""
        space = self._space(namespace)
        sig_defaults, open_kwargs = _signature_kwargs(factory)
        if extra_kwargs is not None:
            # the forwarded kwargs are now enumerated: close the surface
            open_kwargs = False
        else:
            extra_kwargs = ()
        if doc is None:
            doc = (inspect.getdoc(factory) or "").split("\n", 1)[0].strip()
        info = ComponentInfo(
            namespace=namespace,
            name=name,
            factory=factory,
            paper=paper,
            doc=doc,
            defaults=dict(defaults if defaults is not None else sig_defaults),
            accepts=frozenset((*sig_defaults, *extra_kwargs)),
            open_kwargs=open_kwargs,
            supports_batched_clients=supports_batched_clients,
        )
        with self._lock:
            if name in space and not replace:
                raise ValueError(
                    f"{namespace}/{name} is already registered; pass "
                    f"replace=True to override"
                )
            space[name] = info
        return info

    def load_entry_points(self) -> int:
        """Discover out-of-tree components once per process.

        Scans the :data:`ENTRY_POINT_GROUP` entry-point group; each
        entry point must resolve to a callable taking this registry
        (``def register(registry): ...``).  Returns the number of entry
        points invoked; environments without ``importlib.metadata``
        entry-point support simply discover nothing.
        """
        with self._lock:
            if self._entry_points_loaded:
                return 0
            self._entry_points_loaded = True
        try:
            from importlib import metadata
        except ImportError:  # pragma: no cover - py3.7 fallback
            return 0
        try:
            points = metadata.entry_points()
            if hasattr(points, "select"):  # py3.10+
                points = points.select(group=ENTRY_POINT_GROUP)
            else:  # pragma: no cover - legacy mapping API
                points = points.get(ENTRY_POINT_GROUP, [])  # type: ignore[attr-defined,unused-ignore]
        # repro: allow[REP302] malformed third-party dist metadata must not break registry access
        except Exception:  # pragma: no cover - malformed metadata
            return 0
        count = 0
        for point in points:
            # a broken third-party plugin must degrade to a warning, not
            # take down every first registry access in the process
            try:
                hook = point.load()
                hook(self)
            # repro: allow[REP302] broken plugin degrades to a logged warning, not a crash
            except Exception:
                logger.warning(
                    "repro.components entry point %r failed to register; "
                    "skipping it", getattr(point, "name", point),
                    exc_info=True,
                )
                continue
            count += 1
        return count

    # -- lookup ------------------------------------------------------------
    def _space(self, namespace: str) -> Dict[str, ComponentInfo]:
        try:
            return self._components[namespace]
        except KeyError:
            raise UnknownComponent(
                "namespaces", namespace, self._components
            ) from None

    def _populated_space(self, namespace: str) -> Dict[str, ComponentInfo]:
        space = self._space(namespace)
        # population is tracked per namespace, NOT inferred from
        # emptiness: a plugin registering early must not suppress the
        # built-in imports (flag set only after they succeed)
        with self._lock:
            populated = namespace in self._populated
        if not populated:
            _populate(self, namespace)
            with self._lock:
                self._populated.add(namespace)
        if self is registry:
            # after the built-ins: a plugin can never beat a built-in to
            # a name, and a colliding plugin fails loudly instead
            self.load_entry_points()
        return space

    def get(self, namespace: str, name: str) -> ComponentInfo:
        """The registered component, or :class:`UnknownComponent`."""
        space = self._populated_space(namespace)
        with self._lock:
            if name not in space:
                raise UnknownComponent(namespace, name, space)
            return space[name]

    def has(self, namespace: str, name: str) -> bool:
        return name in self._populated_space(namespace)

    def names(
        self, namespace: str, paper: Optional[bool] = None
    ) -> Tuple[str, ...]:
        """Component names in registration order (``paper`` filters)."""
        space = self._populated_space(namespace)
        with self._lock:
            return tuple(
                name
                for name, info in space.items()
                if paper is None or info.paper == paper
            )

    def components(self, namespace: str) -> Tuple[ComponentInfo, ...]:
        """All components of a namespace, sorted by name (stable output
        for ``repro info``)."""
        space = self._populated_space(namespace)
        with self._lock:
            return tuple(space[name] for name in sorted(space))

    # -- construction ------------------------------------------------------
    def accepted_kwargs(
        self, namespace: str, names: Optional[Iterable[str]] = None
    ) -> frozenset:
        """Union of kwarg names accepted across a component set
        (default: the whole namespace)."""
        if names is None:
            names = self.names(namespace)
        accepted: Set[str] = set()
        for name in names:
            accepted |= self.get(namespace, name).accepts
        return frozenset(accepted)

    def validate_kwargs(
        self,
        namespace: str,
        name: str,
        kwargs: Dict[str, object],
        sweep: Optional[Iterable[str]] = None,
    ) -> None:
        """Raise :class:`UnknownComponentKwarg` for any kwarg accepted by
        no component of the sweep set (default: the whole namespace)."""
        info = self.get(namespace, name)
        unknown = [k for k in kwargs if not info.accepts_kwarg(k)]
        if not unknown:
            return
        universe = self.accepted_kwargs(namespace, sweep)
        for kwarg in unknown:
            if kwarg not in universe:
                raise UnknownComponentKwarg(namespace, name, kwarg, universe)

    # -- contract introspection (the `repro lint` REP201 hook) -------------
    def contract_problems(self) -> "List[str]":
        """Registration metadata inconsistent with factory signatures.

        :meth:`create` filters kwargs to ``ComponentInfo.accepts`` before
        calling the factory, so metadata that disagrees with the live
        signature surfaces as a ``TypeError`` (or a silently dropped
        knob) at sweep time.  This hook re-derives each factory's
        signature and reports every discrepancy as one message —
        ``repro lint`` (REP201) turns them into findings.
        """
        problems: List[str] = []
        with self._lock:
            namespaces = tuple(self._components)
        for namespace in namespaces:
            for info in self.components(namespace):
                problems.extend(_info_problems(info))
        return problems

    def create(
        self,
        namespace: str,
        name: str,
        *args: Any,
        sweep: Optional[Iterable[str]] = None,
        **kwargs: Any,
    ) -> Any:
        """Build ``namespace/name`` with validated kwargs.

        Kwargs the target does not accept but another component of the
        sweep set does are filtered out (uniform kwargs across a sweep);
        kwargs nobody accepts raise.
        """
        info = self.get(namespace, name)
        self.validate_kwargs(namespace, name, kwargs, sweep=sweep)
        if not info.open_kwargs:
            kwargs = {k: v for k, v in kwargs.items() if k in info.accepts}
        return info.factory(*args, **kwargs)


#: the process-global registry every shim and the facade share
registry = Registry()


def register(namespace: str, name: str, **meta: Any) -> Callable:
    """``@register("frameworks", "safeloc")`` on the global registry."""
    return registry.register(namespace, name, **meta)


def register_plugin(
    namespace: str, name: str, factory: Callable, **meta: Any
) -> ComponentInfo:
    """Register an out-of-tree component on the global registry.

    The public plugin hook: once registered the component is
    constructible by name everywhere built-ins are — sweep specs, the
    :mod:`repro.api` facade, the CLI and ``repro info``.  Plugins are
    extensions by default (``paper=False``): the paper component sets
    (``COMPARISON_FRAMEWORKS``, ``PAPER_ATTACKS``, ``repro experiment
    all``) are fixed by the paper, so a plugin never joins them just by
    being installed.  Built-in names cannot be taken: registering over
    one raises ``ValueError``.
    """
    meta.setdefault("paper", False)
    return registry.add(namespace, name, factory, **meta)


def _populate(target: Registry, namespace: str) -> None:
    """Lazily import the modules that register a namespace's built-ins.

    Registration lives next to the components (their modules call
    :func:`register`/``registry.add`` at import); this hook only makes
    sure those modules are imported the first time an empty namespace is
    queried, so ``repro.registry`` never has to import the heavy
    packages up front.  Entry-point plugins are discovered afterwards,
    on the first populated query (:meth:`Registry._populated_space`).
    """
    if target is not registry:  # test registries populate themselves
        return
    import importlib

    modules = {
        "frameworks": ("repro.baselines.registry",),
        "attacks": ("repro.attacks.registry",),
        "aggregations": ("repro.experiments.engine",),
        "presets": ("repro.experiments.scenarios",),
        "artefacts": ("repro.experiments.artefact_registry",),
    }
    for module in modules.get(namespace, ()):
        importlib.import_module(module)

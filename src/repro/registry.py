"""Unified component registry — every built-in piece of the package by
(namespace, name).

Frameworks, attacks, aggregation strategies, presets and artefact
drivers live in one :class:`Registry` holding typed namespaces:

* ``frameworks``    — comparable localization systems (§II / §V),
* ``attacks``       — data-poisoning attacks (§III.A + extensions),
* ``aggregations``  — server-side aggregation strategies (ablation axis),
* ``presets``       — experiment scales (tiny/fast/fast32/paper),
* ``artefacts``     — paper figures/tables + ablation studies.

Each entry is a :class:`ComponentInfo` carrying the factory plus
metadata: whether the component belongs to the paper set or is an
extension, its default kwargs, the kwarg names it accepts and a one-line
doc — which is what ``repro info`` enumerates and what the spec
validator (:mod:`repro.experiments.specio`) checks names against.  The
component sets are the paper's and fixed: the five modules listed in
:func:`_populate` register them when a namespace is first queried.

Kwarg validation is **strict**: :meth:`Registry.create` raises
:class:`UnknownComponentKwarg` (with a did-you-mean suggestion) for any
kwarg no component in the sweep set accepts, so a typo like
``num_step=10`` fails instead of being silently dropped.
Kwargs accepted by *some* component of the sweep set but not the target
are still filtered, so drivers can pass one uniform kwargs set across
e.g. all five attacks (``num_classes`` only reaches label flipping).
"""

from __future__ import annotations

import difflib
import importlib
import inspect
from dataclasses import dataclass
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

NAMESPACES = (
    "frameworks",
    "attacks",
    "aggregations",
    "presets",
    "artefacts",
)


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
        super().__init__(
            f"unknown {namespace[:-1]} {name!r}; choices: {choices}"
            + _did_you_mean(name, choices)
        )
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
        super().__init__(
            f"{namespace[:-1]} {name!r} got unknown kwarg {kwarg!r} "
            f"(accepted by no component in the sweep; known kwargs: "
            f"{universe})" + _did_you_mean(kwarg, universe)
        )
        self.kwarg = kwarg


def _did_you_mean(word: str, choices: Iterable[str]) -> str:
    """`` — did you mean 'x'?`` for a close match in ``choices``, else
    ``""``: the suffix every unknown-name message ends with."""
    matches = difflib.get_close_matches(word, list(choices), n=1, cutoff=0.6)
    return f" — did you mean {matches[0]!r}?" if matches else ""


def _signature(
    factory: Callable,
) -> Tuple[FrozenSet[str], Dict[str, object], bool]:
    """(parameter names, defaulted parameter → default, takes
    ``**kwargs``) for a factory.

    Classes are read through ``__init__`` (without ``self``).  The
    defaulted parameters are the factory's kwarg surface; the ones
    without a default (the required construction arguments such as
    ``epsilon`` or ``input_dim``) are not.  A factory without a readable
    signature reports an empty surface that takes ``**kwargs``.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # not callable, or no signature
        return frozenset(), {}, True
    names: Set[str] = set()
    defaults: Dict[str, object] = {}
    takes_kwargs = False
    for parameter in signature.parameters.values():
        if parameter.kind == inspect.Parameter.VAR_KEYWORD:
            takes_kwargs = True
        elif parameter.kind != inspect.Parameter.VAR_POSITIONAL:
            names.add(parameter.name)
            if parameter.default is not inspect.Parameter.empty:
                defaults[parameter.name] = parameter.default
    return frozenset(names), defaults, takes_kwargs


def _info_problems(info: "ComponentInfo") -> List[str]:
    """Contract discrepancies for one registered component."""
    where = f"{info.namespace}/{info.name}"
    if not callable(info.factory):
        return [f"{where}: registered factory is not callable"]
    params, _, takes_kwargs = _signature(info.factory)
    if takes_kwargs:
        return []
    # a closed factory signature must honor every advertised kwarg:
    # extra_kwargs naming parameters the factory lost raise TypeError
    # at construction time
    return [
        f"{where}: accepted kwarg {kwarg!r} is not a parameter of the "
        f"factory (and it takes no **kwargs) — passing it raises "
        f"TypeError at sweep time"
        for kwarg in sorted(info.accepts - params)
    ]


@dataclass(frozen=True)
class ComponentInfo:
    """One registered component and its metadata.

    Attributes:
        namespace: Registry namespace the component lives in.
        name: Public name (what specs, the CLI and sweeps address).
        factory: Builds the component (class or function).
        paper: True for the paper's component set, False for extensions.
        doc: One-line description (``repro info`` output).
        defaults: Default kwargs as read off the factory signature.
        accepts: Every kwarg name the factory accepts: its defaulted
            parameters plus the ``extra_kwargs`` it forwards.
    """

    namespace: str
    name: str
    factory: Callable
    paper: bool
    doc: str
    defaults: Dict[str, object]
    accepts: FrozenSet[str]


class Registry:
    """Typed multi-namespace component registry.

    One process-global instance (:data:`registry`) backs the whole
    package; independent instances can be built for tests.
    """

    def __init__(self, namespaces: Tuple[str, ...] = NAMESPACES) -> None:
        self._components: Dict[str, Dict[str, ComponentInfo]] = {
            namespace: {} for namespace in namespaces
        }
        self._populated: Set[str] = set()

    def add(
        self,
        namespace: str,
        name: str,
        factory: Callable,
        *,
        paper: bool = True,
        doc: str = "",
        extra_kwargs: Tuple[str, ...] = (),
    ) -> ComponentInfo:
        """Register ``factory`` as ``namespace/name``.

        ``extra_kwargs`` names the kwargs a ``**kwargs`` factory forwards
        to an inner component (e.g. SAFELOC's strategy knobs), so they
        validate like the factory's own.
        """
        space = self._space(namespace)
        if name in space:
            raise ValueError(f"{namespace}/{name} is already registered")
        _, defaults, _ = _signature(factory)
        info = space[name] = ComponentInfo(
            namespace=namespace,
            name=name,
            factory=factory,
            paper=paper,
            doc=doc,
            defaults=defaults,
            accepts=frozenset((*defaults, *extra_kwargs)),
        )
        return info

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
        if namespace not in self._populated:
            _populate(self, namespace)
            self._populated.add(namespace)
        return space

    def get(self, namespace: str, name: str) -> ComponentInfo:
        """The registered component, or :class:`UnknownComponent`."""
        space = self._populated_space(namespace)
        if name not in space:
            raise UnknownComponent(namespace, name, space)
        return space[name]

    def has(self, namespace: str, name: str) -> bool:
        return name in self._populated_space(namespace)

    def names(
        self, namespace: str, paper: Optional[bool] = None
    ) -> Tuple[str, ...]:
        """Component names in registration order (``paper`` filters)."""
        return tuple(
            name
            for name, info in self._populated_space(namespace).items()
            if paper is None or info.paper == paper
        )

    def components(self, namespace: str) -> Tuple[ComponentInfo, ...]:
        """All components of a namespace, sorted by name (stable output
        for ``repro info``)."""
        space = self._populated_space(namespace)
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
        unknown = [k for k in kwargs if k not in info.accepts]
        if not unknown:
            return
        universe = self.accepted_kwargs(namespace, sweep)
        for kwarg in unknown:
            if kwarg not in universe:
                raise UnknownComponentKwarg(namespace, name, kwarg, universe)

    # -- contract introspection --------------------------------------------
    def contract_problems(self) -> "List[str]":
        """Registration metadata inconsistent with factory signatures.

        :meth:`create` filters kwargs to ``ComponentInfo.accepts`` before
        calling the factory, so an accepted kwarg the factory cannot take
        surfaces as a ``TypeError`` at sweep time.  This hook re-reads
        each factory's signature and reports every discrepancy as one
        message; ``tests/test_registry.py`` asserts the list is empty.
        """
        problems: List[str] = []
        for namespace in self._components:
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
        kwargs = {k: v for k, v in kwargs.items() if k in info.accepts}
        return info.factory(*args, **kwargs)


#: the process-global registry every shim and the facade share
registry = Registry()

#: the module that registers each namespace's built-ins at import
_BUILTIN_MODULES = {
    "frameworks": "repro.baselines.registry",
    "attacks": "repro.attacks.registry",
    "aggregations": "repro.experiments.engine",
    "presets": "repro.experiments.scenarios",
    "artefacts": "repro.experiments.artefact_registry",
}


def _populate(target: Registry, namespace: str) -> None:
    """Lazily import the module that registers a namespace's built-ins.

    Registration lives next to the components (their modules call
    ``registry.add`` at import); this hook only makes sure that module
    is imported the first time the namespace is queried, so
    ``repro.registry`` never has to import the heavy packages up front.
    """
    if target is registry:  # test registries populate themselves
        importlib.import_module(_BUILTIN_MODULES[namespace])

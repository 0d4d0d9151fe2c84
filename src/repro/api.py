"""Public library facade — everything the CLI can do, as Python calls.

The package's stable entry points, one import away::

    import repro.api as api

    # fluent artefact runs (what ``repro experiment fig6`` does)
    result = (
        api.experiment("fig6")
        .preset("fast")
        .frameworks("safeloc", "fedloc")
        .jobs(4)
        .cache("~/.cache/repro")
        .run()
    )
    print(result.format_report())

    # sweeps as data: save, diff, validate, re-run bit-identically
    api.experiment("fig5").preset("tiny").save_spec("fig5.json")
    result = api.run_spec("fig5.json")

    # one federation, structured result
    cell = api.run_single("safeloc", attack="fgsm", preset="tiny")

Every run returns structured result objects (the artefact result types
with ``format_report()`` plus their underlying
:class:`~repro.experiments.engine.SweepResult`), never printed tables;
printing is the CLI's job (:mod:`repro.cli` is a thin shell over this
module).  Component names resolve through the unified registry
(:mod:`repro.registry`) of the paper's built-in components.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Union

from repro.experiments.artefact_registry import (
    ABLATION_ARTEFACTS,
    PAPER_ARTEFACTS,
    ArtefactDriver,
    find_collector,
)
from repro.experiments.engine import (
    CellResult,
    SweepEngine,
    SweepPlan,
    SweepResult,
    scenario,
)
from repro.experiments.scenarios import Preset, get_preset
from repro.experiments.scheduler import (
    ENGINE_KNOBS,
    EngineConfigError,
    SweepInterrupted,
    engine_problems,
)
from repro.experiments.specio import (
    SpecValidationError,
    load_payload,
    load_plan,
    payload_to_json,
    save_payload,
    validate_plan_payload,
)
from repro.fl.server import CLIENT_ENGINES
from repro.registry import NAMESPACES, registry
from repro.utils.tables import format_table

__all__ = [
    "ABLATION_ARTEFACTS",
    "PAPER_ARTEFACTS",
    "CellResult",
    "ExperimentBuilder",
    "SpecValidationError",
    "SweepInterrupted",
    "experiment",
    "ablation",
    "format_sweep_table",
    "info",
    "run_single",
    "run_spec",
    "validate_spec",
]


class ExperimentBuilder:
    """Fluent, immutable-input builder for one artefact run.

    Each setter returns ``self`` so calls chain; nothing executes until
    :meth:`run` (or :meth:`plan` / :meth:`save_spec`, which only build
    the declarative sweep).  Unknown artefact, preset, framework and
    attack names fail fast with a did-you-mean suggestion.
    """

    def __init__(self, artefact: str):
        registry.get("artefacts", artefact)  # fail fast, with suggestion
        self._artefact = artefact
        self._preset: Union[str, Preset] = "fast"
        self._seed: Optional[int] = None
        self._overrides: Dict[str, object] = {}
        self._options: Dict[str, object] = {}
        #: the scheduling knobs set so far (``None`` unsets one)
        self._knobs: Dict[str, object] = {}
        self._cache_dir: Optional[str] = None
        self._resume = False
        self._engine: Optional[SweepEngine] = None

    # -- scenario shape ----------------------------------------------------
    def preset(self, preset: Union[str, Preset]) -> "ExperimentBuilder":
        """Preset by registered name, or a ready :class:`Preset`."""
        if isinstance(preset, str):
            registry.get("presets", preset)
        self._preset = preset
        return self

    def seed(self, seed: int) -> "ExperimentBuilder":
        self._seed = int(seed)
        return self

    def frameworks(self, *names: str) -> "ExperimentBuilder":
        """Restrict a comparison artefact to these frameworks (only
        artefacts whose plan takes a framework set accept this)."""
        for name in names:
            registry.get("frameworks", name)
        self._options["frameworks"] = tuple(names)
        return self

    def attacks(self, *names: str) -> "ExperimentBuilder":
        """Override the preset's attack sweep."""
        for name in names:
            registry.get("attacks", name)
        self._overrides["attacks"] = tuple(names)
        return self

    def buildings(self, *names: str) -> "ExperimentBuilder":
        """Override the preset's building set."""
        self._overrides["buildings"] = tuple(names)
        return self

    def epsilons(self, *values: float) -> "ExperimentBuilder":
        """Override the preset's ε grid (Fig. 5)."""
        self._overrides["epsilon_grid"] = tuple(float(v) for v in values)
        return self

    def taus(self, *values: float) -> "ExperimentBuilder":
        """Override the preset's τ grid (Fig. 4)."""
        self._overrides["tau_grid"] = tuple(float(v) for v in values)
        return self

    def override(self, **fields) -> "ExperimentBuilder":
        """Override arbitrary :class:`Preset` fields (escape hatch)."""
        self._overrides.update(fields)
        return self

    def client_engine(self, engine: str) -> "ExperimentBuilder":
        """Client execution engine per federation round: ``"serial"``
        (each model's training program run client by client) or
        ``"batched"`` (the same programs with the cohort stacked on one
        fold axis, see :mod:`repro.fl.batched_round`); both engines are
        bit-identical at float64."""
        if engine not in CLIENT_ENGINES:
            raise ValueError(
                f"client_engine must be one of {CLIENT_ENGINES}, "
                f"got {engine!r}"
            )
        self._overrides["client_engine"] = engine
        return self

    # -- execution shape ---------------------------------------------------
    # the scheduling knobs of repro.experiments.scheduler.EngineConfig
    # (documented there), each checked when set
    def _knob(self, name: str, value: object) -> "ExperimentBuilder":
        """Set one scheduling knob; ``None`` unsets it."""
        if value is None:
            self._knobs.pop(name, None)
            return self
        problems = engine_problems({name: value})
        if problems:
            raise EngineConfigError(problems[0])
        self._knobs[name] = value
        return self

    def jobs(self, jobs: Optional[int]) -> "ExperimentBuilder":
        """Run sweep cells on N workers (bit-identical to sequential)."""
        return self._knob("jobs", jobs)

    def executor(self, executor: Optional[str]) -> "ExperimentBuilder":
        """``"serial"`` (cells inline) or ``"process"`` (a pool of
        :meth:`jobs` workers); unset, ``jobs > 1`` selects process."""
        return self._knob("executor", executor)

    def cache(self, cache_dir: Optional[str]) -> "ExperimentBuilder":
        """Persist data/pre-train artifacts and finished cells here."""
        self._cache_dir = cache_dir
        return self

    def resume(self, resume: bool = True) -> "ExperimentBuilder":
        """Skip cells already finished in the cache dir."""
        self._resume = bool(resume)
        return self

    def cell_timeout(self, seconds: Optional[float]) -> "ExperimentBuilder":
        """Per-cell wall-clock budget in seconds (process executor)."""
        return self._knob("cell_timeout", seconds)

    def retries(self, retries: Optional[int]) -> "ExperimentBuilder":
        """Re-dispatches per cell after an exception, timeout or crash."""
        return self._knob("retries", retries)

    def on_error(self, mode: Optional[str]) -> "ExperimentBuilder":
        """``"abort"`` (default) or ``"continue"`` once a cell's retries
        are exhausted."""
        return self._knob("on_error", mode)

    def engine(self, engine: Optional[SweepEngine]) -> "ExperimentBuilder":
        """Run on an existing engine (shares its artifact cache);
        overrides the scheduling knobs, :meth:`cache` and :meth:`resume`."""
        self._engine = engine
        return self

    # -- materialization ---------------------------------------------------
    def build_preset(self) -> Preset:
        """The preset this builder resolves to, overrides applied."""
        if isinstance(self._preset, Preset):
            preset = self._preset
            if self._seed is not None:
                preset = replace(preset, seed=self._seed)
        else:
            preset = get_preset(
                self._preset, seed=42 if self._seed is None else self._seed
            )
        if self._overrides:
            # through the spec-file conversion: ints in float fields
            # become floats, a misspelt field gets a did-you-mean error
            preset = Preset.from_dict({**preset.to_dict(), **self._overrides})
        return preset

    def build_engine(self) -> SweepEngine:
        """The engine this builder's run would use."""
        if self._engine is not None:
            return self._engine
        return SweepEngine(
            cache_dir=self._cache_dir, resume=self._resume, **self._knobs
        )

    def plan(self) -> SweepPlan:
        """The declarative sweep this builder describes (nothing runs)."""
        return registry.create(
            "artefacts",
            self._artefact,
            self.build_preset(),
            sweep=(self._artefact,),
            **self._options,
        )

    def spec(self) -> Dict[str, object]:
        """The sweep as its versioned JSON-native payload.

        The scheduling knobs set on the builder ride along in an
        optional ``engine`` block, which :func:`run_spec` uses as
        defaults — so a saved spec replays with the scheduling and
        failure policy it was authored with.  Unset knobs emit no
        block (golden specs stay byte-stable).
        """
        payload = self.plan().to_dict()
        if self._knobs:
            payload["engine"] = {
                name: self._knobs[name]
                for name in ENGINE_KNOBS
                if name in self._knobs
            }
        return payload

    def to_json(self) -> str:
        """The sweep as pretty-printed spec-file JSON."""
        return payload_to_json(self.spec())

    def save_spec(self, path: str) -> SweepPlan:
        """Write the sweep as a spec file; returns the plan."""
        plan = self.plan()
        save_payload(self.spec(), path)
        return plan

    def run(self):
        """Build the plan, execute it, and collect the artefact result
        (``format_report()`` + ``.sweep``)."""
        driver: ArtefactDriver = registry.get(
            "artefacts", self._artefact
        ).factory
        return driver.run_plan(self.plan(), engine=self.build_engine())


def experiment(artefact: str) -> ExperimentBuilder:
    """Fluent builder for a paper artefact (``fig1`` … ``table1``) or an
    ablation artefact (``ablation-*``)."""
    return ExperimentBuilder(artefact)


def ablation(axis: str) -> ExperimentBuilder:
    """Fluent builder for an ablation study by CLI axis name
    (``aggregation``, ``denoise``, ``self-labeling``)."""
    return ExperimentBuilder(ABLATION_ARTEFACTS.get(axis, axis))


def run_single(
    framework: str,
    preset: Union[str, Preset] = "fast",
    seed: Optional[int] = None,
    attack: Optional[str] = None,
    epsilon: float = 0.5,
    building: Optional[str] = None,
    num_clients: Optional[int] = None,
    num_malicious: Optional[int] = None,
    framework_kwargs: Optional[Dict] = None,
    engine: Optional[SweepEngine] = None,
    client_engine: Optional[str] = None,
) -> CellResult:
    """One federation under one scenario (the ``repro run`` command).

    ``client_engine`` overrides the preset's client execution engine
    (``"serial"``/``"batched"`` — bit-identical at float64).  ``engine``
    runs the cell on an existing engine (sharing its artifact cache); a
    fresh in-memory one by default.
    """
    if isinstance(preset, str):
        preset = get_preset(preset, seed=42 if seed is None else seed)
    elif seed is not None and seed != preset.seed:
        preset = replace(preset, seed=seed)
    if client_engine is not None and client_engine != preset.client_engine:
        preset = replace(preset, client_engine=client_engine)
    spec = scenario(
        framework,
        attack=attack,
        epsilon=epsilon,
        building=building,
        num_clients=num_clients,
        num_malicious=num_malicious,
        framework_kwargs=framework_kwargs,
    )
    return (engine or SweepEngine()).run_cell(preset, spec)


def run_spec(
    spec: Union[str, Dict[str, object], SweepPlan],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    resume: bool = False,
    engine: Optional[SweepEngine] = None,
    collect: bool = True,
    executor: Optional[str] = None,
    client_engine: Optional[str] = None,
    cell_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    on_error: Optional[str] = None,
):
    """Execute a sweep spec — a file path, a payload dict, or a plan.

    ``client_engine`` overrides the spec preset's client execution
    engine (``"serial"``/``"batched"`` — bit-identical at float64, so
    the override never changes results, only round wall-time).

    When the plan's name matches a registered artefact (every golden
    spec does) and ``collect=True``, the artefact's collector shapes the
    result exactly as the equivalent ``experiment`` run would — same
    type, bit-identical ``format_report()``.  Free-form plan names
    return the raw :class:`SweepResult`.

    A spec's optional ``engine`` block (written by
    :meth:`ExperimentBuilder.save_spec`) supplies defaults for any
    scheduling knob the caller leaves unset; explicit arguments and a
    passed ``engine`` always win.  Scheduling never changes results —
    both executors are bit-identical and retried cells reproduce exactly
    — so honoring the hints is safe.
    """
    hints: Dict[str, object] = {}
    if isinstance(spec, SweepPlan):
        plan = spec
    elif isinstance(spec, dict):
        hints = spec.get("engine") or {}
        plan = SweepPlan.from_dict(spec)
    else:
        payload = load_payload(spec)
        hints = payload.get("engine") or {}
        plan = SweepPlan.from_dict(payload, validate=False)
    if (
        client_engine is not None
        and client_engine != plan.preset.client_engine
    ):
        if client_engine not in CLIENT_ENGINES:
            raise ValueError(
                f"client_engine must be one of {CLIENT_ENGINES}, "
                f"got {client_engine!r}"
            )
        plan = replace(
            plan, preset=replace(plan.preset, client_engine=client_engine)
        )
    if engine is None:
        explicit = zip(
            ENGINE_KNOBS, (jobs, executor, cell_timeout, retries, on_error)
        )
        knobs = {**hints, **{k: v for k, v in explicit if v is not None}}
        engine = SweepEngine(cache_dir=cache_dir, resume=resume, **knobs)
    driver = find_collector(plan.name) if collect else None
    if driver is not None:
        return driver.run_plan(plan, engine=engine)
    return engine.run(plan)


def validate_spec(
    spec: Union[str, Dict[str, object]]
) -> SweepPlan:
    """Validate a spec file path or payload; returns the parsed plan or
    raises :class:`SpecValidationError` listing every problem."""
    if isinstance(spec, dict):
        validate_plan_payload(spec)
        return SweepPlan.from_dict(spec, validate=False)
    return load_plan(spec)


def format_sweep_table(result: SweepResult) -> str:
    """Generic cell table for plans without a registered collector."""
    rows: List[tuple] = []
    for cell in result.cells:
        spec = cell.spec
        mean = cell.error_summary.mean if cell.error_summary else ""
        rows.append(
            (
                spec.framework,
                spec.attack or "clean",
                spec.epsilon,
                cell.building or "-",
                mean,
                cell.parameter_count,
            )
        )
    return format_table(
        headers=["framework", "attack", "eps", "building", "mean (m)",
                 "parameters"],
        rows=rows,
        title=f"Sweep {result.plan_name} [{result.preset_name}]",
    )


def info() -> Dict[str, List[Dict[str, object]]]:
    """The unified registry's inventory, namespace by namespace, sorted
    by component name (what ``repro info`` prints)."""
    inventory: Dict[str, List[Dict[str, object]]] = {}
    for namespace in NAMESPACES:
        inventory[namespace] = [
            {
                "name": component.name,
                "paper": component.paper,
                "defaults": dict(component.defaults),
                "doc": component.doc,
            }
            for component in registry.components(namespace)
        ]
    return inventory

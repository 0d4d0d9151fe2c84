"""Declarative scenario engine: sweep planning, staged caching, execution.

Every paper artefact is a grid of *cells* — (framework, attack, ε,
building, overrides) combinations that each used to hand-roll nested
loops around a monolithic single-run pipeline.  Here the grid is **data**:

* a :class:`ScenarioSpec` describes one cell declaratively;
* a :class:`SweepPlan` is an artefact's full cell grid;
* a :class:`SweepEngine` executes plans through a staged pipeline
  (data → pre-train → federate → evaluate) whose first two stages are
  deduplicated through a content-keyed
  :class:`~repro.experiments.artifacts.ArtifactCache` — the building
  survey and the 350–700-epoch centralized pre-train are computed once
  per (building, preset, seed) and reused by every framework/attack/ε
  cell that shares them;
* cells run inline or on a **process pool** (``jobs`` × ``executor``);
  results are bit-identical either way because every cell derives all
  randomness from named :class:`~repro.utils.rng.SeedSequence` streams
  and shares no mutable state — process workers receive cells as
  JSON-native payloads and return JSON-serialized :class:`CellResult`
  records, so sweeps scale past the GIL on multi-core hosts;
* both executors dispatch through one fault-tolerant scheduler
  (:mod:`repro.experiments.scheduler`): per-cell wall-clock timeouts,
  bounded retry with exponential backoff, crash recovery that rebuilds
  a broken process pool and re-dispatches only in-flight cells, and
  ``on_error="continue"`` degradation — failed cells become structured
  :class:`~repro.experiments.scheduler.CellFailure` records on the
  :class:`SweepResult` instead of poisoning the sweep.  Every finished
  cell is persisted to the resume ledger the moment it completes, so
  crashes and Ctrl-C never lose finished work;
* with a ``cache_dir``, finished cells persist as JSON and a
  re-invoked, partially completed sweep skips straight to the missing
  cells (``resume=True``).

Stage correctness: the pre-train artifact is the GM ``state_dict`` after
``server.pretrain`` — for every framework that is the *complete*
training-mutated state (the models expose all trained tensors through
``state_dict``), so loading it into a fresh model is bit-identical to
having pre-trained in place.  The artifact is keyed on the initial
weight signature plus the training recipe, so e.g. the Fig. 4 τ sweep
(τ only gates the untrusted-data defense, never the trusted pre-train)
and the Fig. 7 client-count sweep (clients don't participate in
pre-training) all share one pre-train per building.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Literal, Optional, Tuple, get_args

from repro.attacks import create_attack
from repro.baselines.registry import make_framework
from repro.data.buildings import Building
from repro.data.datasets import FingerprintDataset
from repro.data.fingerprints import paper_protocol
from repro.experiments.artifacts import (
    ArtifactCache,
    StageStats,
    content_key,
    state_signature,
)
from repro.experiments.chaos import maybe_inject, resolve_chaos
from repro.experiments.scenarios import Preset
from repro.experiments.scheduler import (
    CellFailure,
    CellScheduler,
    EngineConfig,
    EngineConfigError,
    ProcessBackend,
    SerialBackend,
    SweepInterrupted,
)
from repro.fl.simulation import build_federation
from repro.metrics.localization import ErrorSummary, evaluate_model
from repro.nn.dtype import compute_dtype
from repro.registry import registry
from repro.utils.logging import get_logger
from repro.utils.records import from_json, json_problems, to_json
from repro.utils.rng import SeedSequence

logger = get_logger("experiments.engine")

#: on-disk sweep-spec format marker + version.  Bump the version whenever
#: the meaning of a serialized plan changes; :mod:`repro.experiments.specio`
#: rejects files written under any other version with a clear message.
SPEC_FORMAT = "repro.sweep-plan"
SPEC_SCHEMA_VERSION = 2
#: what a plan's cells measure (see :class:`SweepPlan`)
PlanKind = Literal["federation", "footprint"]

#: framework kwargs that provably do not alter the pre-trained weights —
#: they configure the untrusted-data defense or the aggregation strategy,
#: neither of which runs during the trusted centralized pre-train.  Cells
#: differing only in these share one pre-train artifact.
PRETRAIN_NEUTRAL_KWARGS: Dict[str, frozenset] = {
    "safeloc": frozenset(
        {
            "tau",
            "denoise_training_data",
            "mode",
            "tolerance",
            "power",
            "sharpness",
            "server_mixing",
            "adjustment",
        }
    ),
    # FEDLS's detector knobs configure server-side aggregation only, so
    # detector sweeps share the reference cell's pre-train
    "fedls": frozenset(
        {
            "outlier_factor",
            "detector_epochs",
            "sampled_peers",
            "shared_encoder",
        }
    ),
}

#: preset fields that cannot influence a single cell's numbers (grids the
#: drivers expand into explicit spec fields, display metadata, and
#: ``client_engine``: both engines run each model's one training program,
#: bit-identical at float64, so cells resumed across engines share one
#: entry).
_CELL_NEUTRAL_PRESET_FIELDS = frozenset(
    {
        "name",
        "buildings",
        "epsilon_grid",
        "tau_grid",
        "attacks",
        "default_epsilon",
        "scalability_grid",
        "latency_repeats",
        "client_engine",
    }
)


#: strategy overrides addressable from a ScenarioSpec (the
#: aggregation-ablation variants); the single authoritative name list —
#: :func:`_named_strategies` builds the matching factories.
STRATEGY_VARIANT_NAMES = (
    "saliency-relative",
    "saliency-absolute",
    "fedavg",
    "coordinate-median",
    "trimmed-mean",
    "norm-clipping",
)


def _named_strategies() -> Dict[str, Callable[[], object]]:
    """Factories for :data:`STRATEGY_VARIANT_NAMES`.

    Imported lazily so the engine stays importable without the core
    package; covers SAFELOC's saliency modes, plain FedAvg and the
    classical robust rules.
    """
    from repro.core.saliency import SaliencyAggregation
    from repro.fl.aggregation import FedAvg
    from repro.fl.robust import CoordinateMedian, NormClipping, TrimmedMean

    factories = {
        "saliency-relative": lambda: SaliencyAggregation(),
        "saliency-absolute": lambda: SaliencyAggregation(
            mode="absolute", sharpness=50.0, server_mixing=0.5
        ),
        "fedavg": lambda: FedAvg(),
        "coordinate-median": lambda: CoordinateMedian(),
        "trimmed-mean": lambda: TrimmedMean(trim=1),
        "norm-clipping": lambda: NormClipping(),
    }
    assert tuple(factories) == STRATEGY_VARIANT_NAMES
    return factories


for _name, _paper, _doc in (
    ("saliency-relative", True,
     "SAFELOC saliency aggregation, cohort-normalized mode (eq. 6-9)"),
    ("saliency-absolute", True,
     "SAFELOC saliency aggregation, verbatim absolute eq. 7"),
    ("fedavg", True, "Plain federated averaging (no poisoning defense)"),
    ("coordinate-median", False, "Coordinate-wise cohort median"),
    ("trimmed-mean", False, "Coordinate-wise trimmed mean (trim=1)"),
    ("norm-clipping", False, "Update-norm clipping before averaging"),
):
    registry.add(
        "aggregations",
        _name,
        (lambda _n: lambda: _named_strategies()[_n]())(_name),
        paper=_paper,
        doc=_doc,
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative cell of a sweep.

    Attributes:
        framework: Registry name ("safeloc", "fedloc", …).
        attack: Attack name, or ``None`` for the clean scenario.
        epsilon: Attack strength (meaningful only with ``attack``).
        building: Building name; ``None`` = the preset's first building.
        num_clients / num_malicious: Federation-shape overrides
            (``None`` = preset defaults; malicious forced to 0 when clean).
        framework_kwargs: Extra factory arguments as a sorted
            ``((key, value), …)`` tuple so specs stay hashable (e.g.
            ``(("tau", 0.2),)`` for the Fig. 4 sweep).
        strategy: Named aggregation override from
            :data:`STRATEGY_VARIANT_NAMES` (ablations), or ``None`` for
            the framework's own strategy.
        self_labeling: §III pseudo-label loop on clients (ablation knob).
        input_dim / num_classes: Explicit problem shape for footprint
            (Table I) cells measured outside any building survey.
        label: Free-form driver tag; carried through results, never part
            of the cell's cache identity.
    """

    framework: str = "safeloc"
    attack: Optional[str] = None
    epsilon: float = 0.0
    building: Optional[str] = None
    num_clients: Optional[int] = None
    num_malicious: Optional[int] = None
    framework_kwargs: Tuple[Tuple[str, object], ...] = ()
    strategy: Optional[str] = None
    self_labeling: bool = True
    input_dim: Optional[int] = None
    num_classes: Optional[int] = None
    label: str = ""

    @property
    def kwargs(self) -> Dict[str, object]:
        return dict(self.framework_kwargs)

    def identity(self) -> Dict[str, object]:
        """The spec fields that determine the cell's numbers (no label)."""
        payload = to_json(self)
        payload.pop("label")
        return payload

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-native payload (``framework_kwargs`` as a mapping);
        :meth:`from_dict` inverts it exactly."""
        return {**to_json(self), "framework_kwargs": self.kwargs}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output or a hand-written
        cell; ``framework_kwargs`` may be a mapping or ``(key, value)``
        pairs (they are canonically sorted either way)."""
        kwargs = payload.get("framework_kwargs", ())
        if isinstance(kwargs, dict):
            kwargs = kwargs.items()
        return from_json(
            cls, {**payload, "framework_kwargs": sorted(map(tuple, kwargs))}
        )


def scenario(
    framework: str = "safeloc",
    *,
    framework_kwargs: Optional[Dict[str, object]] = None,
    **fields: object,
) -> ScenarioSpec:
    """Ergonomic :class:`ScenarioSpec` constructor: the other fields by
    keyword, ``framework_kwargs`` as a dict, ``epsilon`` zeroed on a
    clean cell.  Validates the strategy name against the
    ``aggregations`` registry namespace."""
    strategy = fields.get("strategy")
    if strategy is not None:
        registry.get("aggregations", strategy)  # raises with did-you-mean
    epsilon = fields.pop("epsilon", 0.0)
    return ScenarioSpec(
        framework=framework,
        epsilon=float(epsilon) if fields.get("attack") else 0.0,
        framework_kwargs=tuple(sorted((framework_kwargs or {}).items())),
        **fields,
    )


@dataclass(frozen=True)
class SweepPlan:
    """An artefact expanded into its full cell grid.

    Attributes:
        name: Artefact label ("fig5", "ablation-aggregation", …).
        preset: The preset every cell is sized by.
        cells: The grid, in report order.
        kind: ``"federation"`` (train + evaluate a federation per cell)
            or ``"footprint"`` (Table I latency/parameter measurements).
    """

    name: str
    preset: Preset
    cells: Tuple[ScenarioSpec, ...]
    kind: PlanKind = "federation"

    def __post_init__(self):
        if not self.cells:
            raise ValueError(f"plan {self.name!r} has no cells")
        if self.kind not in get_args(PlanKind):
            raise ValueError(f"unknown plan kind {self.kind!r}")

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Versioned JSON-native payload — the on-disk sweep-spec format
        (``repro sweep --spec``); :meth:`from_dict` inverts it exactly."""
        return {
            "format": SPEC_FORMAT,
            "schema_version": SPEC_SCHEMA_VERSION,
            "name": self.name,
            "kind": self.kind,
            "preset": self.preset.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], validate: bool = True
    ) -> "SweepPlan":
        """Rebuild a plan from :meth:`to_dict` output.

        With ``validate=True`` (default) the payload is first checked
        against the spec schema — version, field types, registered
        component names, kwarg typos — and a
        :class:`~repro.experiments.specio.SpecValidationError` listing
        every problem is raised before any construction is attempted.
        """
        if validate:
            from repro.experiments.specio import validate_plan_payload

            validate_plan_payload(payload)
        return cls(
            name=payload["name"],
            kind=payload.get("kind", "federation"),
            preset=Preset.from_dict(payload["preset"]),
            cells=tuple(
                ScenarioSpec.from_dict(cell) for cell in payload["cells"]
            ),
        )


@dataclass
class CellResult:
    """Outcome of one executed (or resumed) cell."""

    spec: ScenarioSpec
    building: str = ""
    error_summary: Optional[ErrorSummary] = None
    flagged_per_round: List[int] = field(default_factory=list)
    #: server-side update drops per round (FEDLS/FEDCC/KRUM filters) —
    #: client-side ``flagged_per_round`` never sees these, so frameworks
    #: whose whole defense is server-side would otherwise read as inert
    dropped_per_round: List[int] = field(default_factory=list)
    parameter_count: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    duration_s: float = 0.0
    pretrain_cache_hit: bool = False
    resumed: bool = False

    def to_json_dict(self) -> Dict:
        """The resume-ledger record (``resumed`` belongs to the run that
        reads a record, not to the record)."""
        payload = to_json(self)
        del payload["resumed"]
        return payload

    @classmethod
    def from_json_dict(cls, record: Dict, resumed: bool = False) -> "CellResult":
        """Rebuild a result from :meth:`to_json_dict` output; a record
        that is not that schema raises :class:`ValueError`."""
        problems = json_problems(cls, record, "cell record")
        if problems:
            raise ValueError("; ".join(problems))
        return replace(from_json(cls, record), resumed=resumed)


@dataclass
class SweepResult:
    """Uniform result store for one executed plan.

    ``cells`` are in plan order; ``stats`` holds this sweep's share of
    the stage cache counters, which is how the "exactly one pre-train
    per (building, preset, seed)" guarantee is observable:
    ``stats["pretrain"]["misses"]`` counts actual pre-trains,
    ``stats["pretrain"]["hits"]`` the reuses.
    """

    plan_name: str
    preset_name: str
    seed: int
    kind: str
    cells: List[CellResult]
    stats: Dict[str, Dict[str, int]]
    duration_s: float
    jobs: int = 1
    #: the backend that ran the cells (``"serial"`` or ``"process"``)
    executor: str = "serial"
    #: cells that exhausted their attempts under ``on_error="continue"``
    #: (plan order; an aborted sweep raises instead of returning)
    failures: List[CellFailure] = field(default_factory=list)
    #: attempt re-dispatches (failed/timed-out/crashed attempts retried)
    retried: int = 0
    #: cell-timeout expiries (each also counts as a retry or a failure)
    timed_out: int = 0

    @property
    def cells_per_second(self) -> float:
        """Cell throughput; 0.0 when the sweep finished in no measurable
        time (a fully-resumed warm sweep) — never ``inf``."""
        if self.duration_s <= 0:
            return 0.0
        return len(self.cells) / self.duration_s

    def pretrain_counts(self) -> Tuple[int, int]:
        """(trained, reused) pre-train counts for this sweep."""
        entry = self.stats.get("pretrain", {})
        return entry.get("misses", 0), entry.get("hits", 0)

    def resumed_count(self) -> int:
        return sum(cell.resumed for cell in self.cells)

    def format_stats(self) -> str:
        """One-line sweep report with the cache-hit counters."""
        trained, reused = self.pretrain_counts()
        data = self.stats.get("data", {})
        rate = (
            f"{self.cells_per_second:.2f} cells/s"
            if self.duration_s > 0
            else "n/a cells/s"
        )
        parts = [
            f"{self.plan_name} [{self.preset_name}]: "
            f"{len(self.cells)} cells in {self.duration_s:.1f}s "
            f"({rate}, jobs={self.jobs}, {self.executor})"
        ]
        if self.kind == "federation":
            parts.append(f"pretrain: {trained} trained, {reused} reused")
            parts.append(
                f"data: {data.get('misses', 0)} generated, "
                f"{data.get('hits', 0)} reused"
            )
        parts.append(
            f"{len(self.failures)} failed, {self.retried} retried, "
            f"{self.timed_out} timed out"
        )
        parts.append(f"{self.resumed_count()} cells resumed")
        return " | ".join(parts)

    def to_json_dict(self) -> Dict:
        return {
            "plan": self.plan_name,
            "preset": self.preset_name,
            "seed": self.seed,
            "kind": self.kind,
            "jobs": self.jobs,
            "executor": self.executor,
            "duration_s": self.duration_s,
            "cells_per_second": self.cells_per_second,
            "stats": self.stats,
            "failures": [
                failure.to_json_dict() for failure in self.failures
            ],
            "retried": self.retried,
            "timed_out": self.timed_out,
            "cells": [cell.to_json_dict() for cell in self.cells],
        }


class SweepEngine:
    """Executes :class:`SweepPlan`\\ s through the staged, cached pipeline.

    Args:
        jobs, executor, cell_timeout, retries, on_error, backoff_base:
            The scheduling knobs, checked and stored as
            ``self.config``, an
            :class:`~repro.experiments.scheduler.EngineConfig` (see
            there); none of them changes a result.
        cache_dir: On-disk artifact store; enables cross-process reuse of
            data/pre-train artifacts and (with ``resume``) cell skipping.
            Process workers share artifacts through it when one is set.
        resume: Skip cells whose results already sit in ``cache_dir``.
        chaos: Test-only deterministic fault injection: a
            :class:`~repro.experiments.chaos.ChaosSpec`, its token
            string (``"2:kill"``), or ``None`` to read the
            ``REPRO_CHAOS`` environment variable.

    One engine may run several plans (``experiment all``); its in-memory
    artifact memo then spans artefacts, so e.g. Fig. 6's FEDHIL cells
    reuse the pre-train Fig. 1 already paid for.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        resume: bool = False,
        executor: Optional[str] = None,
        cell_timeout: Optional[float] = None,
        retries: int = 0,
        on_error: str = "abort",
        backoff_base: float = 0.5,
        chaos=None,
    ):
        if resume and cache_dir is None:
            raise EngineConfigError(
                "resume=True needs a cache_dir — there is nowhere to "
                "resume finished cells from"
            )
        self.config = EngineConfig(
            jobs=jobs,
            executor=executor,
            cell_timeout=cell_timeout,
            retries=retries,
            on_error=on_error,
            backoff_base=backoff_base,
        )
        self.resume = bool(resume)
        self.chaos = resolve_chaos(chaos)
        self.artifacts = ArtifactCache(cache_dir)
        self._sig_memo: Dict[tuple, str] = {}

    # -- public API --------------------------------------------------------
    def run(self, plan: SweepPlan) -> SweepResult:
        """Execute every cell of a plan; returns results in plan order.

        Under ``on_error="continue"`` cells that exhausted their
        attempts are dropped from ``cells`` and carried as structured
        ``failures`` on the result; under ``"abort"`` the final cell
        error re-raises.  Ctrl-C raises
        :class:`~repro.experiments.scheduler.SweepInterrupted` — in
        every case, cells that finished first already reached the
        resume ledger.
        """
        start = time.perf_counter()
        before = self.artifacts.stats.snapshot()
        with compute_dtype(plan.preset.compute_dtype):
            outcome = self._execute(plan)
        stats = StageStats.delta(before, self.artifacts.stats.snapshot())
        result = SweepResult(
            plan_name=plan.name,
            preset_name=plan.preset.name,
            seed=plan.preset.seed,
            kind=plan.kind,
            stats=stats,
            duration_s=time.perf_counter() - start,
            jobs=self.config.jobs or 1,
            **outcome,
        )
        logger.info("%s", result.format_stats())
        return result

    def run_cell(self, preset: Preset, spec: ScenarioSpec) -> CellResult:
        """Execute one federation cell outside any plan (the ``run`` CLI)."""
        with compute_dtype(preset.compute_dtype):
            return self._run_federation_cell(preset, spec)

    # -- execution ---------------------------------------------------------
    def _execute(self, plan: SweepPlan) -> Dict[str, object]:
        """Run a plan through the fault-tolerant scheduler.

        Resume hits are resolved in the parent (no backend ever sees
        them); pending cells dispatch on the selected
        :class:`~repro.experiments.scheduler.ExecutorBackend` and each
        finished cell is persisted to the resume ledger the moment its
        completion callback fires — out of order, in the scheduler's
        own thread — so a later failure, abort or interrupt never loses
        finished work.  Returns the :class:`SweepResult` fields it
        decides: plan-ordered surviving ``cells``, the ``failures``,
        the ``retried``/``timed_out`` counters and the ``executor``
        name of the backend that ran the cells.
        """
        results: List[Optional[CellResult]] = [None] * len(plan.cells)
        pending: List[int] = []
        for index, spec in enumerate(plan.cells):
            resumed = self._resume_cell(plan, spec)
            if resumed is not None:
                results[index] = resumed
            else:
                pending.append(index)
        backend = self._backend(plan, len(pending))
        if not pending:
            return {
                "cells": [cell for cell in results if cell is not None],
                "executor": backend.name,
            }
        for _ in pending:
            # counted at dispatch decision, once per cell — retries must
            # not inflate the "cells" miss counter
            self.artifacts.stats.record("cells", hit=False)

        def complete(index: int, outcome) -> None:
            spec = plan.cells[index]
            if isinstance(outcome, dict):
                # a process worker's return: fold its stage-counter
                # delta into the parent stats, rebuild the result
                self.artifacts.stats.merge(outcome["stats"])
                result = CellResult.from_json_dict(outcome["cell"])
            else:
                result = outcome
            # workers and stores hash the label-free identity; hand
            # back the exact requested spec object (labels and all)
            result.spec = spec
            if plan.kind == "federation":
                self.artifacts.store_cell(
                    self._cell_key(plan, spec), result.to_json_dict()
                )
            results[index] = result

        scheduler = CellScheduler(backend, self.config, complete)
        try:
            scheduler.run(pending)
        except SweepInterrupted as interrupt:
            # count everything a re-invocation with --resume will skip:
            # the cells this run finished plus the ones it resumed
            interrupt.finished += sum(
                1
                for cell in results
                if cell is not None and cell.resumed
            )
            interrupt.total = len(plan.cells)
            interrupt.plan_name = plan.name
            raise
        failures: List[CellFailure] = []
        for index in sorted(scheduler.failures):
            failure = scheduler.failures[index]
            failure.spec = plan.cells[index]
            failures.append(failure)
        return {
            "cells": [cell for cell in results if cell is not None],
            "failures": failures,
            "retried": scheduler.retried,
            "timed_out": scheduler.timed_out,
            "executor": backend.name,
        }

    def _backend(self, plan: SweepPlan, pending: int):
        """Pick the executor backend for a plan's pending cells.

        Footprint cells time wall-clock inference latency — concurrent
        cells would contend for the CPU and inflate every measurement —
        so they always run serially in-process.  ``process`` is honored
        at any ``jobs`` count: a one-worker pool still isolates cells in
        killable, timeout-enforceable workers.
        """
        if plan.kind == "footprint" or self.config.backend == "serial":
            return SerialBackend(self._runner(plan))
        return ProcessBackend(
            _pool_run_cell,
            self._process_payload(plan),
            min(self.config.jobs or 1, pending),
        )

    def _runner(self, plan: SweepPlan) -> Callable[[int, int], CellResult]:
        """The inline cell body: (index, attempt) → CellResult."""

        def run(index: int, attempt: int) -> CellResult:
            spec = plan.cells[index]
            maybe_inject(self.chaos, index, attempt, "start")
            start = time.perf_counter()
            if plan.kind == "footprint":
                result = self._run_footprint_cell(plan.preset, spec)
            else:
                result = self._run_federation_cell(plan.preset, spec)
            result.duration_s = time.perf_counter() - start
            maybe_inject(self.chaos, index, attempt, "finish")
            return result

        return run

    def _process_payload(self, plan: SweepPlan) -> Callable[[int, int], Dict]:
        """Build the JSON-native process-pool payload for one dispatch —
        preset + spec + engine knobs, plus the chaos token and the
        (index, attempt) coordinates so injections reach exactly the
        worker attempt that should suffer them."""
        shared = {
            "preset": plan.preset.to_dict(),
            "cache_dir": self.artifacts.cache_dir,
            "chaos": self.chaos.token() if self.chaos else None,
        }

        def payload(index: int, attempt: int) -> Dict:
            return {
                **shared,
                "spec": plan.cells[index].to_dict(),
                "index": index,
                "attempt": attempt,
            }

        return payload

    def _resume_cell(
        self, plan: SweepPlan, spec: ScenarioSpec
    ) -> Optional[CellResult]:
        """The stored result for a finished cell, or ``None`` when the
        cell must run (resume off, footprint plan, or cache miss)."""
        if not (self.resume and plan.kind == "federation"):
            return None
        record = self.artifacts.load_cell(self._cell_key(plan, spec))
        if record is None:
            return None
        try:
            result = CellResult.from_json_dict(record, resumed=True)
        except ValueError:
            # parses but is not a cell record: a miss, and the fresh
            # run's store_cell overwrites it
            return None
        self.artifacts.stats.record("cells", hit=True)
        # cache keys hash the label-free cell identity, so the
        # stored spec may carry another plan's label — the numbers
        # are the requested cell's, the spec must be too
        result.spec = spec
        return result

    def _run_federation_cell(
        self, preset: Preset, spec: ScenarioSpec
    ) -> CellResult:
        building_name = spec.building or preset.buildings[0]
        building, train, tests, data_key = self._data(preset, building_name)
        framework = make_framework(
            spec.framework,
            building.num_aps,
            building.num_rps,
            seed=preset.seed,
            **spec.kwargs,
        )
        strategy = (
            registry.create("aggregations", spec.strategy)
            if spec.strategy
            else framework.strategy
        )
        effective_malicious = (
            (
                preset.num_malicious
                if spec.num_malicious is None
                else spec.num_malicious
            )
            if spec.attack
            else 0
        )
        config = preset.federation_config(
            num_malicious=effective_malicious, num_clients=spec.num_clients
        )
        pretrained, pretrain_hit = self._pretrained(
            preset, spec, building_name, data_key, train,
            framework.model_factory, config,
        )
        attack_factory = None
        if spec.attack and effective_malicious > 0:
            attack_factory = lambda: create_attack(
                spec.attack, spec.epsilon, num_classes=building.num_rps
            )
        server = build_federation(
            building,
            framework.model_factory,
            strategy,
            config,
            SeedSequence(preset.seed),
            attack_factory=attack_factory,
        )
        if not spec.self_labeling:
            for client in server.clients:
                client.self_labeling = False
        server.model.load_state_dict(pretrained)
        server.run_rounds(config.num_rounds)
        summary = evaluate_model(server.model, tests, building)
        logger.info(
            "%s / %s eps=%.2f on %s: %s",
            spec.framework,
            spec.attack or "clean",
            spec.epsilon,
            building_name,
            summary,
        )
        return CellResult(
            spec=spec,
            building=building_name,
            error_summary=summary,
            flagged_per_round=[r.num_flagged for r in server.history],
            dropped_per_round=[r.num_dropped for r in server.history],
            parameter_count=server.model.parameter_count(),
            pretrain_cache_hit=pretrain_hit,
        )

    def _run_footprint_cell(
        self, preset: Preset, spec: ScenarioSpec
    ) -> CellResult:
        from repro.metrics.footprint import count_parameters
        from repro.metrics.latency import measure_inference_latency
        from repro.metrics.macs import inference_macs

        if spec.input_dim is None or spec.num_classes is None:
            raise ValueError("footprint cells need input_dim and num_classes")
        framework = make_framework(
            spec.framework, spec.input_dim, spec.num_classes, seed=preset.seed
        )
        model = framework.model_factory()
        latency = measure_inference_latency(
            model,
            spec.input_dim,
            repeats=preset.latency_repeats,
            seed=preset.seed,
        )
        return CellResult(
            spec=spec,
            parameter_count=count_parameters(model),
            metrics={
                "median_ms": latency.median_ms,
                "mean_ms": latency.mean_ms,
                "p95_ms": latency.p95_ms,
                "repeats": latency.repeats,
                "macs": inference_macs(model),
            },
        )

    # -- stages ------------------------------------------------------------
    def _data(
        self, preset: Preset, building_name: str
    ) -> Tuple[Building, FingerprintDataset, Dict[str, FingerprintDataset], str]:
        key = content_key(
            {
                "stage": "data",
                "building": building_name,
                "seed": preset.seed,
                "rp_fraction": preset.rp_fraction,
                "ap_fraction": preset.ap_fraction,
            }
        )
        building = preset.building(building_name)
        bundle, _ = self.artifacts.get_datasets(
            key, lambda: paper_protocol(building, seed=preset.seed)
        )
        train, tests = bundle
        return building, train, tests, key

    def _pretrained(
        self,
        preset: Preset,
        spec: ScenarioSpec,
        building_name: str,
        data_key: str,
        train: FingerprintDataset,
        model_factory: Callable,
        config,
    ):
        neutral = PRETRAIN_NEUTRAL_KWARGS.get(spec.framework, frozenset())
        relevant_kwargs = {
            k: v for k, v in spec.framework_kwargs if k not in neutral
        }
        # the initial-weight signature is a pure function of this tuple;
        # memoized so cache-hit cells skip the throwaway model build
        sig_key = (
            spec.framework,
            tuple(sorted(relevant_kwargs.items())),
            preset.seed,
            preset.compute_dtype,
            data_key,
        )
        init_sig = self._sig_memo.get(sig_key)
        if init_sig is None:
            init_sig = state_signature(model_factory().state_dict())
            self._sig_memo[sig_key] = init_sig
        key = content_key(
            {
                "stage": "pretrain",
                "framework": spec.framework,
                "kwargs": relevant_kwargs,
                "building": building_name,
                "data": data_key,
                "seed": preset.seed,
                "epochs": config.pretrain_epochs,
                "lr": config.pretrain_lr,
                "batch_size": config.batch_size,
                "dtype": preset.compute_dtype,
                "init": init_sig,
            }
        )

        def compute():
            # exactly FederatedServer.pretrain: same rng stream, same recipe
            model = model_factory()
            rng = SeedSequence(preset.seed).child("server").rng("pretrain")
            model.train_epochs(
                train,
                epochs=config.pretrain_epochs,
                lr=config.pretrain_lr,
                rng=rng,
                batch_size=config.batch_size,
                trusted=True,
            )
            return model.state_dict()

        return self.artifacts.get_pretrained(key, compute)

    def _cell_key(self, plan: SweepPlan, spec: ScenarioSpec) -> str:
        preset_payload = asdict(plan.preset)
        for name in _CELL_NEUTRAL_PRESET_FIELDS:
            preset_payload.pop(name, None)
        spec_payload = spec.identity()
        # building=None means "the preset's first building" — resolve it
        # so the two spellings share one cache entry
        spec_payload["building"] = spec.building or plan.preset.buildings[0]
        return content_key(
            {
                "stage": "cell",
                "kind": plan.kind,
                "preset": preset_payload,
                "spec": spec_payload,
            }
        )


#: per-pool-worker engine memo keyed on the cache dir: every cell a
#: worker process executes shares one in-memory artifact cache, so e.g.
#: a worker that ran one ε cell reuses its data/pre-train for the next
_WORKER_ENGINES: Dict[Optional[str], SweepEngine] = {}


def _pool_run_cell(task: Dict) -> Dict:
    """Process-pool entry point: one federation cell, end to end.

    The payload is JSON-native (``Preset.to_dict`` +
    ``ScenarioSpec.to_dict`` + engine knobs) and the return value is the
    serialized :class:`CellResult` plus this cell's stage-counter delta,
    so nothing crosses the pool but plain dicts — the parent folds the
    counters into its stats and re-attaches the requested spec.

    The optional ``chaos`` token plus the cell's (index, attempt)
    coordinates drive deterministic fault injection *inside the worker*
    — a ``kill`` injection here is a real ``os._exit``, breaking the
    pool exactly like an OOM-killed worker would.
    """
    engine = _WORKER_ENGINES.get(task["cache_dir"])
    if engine is None:
        engine = SweepEngine(cache_dir=task["cache_dir"])
        _WORKER_ENGINES[task["cache_dir"]] = engine
    preset = Preset.from_dict(task["preset"])
    spec = ScenarioSpec.from_dict(task["spec"])
    chaos = resolve_chaos(task["chaos"]) if task.get("chaos") else None
    index = task.get("index", -1)
    attempt = task.get("attempt", 0)
    before = engine.artifacts.stats.snapshot()
    start = time.perf_counter()
    maybe_inject(chaos, index, attempt, "start", process_worker=True)
    with compute_dtype(preset.compute_dtype):
        result = engine._run_federation_cell(preset, spec)
    result.duration_s = time.perf_counter() - start
    maybe_inject(chaos, index, attempt, "finish", process_worker=True)
    return {
        "cell": result.to_json_dict(),
        "stats": StageStats.delta(
            before, engine.artifacts.stats.snapshot()
        ),
    }


def run_plan(
    plan: SweepPlan, engine: Optional[SweepEngine] = None
) -> SweepResult:
    """Run a plan on the given engine (or a fresh in-memory one)."""
    return (engine or SweepEngine()).run(plan)

"""Experiment drivers — one module per paper artefact, one engine behind
them all.

==========================  =======================================
Module                      Paper artefact
==========================  =======================================
``fig1_motivation``         Fig. 1 — FEDLOC/FEDHIL under attack
``fig4_threshold``          Fig. 4 — reconstruction threshold sweep
``fig5_heatmap``            Fig. 5 — attack × ε heatmap
``fig6_comparison``         Fig. 6 — SAFELOC vs state of the art
``table1_overheads``        Table I — latency and parameters
``fig7_scalability``        Fig. 7 — client-count scaling
``ablations``               design-choice ablation studies
==========================  =======================================

Every driver expands its artefact into a declarative
:class:`~repro.experiments.engine.SweepPlan` (``plan_figX``) and executes
it through a :class:`~repro.experiments.engine.SweepEngine`
(``run_figX``), which dedupes the shared data/pre-train stages, runs
cells optionally in parallel, and supports on-disk caching + resumption.
Execution is fault-tolerant (:mod:`~repro.experiments.scheduler`):
per-cell timeouts, retry with deterministic backoff, crash re-dispatch
and ``on_error="continue"`` degradation, all exercised by the
deterministic fault-injection harness in
:mod:`~repro.experiments.chaos`.
The ``fast`` preset keeps runtimes bench-friendly while exercising the
exact code paths of the ``paper`` preset.
"""

from repro.experiments.chaos import ChaosSpec
from repro.experiments.engine import (
    SPEC_SCHEMA_VERSION,
    CellResult,
    ScenarioSpec,
    SweepEngine,
    SweepPlan,
    SweepResult,
    run_plan,
    scenario,
)
from repro.experiments.scheduler import (
    CellFailure,
    CellTimeout,
    SweepInterrupted,
)
from repro.experiments.scenarios import (
    Preset,
    fast32_preset,
    fast_preset,
    get_preset,
    paper_preset,
    tiny_preset,
)
from repro.experiments.specio import (
    SpecValidationError,
    load_plan,
    save_plan,
    validate_plan_payload,
)

__all__ = [
    "Preset",
    "fast_preset",
    "fast32_preset",
    "paper_preset",
    "tiny_preset",
    "get_preset",
    "ScenarioSpec",
    "scenario",
    "SweepPlan",
    "SweepEngine",
    "SweepResult",
    "CellResult",
    "CellFailure",
    "CellTimeout",
    "SweepInterrupted",
    "ChaosSpec",
    "run_plan",
    "SPEC_SCHEMA_VERSION",
    "SpecValidationError",
    "load_plan",
    "save_plan",
    "validate_plan_payload",
]

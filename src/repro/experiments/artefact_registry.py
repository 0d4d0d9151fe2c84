"""Artefact registration: every paper figure/table and ablation study as
a registry component.

Each entry is an :class:`ArtefactDriver` pairing the artefact's **plan
builder** (preset → :class:`~repro.experiments.engine.SweepPlan`) with
its **collector** (plan + executed sweep → typed result object with
``format_report``).  The split is what makes the three frontends
equivalent: ``repro experiment fig6``, ``repro.api.experiment("fig6")``
and ``repro sweep --spec fig6.json`` all build or load the same plan,
run it through the same engine, and format it through the same
collector — so their error tables are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.experiments.ablations import (
    collect_ablation,
    plan_aggregation_ablation,
    plan_denoise_ablation,
    plan_self_labeling_ablation,
)
from repro.experiments.engine import SweepEngine, SweepPlan, SweepResult
from repro.experiments.fig1_motivation import collect_fig1, plan_fig1
from repro.experiments.fig4_threshold import collect_fig4, plan_fig4
from repro.experiments.fig5_heatmap import collect_fig5, plan_fig5
from repro.experiments.fig6_comparison import collect_fig6, plan_fig6
from repro.experiments.fig7_scalability import collect_fig7, plan_fig7
from repro.experiments.scenarios import Preset
from repro.experiments.table1_overheads import collect_table1, plan_table1
from repro.registry import registry


@dataclass(frozen=True)
class ArtefactDriver:
    """One artefact = a plan builder plus a result collector.

    Calling the driver builds the plan (so the registry's ``create``
    yields a :class:`SweepPlan`); :meth:`run` executes it end to end;
    :meth:`collect` formats an already-executed sweep — including one
    whose plan came from a spec file rather than :meth:`plan`.
    """

    name: str
    plan: Callable[..., SweepPlan]
    collect: Callable[[SweepPlan, SweepResult], object]

    def __call__(self, preset: Preset, **options) -> SweepPlan:
        return self.plan(preset, **options)

    def run(
        self,
        preset: Preset,
        engine: Optional[SweepEngine] = None,
        **options,
    ):
        plan = self.plan(preset, **options)
        return self.run_plan(plan, engine=engine)

    def run_plan(
        self, plan: SweepPlan, engine: Optional[SweepEngine] = None
    ):
        sweep = (engine or SweepEngine()).run(plan)
        if sweep.failures:
            # collectors shape full grids (Fig. 4's τ×building table
            # indexes every cell); a sweep degraded by on_error=
            # "continue" returns raw so the frontend can report the
            # failures next to the surviving cells
            return sweep
        return self.collect(plan, sweep)


#: paper artefacts in CLI/report order (``repro experiment all``)
PAPER_ARTEFACTS = ("table1", "fig1", "fig4", "fig5", "fig6", "fig7")
#: ablation axes exposed by ``repro ablation`` → registered plan name
ABLATION_ARTEFACTS = {
    "aggregation": "ablation-aggregation",
    "denoise": "ablation-denoise",
    "self-labeling": "ablation-self-labeling",
}

for _name, _plan, _collect, _paper, _doc, _options in (
    ("table1", plan_table1, collect_table1, True,
     "Table I — model inference latency and parameter counts", ()),
    ("fig1", plan_fig1, collect_fig1, True,
     "Fig. 1 — FEDLOC/FEDHIL degradation under poisoning", ()),
    ("fig4", plan_fig4, collect_fig4, True,
     "Fig. 4 — reconstruction threshold (τ) sweep", ()),
    ("fig5", plan_fig5, collect_fig5, True,
     "Fig. 5 — SAFELOC mean error over attack × ε", ()),
    ("fig6", plan_fig6, collect_fig6, True,
     "Fig. 6 — SAFELOC vs the state of the art per attack",
     ("frameworks",)),
    ("fig7", plan_fig7, collect_fig7, True,
     "Fig. 7 — error vs (total, poisoned) client counts",
     ("frameworks", "grid", "framework_kwargs")),
    ("ablation-aggregation", plan_aggregation_ablation, collect_ablation,
     False, "Ablation — saliency vs FedAvg and classical robust rules", ()),
    ("ablation-denoise", plan_denoise_ablation, collect_ablation, False,
     "Ablation — client-side de-noising on vs off", ()),
    ("ablation-self-labeling", plan_self_labeling_ablation,
     collect_ablation, False,
     "Ablation — §III pseudo-label loop vs oracle labels", ()),
):
    registry.add(
        "artefacts",
        _name,
        ArtefactDriver(name=_name, plan=_plan, collect=_collect),
        paper=_paper,
        doc=_doc,
        extra_kwargs=_options,
    )


def get_artefact(name: str) -> ArtefactDriver:
    """The registered driver for an artefact name (did-you-mean on
    unknown names)."""
    return registry.get("artefacts", name).factory


def find_collector(plan_name: str) -> Optional[ArtefactDriver]:
    """The driver whose collector understands a plan name, or ``None``
    for free-form plans (they fall back to the generic sweep report)."""
    if registry.has("artefacts", plan_name):
        return registry.get("artefacts", plan_name).factory
    return None


def artefact_names(paper: Optional[bool] = None) -> Tuple[str, ...]:
    return registry.names("artefacts", paper=paper)

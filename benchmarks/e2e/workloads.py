"""The four end-to-end workloads and the checks on their outputs.

Each workload is one caller in a closed loop: the next operation starts
when the previous one returned.  A workload first sets up (several times
when untraced, reporting the median), then repeats its operation until
``seconds`` have passed, but never fewer times than its fixed prefix.
Accuracy is read off that fixed prefix only, so the error metrics depend
on the seed and not on how fast the machine is; timings pool every
operation the run completed.

Every workload drives only the public ``repro`` API.  The buildings,
their surveys and every pre-train come from :data:`DATA_SEED`, so every
run of a workload sets up the same system; ``seed`` makes the traffic:
the clients' data (safeloc-paper), the order of the clients
(fedls-scale), of the cells (fig6-mix) or of the queries
(safeloc-infer).
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.attacks import create_attack
from repro.baselines.registry import make_framework
from repro.data.fingerprints import paper_protocol
from repro.experiments.engine import SweepEngine, SweepPlan
from repro.experiments.fig6_comparison import plan_fig6
from repro.experiments.scenarios import paper_preset, tiny_preset
from repro.fl import simulation
from repro.fl.server import FederatedServer
from repro.metrics import localization
from repro.metrics.localization import (
    ErrorSummary,
    localization_errors,
    merge_summaries,
    summarize_errors,
)
from repro.utils.rng import SeedSequence

#: seed of the building survey, test sets and pre-trains shared by all runs
DATA_SEED = 42

clock = time.perf_counter


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    #: wall time of each set-up repetition
    setup_s: List[float] = field(default_factory=list)
    #: wall time of each timed operation (round, cell or query)
    latencies_s: List[float] = field(default_factory=list)
    #: work items (client updates, cells, fingerprints) and their seconds
    items: int = 0
    items_s: float = 0.0
    #: accuracy of the fixed prefix
    errors: Optional[ErrorSummary] = None
    #: operations whose outputs were checked, and one line per failed one
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: peak resident memory when the fixed prefix finished (later
    #: operations may retain more, e.g. the server's round history)
    peak_rss_mb: float = 0.0
    #: sweep-level counts for the per-layer metrics (fig6-mix only)
    sweep: Dict[str, float] = field(default_factory=dict)

    def check(self, problems: List[str], what: str) -> None:
        """Count one checked operation; a non-empty list fails it."""
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def prefix_done(self) -> None:
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )


def _span(tracer, name: str, trace: Optional[str] = None):
    return tracer.span(name, trace) if tracer else contextlib.nullcontext()


def _set_up(build: Callable[[], object], reps: int, tracer, outcome: Outcome):
    """Run ``build`` ``reps`` times, timing each; returns the last result."""
    result = None
    for rep in range(reps):
        start = clock()
        with _span(tracer, "bench.setup", f"setup-{rep}"):
            result = build()
        outcome.setup_s.append(clock() - start)
    return result


def _timed_round(server, outcome: Outcome, tracer) -> None:
    """One federation round as one timed, checked operation."""
    round_id = len(outcome.latencies_s)
    with _span(tracer, "bench.round", f"round-{round_id}"):
        began = clock()
        record = server.run_round()
        elapsed = clock() - began
    outcome.latencies_s.append(elapsed)
    outcome.items += len(record.updates)
    outcome.items_s += elapsed
    outcome.check(
        _state_problems(server.model.state_dict()), f"round {round_id}"
    )


def _state_problems(state) -> List[str]:
    bad = sorted(
        name for name, tensor in state.items()
        if not np.isfinite(tensor).all()
    )
    return [f"non-finite GM tensors {bad}"] if bad else []


def _summary_problems(summary: ErrorSummary) -> List[str]:
    values = (summary.best, summary.mean, summary.worst)
    if not all(np.isfinite(values)):
        return [f"non-finite error summary {summary}"]
    if not summary.best <= summary.mean <= summary.worst:
        return [f"error summary out of order {summary}"]
    return []


# -- safeloc-paper / safeloc-infer ----------------------------------------
def _safeloc_setup(smoke: bool):
    """The paper preset's SAFELOC on building1, pre-trained centrally.

    Returns ``(building, config, attack factory, build)``; ``build`` is
    the set-up both SAFELOC workloads share and returns ``(tests,
    framework, pre-trained GM state)``.
    """
    preset = paper_preset(DATA_SEED)
    if smoke:
        preset = replace(preset, pretrain_epochs=5, num_rounds=2)
    building = preset.building("building1")
    config = preset.federation_config()

    def attack():
        return create_attack(
            "fgsm", preset.default_epsilon, num_classes=building.num_rps
        )

    def build():
        train, tests = paper_protocol(building, seed=DATA_SEED)
        framework = make_framework(
            "safeloc", building.num_aps, building.num_rps, seed=DATA_SEED
        )
        server = simulation.build_federation(
            building, framework.model_factory, framework.strategy, config,
            SeedSequence(DATA_SEED), attack_factory=attack,
        )
        server.pretrain(train, config.pretrain_epochs, config.pretrain_lr)
        return tests, framework, server.model.state_dict()

    return building, config, attack, build


def safeloc_paper(seed, seconds, reps, smoke, tracer, work_dir) -> Outcome:
    """Federations of the paper's shape, all started from one pre-train."""
    outcome = Outcome()
    building, config, attack, build = _safeloc_setup(smoke)
    tests, framework, pretrained = _set_up(build, reps, tracer, outcome)
    prefix = 1 if smoke else 5
    summaries = []
    start = clock()
    federation = 0
    while federation < prefix or clock() - start < seconds:
        server = simulation.build_federation(
            building, framework.model_factory, framework.strategy, config,
            SeedSequence(seed).child(f"federation-{federation}"),
            attack_factory=attack,
        )
        server.model.load_state_dict(pretrained)
        for _ in range(config.num_rounds):
            _timed_round(server, outcome, tracer)
        if federation < prefix:
            summary = localization.evaluate_model(server.model, tests, building)
            summaries.append(summary)
            outcome.check(
                _summary_problems(summary), f"federation {federation} accuracy"
            )
            if federation + 1 == prefix:
                outcome.prefix_done()
        federation += 1
    outcome.errors = merge_summaries(summaries)
    return outcome


def safeloc_infer(seed, seconds, reps, smoke, tracer, work_dir) -> Outcome:
    """Single-fingerprint queries, then batches, against the pre-trained GM.

    The query pool is every clean test fingerprint plus its FGSM copy, so
    both branches of SAFELOC inference run: clean fingerprints mostly
    classify from the latent, perturbed ones are reconstructed and
    re-encoded first.
    """
    outcome = Outcome()
    building, _config, attack, build = _safeloc_setup(smoke)

    def build_pool():
        tests, framework, pretrained = build()
        model = framework.model_factory()
        model.load_state_dict(pretrained)
        features, labels = [], []
        for device in sorted(tests):
            dataset = tests[device]
            poisoned = attack().poison(
                dataset, model.gradient_oracle(), np.random.default_rng(0)
            ).dataset
            features += [dataset.features, poisoned.features]
            labels += [dataset.labels, dataset.labels]
        return tests, model, np.concatenate(features), np.concatenate(labels)

    tests, model, pool, labels = _set_up(build_pool, reps, tracer, outcome)
    size = len(pool)
    summary = localization.evaluate_model(model, tests, building)
    outcome.check(_summary_problems(summary), "clean-test accuracy")

    # the reference answer of every pool row, one single-row call each
    reference = np.array([model.predict(pool[i])[0] for i in range(size)])
    in_range = (reference >= 0) & (reference < building.num_rps)
    outcome.check(
        [] if in_range.all() else [f"{int((~in_range).sum())} RPs out of range"],
        "reference predictions",
    )
    outcome.errors = summarize_errors(
        localization_errors(np.clip(reference, 0, building.num_rps - 1),
                            labels, building)
    )

    rng = np.random.default_rng(seed)
    for index in rng.integers(0, size, 50 if smoke else 500):
        model.predict(pool[index])  # warm-up
    min_queries, min_batches, batch = (
        (200, 4, 64) if smoke else (10_000, 200, 256)
    )
    start = clock()
    order = rng.integers(0, size, min_queries)
    query = 0
    while query < min_queries or clock() - start < seconds / 2:
        if query == len(order):
            order = np.concatenate([order, rng.integers(0, size, min_queries)])
        index = order[query]
        with _span(tracer, "bench.query", f"query-{query}"):
            began = clock()
            answer = model.predict(pool[index])
            elapsed = clock() - began
        outcome.latencies_s.append(elapsed)
        outcome.check(
            [] if answer.shape == (1,) and answer[0] == reference[index]
            else [f"row {index}: {answer} != {reference[index]}"],
            f"query {query}",
        )
        query += 1
    batches = 0
    while batches < min_batches or clock() - start < seconds:
        rows = rng.integers(0, size, batch)
        with _span(tracer, "bench.batch", f"batch-{batches}"):
            began = clock()
            answers = model.predict(pool[rows])
            elapsed = clock() - began
        outcome.items += batch
        outcome.items_s += elapsed
        mismatched = int((answers != reference[rows]).sum())
        outcome.check(
            [f"{mismatched} rows differ from single-query answers"]
            if mismatched else [],
            f"batch {batches}",
        )
        batches += 1
        if batches == min_batches:
            outcome.prefix_done()
    return outcome


# -- fedls-scale -----------------------------------------------------------
def fedls_scale(seed, seconds, reps, smoke, tracer, work_dir) -> Outcome:
    """A large FEDLS federation on the fold-batched client engine.

    The seed shuffles the order in which the server holds its clients,
    which moves the fold stacking order and FEDLS's sampled peer sets;
    the clients' data is fixed, so accuracy barely moves with the seed.
    """
    outcome = Outcome()
    preset = replace(tiny_preset(DATA_SEED), client_engine="batched")
    clients, attackers = (8, 1) if smoke else (32, 4)
    if smoke:
        preset = replace(preset, pretrain_epochs=5)
    building = preset.building(preset.buildings[0])
    config = preset.federation_config(
        num_clients=clients, num_malicious=attackers
    )

    def build():
        train, tests = paper_protocol(building, seed=DATA_SEED)
        framework = make_framework(
            "fedls", building.num_aps, building.num_rps, seed=DATA_SEED,
            sampled_peers=8, detector_epochs=40,
        )
        built = simulation.build_federation(
            building, framework.model_factory, framework.strategy, config,
            SeedSequence(DATA_SEED),
            attack_factory=lambda: create_attack(
                "label_flip", 1.0, num_classes=building.num_rps
            ),
        )
        built.pretrain(train, config.pretrain_epochs, config.pretrain_lr)
        order = np.random.default_rng(seed).permutation(clients)
        server = FederatedServer(
            built.model, built.strategy,
            [built.clients[index] for index in order],
            seeds=built.seeds, client_engine=config.client_engine,
        )
        return tests, server

    tests, server = _set_up(build, reps, tracer, outcome)
    prefix = 1 if smoke else 3
    start = clock()
    while len(outcome.latencies_s) < prefix or clock() - start < seconds:
        _timed_round(server, outcome, tracer)
        if len(outcome.latencies_s) == prefix:
            outcome.errors = localization.evaluate_model(
                server.model, tests, building
            )
            outcome.check(_summary_problems(outcome.errors), "accuracy")
            outcome.prefix_done()
    return outcome


# -- fig6-mix --------------------------------------------------------------
#: a cold sweep start: interpreter, imports, plan, spec load + validation
_COLD_START = (
    "from repro.experiments.engine import SweepPlan\n"
    "from repro.experiments.fig6_comparison import plan_fig6\n"
    "from repro.experiments.scenarios import tiny_preset\n"
    "SweepPlan.from_dict(plan_fig6(tiny_preset({seed})).to_dict())\n"
)


def fig6_mix(seed, seconds, reps, smoke, tracer, work_dir) -> Outcome:
    """Cold Fig. 6 sweeps: every framework under every attack.

    The seed shuffles the cell order.  Cells are pure functions of
    (preset, cell), so the order moves only which cell of a framework
    pays for the shared pre-train and round-1 client updates.
    """
    outcome = Outcome()
    preset = tiny_preset(DATA_SEED)
    if smoke:
        preset = replace(
            preset, pretrain_epochs=5, num_rounds=1, client_epochs=1,
            malicious_epochs=1,
        )

    def build():
        subprocess.run(
            [sys.executable, "-c", _COLD_START.format(seed=DATA_SEED)],
            stdout=subprocess.DEVNULL, check=True, timeout=120,
        )

    _set_up(build, reps, tracer, outcome)
    plan = plan_fig6(preset)
    cells = list(plan.cells)
    np.random.default_rng(seed).shuffle(cells)
    plan = SweepPlan(name=plan.name, preset=preset, cells=tuple(cells))
    sweep = {
        key: 0.0 for key in (
            "data_hits", "data_misses", "pretrain_hits", "pretrain_misses",
            "scheduler_overhead_s", "bytes_written", "cells_failed",
            "cells_retried",
        )
    }
    start = clock()
    sweeps = 0
    while sweeps == 0 or clock() - start < seconds:
        cache_dir = tempfile.mkdtemp(prefix="fig6-cache-", dir=work_dir)
        try:
            engine = SweepEngine(jobs=1, cache_dir=cache_dir)
            with _span(tracer, "bench.sweep", f"sweep-{sweeps}"):
                began = clock()
                result = engine.run(plan)
                elapsed = clock() - began
            sweep["bytes_written"] += _tree_bytes(cache_dir)
        finally:
            shutil.rmtree(cache_dir)
        durations = [cell.duration_s for cell in result.cells]
        outcome.latencies_s += durations
        outcome.items += len(result.cells)
        outcome.items_s += elapsed
        for stage in ("data", "pretrain"):
            counts = result.stats.get(stage, {})
            sweep[f"{stage}_hits"] += counts.get("hits", 0)
            sweep[f"{stage}_misses"] += counts.get("misses", 0)
        sweep["scheduler_overhead_s"] += elapsed - sum(durations)
        sweep["cells_failed"] += len(result.failures)
        sweep["cells_retried"] += result.retried
        done = {id(cell.spec): cell for cell in result.cells}
        for index, spec in enumerate(plan.cells):
            cell = done.get(id(spec))
            what = f"sweep {sweeps} cell {index}"
            if cell is None:
                outcome.check(["missing from the sweep result"], what)
            else:
                outcome.check(_summary_problems(cell.error_summary), what)
        if sweeps == 0:
            outcome.errors = merge_summaries(
                [cell.error_summary for cell in result.cells]
            )
            outcome.prefix_done()
        sweeps += 1
    outcome.sweep = sweep
    return outcome


def _tree_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, _dirs, names in os.walk(root)
        for name in names
    )


RUNNERS = {
    "safeloc-paper": safeloc_paper,
    "fedls-scale": fedls_scale,
    "fig6-mix": fig6_mix,
    "safeloc-infer": safeloc_infer,
}


def end_to_end_metrics(outcome: Outcome) -> Dict[str, tuple]:
    """The end-to-end metrics of one untraced run, as (value, unit)."""
    latencies_ms = np.asarray(outcome.latencies_s) * 1e3
    return {
        "setup_s": (statistics.median(outcome.setup_s), "s"),
        "items_per_s": (outcome.items / outcome.items_s, "1/s"),
        "op_p50_ms": (float(np.percentile(latencies_ms, 50)), "ms"),
        "mean_error_m": (outcome.errors.mean, "m"),
        "worst_error_m": (outcome.errors.worst, "m"),
        "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
    }

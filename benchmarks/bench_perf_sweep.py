"""Sweep-engine benchmarks (perf trajectory tracker).

Measures what the scenario engine buys over the pre-refactor per-cell
loop on a pre-train-heavy grid (the Fig. 5 shape: one building, many
attack × ε cells that all share one pre-trained GM):

* ``engine``: one :class:`~repro.experiments.engine.SweepEngine` run —
  the data + pre-train stages are computed once and every other cell
  reuses them (cells/sec, cache hit rate);
* ``naive``: the same cells through a fresh engine each — the old
  O(cells × pre-train) behavior the refactor removed;
* ``resume``: the same sweep re-invoked against a warm on-disk cache —
  every cell skipped (the ``--resume`` path);
* ``process``: the same sweep on a ``ProcessPoolExecutor``
  (``--executor process``) — cells cross the pool as JSON-native
  payloads, scaling past the GIL on multi-core hosts.

Every execution path must produce bit-identical error summaries
(asserted on every run; ``scripts/run_benchmarks.py`` exits non-zero on
any divergence).  ``--suite
sweep`` writes ``BENCH_sweep.json`` at the repo root; the pytest entry
point runs the reduced shape and stores a text report under
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import tempfile
import time
from dataclasses import replace
from typing import Dict

import numpy as np

from repro.experiments.engine import SweepEngine, SweepPlan, scenario
from repro.experiments.scenarios import tiny_preset

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_sweep.json")


def bench_preset(quick: bool = False):
    """tiny-preset sizing; ``quick`` shrinks the schedules further."""
    preset = tiny_preset()
    if quick:
        preset = replace(
            preset, pretrain_epochs=60, num_rounds=1, client_epochs=2,
            malicious_epochs=5,
        )
    return preset


def bench_plan(preset, attacks=("fgsm", "label_flip", "pgd"), epsilons=(0.1, 0.5)):
    """A Fig. 5-shaped grid: attacks × ε on one building, one pre-train."""
    cells = tuple(
        scenario("safeloc", attack=attack, epsilon=eps)
        for attack in attacks
        for eps in epsilons
    )
    return SweepPlan(name="bench-sweep", preset=preset, cells=cells)


def _summaries(sweep):
    return [cell.error_summary for cell in sweep.cells]


def run_all(quick: bool = False) -> Dict[str, object]:
    """Full benchmark → result dict (shape of ``BENCH_sweep.json``)."""
    preset = bench_preset(quick)
    plan = bench_plan(preset)

    start = time.perf_counter()
    engine_sweep = SweepEngine().run(plan)
    engine_s = time.perf_counter() - start

    # the pre-refactor cost model: every cell pays its own data+pre-train
    start = time.perf_counter()
    naive_summaries = []
    for spec in plan.cells:
        single = SweepPlan(name="naive-cell", preset=preset, cells=(spec,))
        naive_summaries.extend(_summaries(SweepEngine().run(single)))
    naive_s = time.perf_counter() - start

    engine_matches_naive = naive_summaries == _summaries(engine_sweep)

    cache_dir = tempfile.mkdtemp(prefix="bench-sweep-")
    try:
        SweepEngine(cache_dir=cache_dir).run(plan)
        start = time.perf_counter()
        resumed = SweepEngine(cache_dir=cache_dir, resume=True).run(plan)
        resume_s = time.perf_counter() - start
        resumed_ok = (
            resumed.resumed_count() == len(plan.cells)
            and _summaries(resumed) == _summaries(engine_sweep)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # process executor: same plan across a process pool, bit-identity
    # asserted against the in-process engine run
    start = time.perf_counter()
    pooled = SweepEngine(jobs=2, executor="process").run(plan)
    process_s = time.perf_counter() - start
    process_ok = _summaries(pooled) == _summaries(engine_sweep)

    trained, reused = engine_sweep.pretrain_counts()
    n_cells = len(plan.cells)
    return {
        "meta": {
            "benchmark": "scenario engine vs per-cell loop",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "preset": preset.name,
            "protocol": "same cells, same process; engine shares staged "
            "artifacts, naive pays data+pretrain per cell; process pool "
            "re-runs the grid; bit-equality asserted for every path",
        },
        "headline": {
            "cell": f"{n_cells}-cell attack×ε sweep, one building",
            "engine_s": round(engine_s, 3),
            "naive_s": round(naive_s, 3),
            "speedup": round(naive_s / engine_s, 2),
            "cells_per_second": round(n_cells / engine_s, 2),
            "pretrain_cache_hit_rate": round(reused / n_cells, 3),
            "identical_summaries": bool(engine_matches_naive),
        },
        "sweep": {
            "cells": n_cells,
            "pretrains_trained": trained,
            "pretrains_reused": reused,
            "data_generated": engine_sweep.stats["data"]["misses"],
            "data_reused": engine_sweep.stats["data"]["hits"],
        },
        "resume": {
            "warm_resume_s": round(resume_s, 3),
            "cells_resumed": resumed.resumed_count(),
            "identical_summaries": bool(resumed_ok),
        },
        "process": {
            "cell": f"{n_cells}-cell sweep, --executor process --jobs 2",
            "jobs": 2,
            "process_s": round(process_s, 3),
            "engine_s": round(engine_s, 3),
            "identical_summaries": bool(process_ok),
        },
    }


def format_report(results: Dict[str, object]) -> str:
    head = results["headline"]
    sweep = results["sweep"]
    resume = results["resume"]
    process = results["process"]
    lines = [
        "scenario engine — staged sweep vs per-cell loop",
        "",
        f"HEADLINE  {head['cell']}: {head['speedup']}x "
        f"(naive {head['naive_s']} s -> engine {head['engine_s']} s, "
        f"{head['cells_per_second']} cells/s, "
        f"pretrain hit rate {head['pretrain_cache_hit_rate']:.0%})",
        f"  pretrains: {sweep['pretrains_trained']} trained, "
        f"{sweep['pretrains_reused']} reused across {sweep['cells']} cells",
        f"  data: {sweep['data_generated']} generated, "
        f"{sweep['data_reused']} reused",
        f"  warm resume: {resume['cells_resumed']} cells in "
        f"{resume['warm_resume_s']} s "
        f"(identical={resume['identical_summaries']})",
        f"  process pool: {process['cell']} in {process['process_s']} s "
        f"vs {process['engine_s']} s in-process "
        f"(identical={process['identical_summaries']})",
    ]
    return "\n".join(lines)


def write_json(results: Dict[str, object], path: str = JSON_PATH) -> str:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def test_perf_sweep(save_report):
    """Reduced sweep for the pytest bench harness (text report only)."""
    results = run_all(quick=True)
    save_report("perf_sweep", format_report(results))
    head = results["headline"]
    assert head["identical_summaries"]
    assert results["resume"]["identical_summaries"]
    assert results["process"]["identical_summaries"]
    assert head["pretrain_cache_hit_rate"] > 0.5
    assert head["speedup"] > 1.0

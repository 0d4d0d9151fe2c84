"""Packed-vs-reference aggregation microbenchmarks (perf trajectory).

Times every packed aggregation strategy — the ``(n_clients, n_params)``
engine behind ``aggregate`` — against its per-key dict reference in
``tests/reference/aggregation.py`` on identical cohorts in the same run,
checks they agree to 1e-10, and reports the speedups (the JSON keeps
the reference timing under its historical ``legacy_ms`` key).

Three model scales bracket the repo's workloads:

* ``ci``: the tier-1 test federation model (``DNNLocalizer(10, 6, (16,))``)
  — hundreds of parameters, where the reference's per-key × per-client
  Python overhead dominates and the packed engine wins the most;
* ``experiment``: the fused SAFELOC model at the tiny-preset building
  (23 APs / 18 RPs, ~23k params, 11 tensors) — the shape every tiny/fast
  experiment sweep aggregates;
* ``paper``: the fused model at UJIIndoorLoc scale (520 APs / 120 RPs,
  ~92k params), where both are memory-bandwidth-bound and the win
  converges to the ratio of passes over the data.

``scripts/run_benchmarks.py`` runs the full suite and writes
``BENCH_aggregation.json`` at the repo root; the pytest entry point runs
a reduced sweep and stores a text report under ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.dnn import DNNLocalizer
from repro.baselines.fedcc import ClusteredAggregation
from repro.baselines.krum import KrumAggregation
from repro.core.safeloc import SafeLocModel
from repro.core.saliency import SaliencyAggregation
from repro.fl.aggregation import ClientUpdate, FedAvg
from repro.fl.robust import CoordinateMedian, NormClipping, TrimmedMean
from repro.fl.state import state_weighted_mean

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_aggregation.json")

sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
from reference import aggregation as ref  # noqa: E402

#: the acceptance cell: packed must beat the reference ≥ 5× here
HEADLINE_SCALE = "ci"
HEADLINE_CLIENTS = 32

CLIENT_COUNTS = (6, 32, 128)

MODEL_SCALES: Dict[str, Callable[[], object]] = {
    "ci": lambda: DNNLocalizer(10, 6, hidden=(16,), seed=0),
    "experiment": lambda: SafeLocModel(23, 18, seed=0),
    "paper": lambda: SafeLocModel(520, 120, seed=0),
}

def _fedavg_reference(gm: dict, updates: Sequence[ClientUpdate]) -> dict:
    return state_weighted_mean(
        [u.state for u in updates], [max(1, u.num_samples) for u in updates]
    )


_ABSOLUTE = dict(mode="absolute", adjustment="scale")

#: name → (packed strategy factory, per-key reference function)
STRATEGIES: Dict[str, Tuple[Callable[[], object], Callable]] = {
    "saliency": (SaliencyAggregation, ref.saliency),
    "saliency-absolute": (
        lambda: SaliencyAggregation(**_ABSOLUTE),
        partial(ref.saliency, **_ABSOLUTE),
    ),
    "fedavg": (FedAvg, _fedavg_reference),
    "coordinate-median": (CoordinateMedian, ref.coordinate_median),
    "trimmed-mean": (
        lambda: TrimmedMean(trim=2),
        partial(ref.trimmed_mean, trim=2),
    ),
    "norm-clipping": (NormClipping, ref.norm_clipping),
    "krum": (
        lambda: KrumAggregation(num_byzantine=2),
        partial(ref.krum, num_byzantine=2),
    ),
    "fedcc-cluster": (
        lambda: ClusteredAggregation(seed=0),
        partial(ref.fedcc, seed=0),
    ),
}


def build_cohort(
    state: dict, n_clients: int, n_attackers: int = 1, seed: int = 0
) -> List[ClientUpdate]:
    """Honest jitter plus a few heavily deviating attacker updates."""
    rng = np.random.default_rng(seed)
    updates = []
    for i in range(n_clients):
        jitter = 0.5 if i < n_attackers else 0.01
        lm = {k: v + jitter * rng.normal(size=v.shape) for k, v in state.items()}
        updates.append(ClientUpdate(f"client-{i}", lm, num_samples=10 + i))
    return updates


def _time_min(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time over ``repeats`` calls (noise-floor estimate)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _max_state_diff(a: dict, b: dict) -> float:
    return max(float(np.abs(a[k] - b[k]).max()) for k in a)


def bench_cell(
    strategy_factory: Callable[[], object],
    reference: Callable,
    gm: dict,
    updates: Sequence[ClientUpdate],
    repeats: int,
) -> Dict[str, float]:
    """One (strategy, cohort) cell: packed and reference timed in the
    same run."""
    packed_strategy = strategy_factory()
    packed_out = packed_strategy.aggregate(gm, updates)  # warmup + output
    ref_out = reference(gm, updates)
    packed_s = _time_min(lambda: packed_strategy.aggregate(gm, updates), repeats)
    ref_s = _time_min(lambda: reference(gm, updates), repeats)
    return {
        "legacy_ms": round(ref_s * 1e3, 4),
        "packed_ms": round(packed_s * 1e3, 4),
        "speedup": round(ref_s / packed_s, 2),
        "max_abs_diff": float(_max_state_diff(packed_out, ref_out)),
    }


def _repeats_for(n_clients: int, scale: str, base: int) -> int:
    """More repeats for fast cells, fewer for the slow paper-scale ones."""
    if scale == "paper":
        return max(3, base // 4)
    if n_clients >= 128:
        return max(3, base // 2)
    if scale == "ci":
        return base * 4
    return base


def bench_aggregation(
    scales: Sequence[str] = tuple(MODEL_SCALES),
    client_counts: Sequence[int] = CLIENT_COUNTS,
    strategies: Sequence[str] = tuple(STRATEGIES),
    base_repeats: int = 12,
) -> Dict[str, dict]:
    """The full strategy × scale × cohort sweep."""
    results: Dict[str, dict] = {}
    for scale in scales:
        gm = MODEL_SCALES[scale]().state_dict()
        scale_result: Dict[str, dict] = {
            "n_params": int(sum(v.size for v in gm.values())),
            "n_tensors": len(gm),
            "cells": {},
        }
        for n_clients in client_counts:
            updates = build_cohort(gm, n_clients)
            for name in strategies:
                repeats = _repeats_for(n_clients, scale, base_repeats)
                cell = bench_cell(*STRATEGIES[name], gm, updates, repeats)
                scale_result["cells"][f"{name}/{n_clients}"] = cell
        results[scale] = scale_result
    return results


def run_all(quick: bool = False) -> Dict[str, object]:
    """Full benchmark → result dict (shape of ``BENCH_aggregation.json``)."""
    scales = ("ci", "experiment") if quick else tuple(MODEL_SCALES)
    client_counts = (6, 32) if quick else CLIENT_COUNTS
    aggregation = bench_aggregation(
        scales=scales,
        client_counts=client_counts,
        base_repeats=6 if quick else 12,
    )
    headline_key = f"saliency/{HEADLINE_CLIENTS}"
    headline = aggregation[HEADLINE_SCALE]["cells"][headline_key]
    return {
        "meta": {
            "benchmark": "packed vs per-key reference aggregation",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "protocol": "min wall time over repeats, both paths warmed, "
            "same cohort, same process",
        },
        "headline": {
            "cell": (
                f"saliency aggregation, {HEADLINE_CLIENTS} clients, "
                f"{HEADLINE_SCALE}-scale model"
            ),
            **headline,
        },
        "aggregation": aggregation,
    }


def format_report(results: Dict[str, object]) -> str:
    lines = ["packed aggregation engine — speedup vs per-key reference", ""]
    head = results["headline"]
    lines.append(
        f"HEADLINE  {head['cell']}: {head['speedup']}x "
        f"(reference {head['legacy_ms']} ms -> packed {head['packed_ms']} ms, "
        f"max|diff| {head['max_abs_diff']:.2e})"
    )
    for scale, block in results["aggregation"].items():
        lines.append(
            f"\n[{scale}] {block['n_params']} params, "
            f"{block['n_tensors']} tensors"
        )
        for cell, r in sorted(block["cells"].items()):
            lines.append(
                f"  {cell:26s} {r['speedup']:6.2f}x  "
                f"({r['legacy_ms']:9.3f} -> {r['packed_ms']:8.3f} ms, "
                f"diff {r['max_abs_diff']:.1e})"
            )
    return "\n".join(lines)


def write_json(results: Dict[str, object], path: str = JSON_PATH) -> str:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def test_perf_aggregation(save_report):
    """Reduced sweep for the pytest bench harness (text report only)."""
    results = run_all(quick=True)
    save_report("perf_aggregation", format_report(results))
    head = results["headline"]
    assert head["max_abs_diff"] < 1e-10
    assert head["speedup"] > 1.0

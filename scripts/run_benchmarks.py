#!/usr/bin/env python
"""Run the performance benchmarks and record the trajectory.

Three suites, each writing a JSON record at the repo root so the perf
trajectory is tracked PR over PR:

* ``aggregation`` — every packed aggregation strategy vs its per-key
  reference in ``tests/reference/aggregation.py`` (6/32/128-client
  cohorts at three model scales) → ``BENCH_aggregation.json``;
* ``sweep`` — the scenario engine's staged pipeline (shared data +
  pre-train artifacts, warm resume and the process-pool cell executor)
  vs the pre-refactor per-cell loop → ``BENCH_sweep.json``;
* ``fedls`` — fold-batched FEDLS leave-one-out detection vs the per-fold
  reference loop in ``tests/reference/fedls.py`` (detector fit at
  8/32/128 clients), the batched vs serial **client-round engine**
  (one stacked matmul program per federation round, 8–512 clients,
  bit-identity asserted — for plain DNN cohorts *and* the composite
  SAFELOC/ONLAD models), sampled-peers vs full leave-one-out detection,
  the O(n) shared-encoder detector (kept-set agreement gated), the
  ``tracemalloc`` peaks of each engine's round and of one FEDLS
  aggregate at 8/32/128 clients, and the µs per phase of one
  paper-shape SAFELOC pre-train step and one 32-fold DNN cohort step
  (pre-train bit-identity to the serial loop gated) →
  ``BENCH_fedls.json``.

Every suite re-asserts its equivalence contracts and the runner exits
non-zero when any of them fails, so bench runs double as a correctness
gate in CI.

Usage::

    PYTHONPATH=src python scripts/run_benchmarks.py \
        [--suite aggregation|sweep|fedls|all] [--quick] [--output PATH]
"""

from __future__ import annotations

import argparse
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
sys.path.insert(0, os.path.join(REPO_ROOT, "benchmarks"))

import bench_perf_aggregation  # noqa: E402
import bench_perf_fedls  # noqa: E402
import bench_perf_sweep  # noqa: E402


def _fail(message: str) -> int:
    print(f"EQUIVALENCE FAILURE: {message}")
    return 1


def _run_aggregation(quick: bool, output: str) -> int:
    results = bench_perf_aggregation.run_all(quick=quick)
    print(bench_perf_aggregation.format_report(results))
    path = bench_perf_aggregation.write_json(
        results, output or bench_perf_aggregation.JSON_PATH
    )
    print(f"\n[written to {path}]")
    code = 0
    # every cell is an equivalence assertion, not just the headline
    for scale, block in results["aggregation"].items():
        for cell, r in block["cells"].items():
            if r["max_abs_diff"] >= 1e-10:
                code |= _fail(
                    f"packed/reference disagreement {r['max_abs_diff']:.2e} "
                    f"at {scale}/{cell}"
                )
    return code


def _run_sweep(quick: bool, output: str) -> int:
    results = bench_perf_sweep.run_all(quick=quick)
    print(bench_perf_sweep.format_report(results))
    path = bench_perf_sweep.write_json(
        results, output or bench_perf_sweep.JSON_PATH
    )
    print(f"\n[written to {path}]")
    code = 0
    if not results["headline"]["identical_summaries"]:
        code |= _fail("engine sweep diverged from the naive per-cell loop")
    if not results["resume"]["identical_summaries"]:
        code |= _fail("resumed sweep diverged from the cold run")
    if not results["process"]["identical_summaries"]:
        code |= _fail(
            "process-pool sweep (--executor process) diverged from the "
            "in-process run"
        )
    return code


def _run_fedls(quick: bool, output: str) -> int:
    results = bench_perf_fedls.run_all(quick=quick)
    print(bench_perf_fedls.format_report(results))
    path = bench_perf_fedls.write_json(
        results, output or bench_perf_fedls.JSON_PATH
    )
    print(f"\n[written to {path}]")
    code = 0
    for message in bench_perf_fedls.equivalence_failures(results):
        code |= _fail(message)
    return code


_SUITES = {
    "aggregation": _run_aggregation,
    "sweep": _run_sweep,
    "fedls": _run_fedls,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite",
        choices=tuple(_SUITES) + ("all",),
        default="all",
        help="which benchmark suite(s) to run (default: all)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced sweeps (smaller grids and schedules)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="where to write the JSON record (only valid with a single "
        "suite; defaults to the repo-root BENCH_<suite>.json)",
    )
    args = parser.parse_args(argv)
    if args.output and args.suite == "all":
        parser.error("--output needs a single --suite")
    selected = tuple(_SUITES) if args.suite == "all" else (args.suite,)
    code = 0
    for index, suite in enumerate(selected):
        if index:
            print()
        code |= _SUITES[suite](args.quick, args.output)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

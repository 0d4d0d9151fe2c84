"""Smoke tests of the end-to-end benchmark (tier-1, a few seconds).

Runs every workload at ``--smoke`` size, untraced and traced, and checks
that the output matches ``BENCHMARK.json``, that span self times nest,
and that ``compare.py`` reaches the right verdicts.
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = HERE / "run.py"
SEED = 7


def _declaration():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _smoke(tmp_path_factory, trace):
    out = tmp_path_factory.mktemp(f"trace{trace}") / "runs.json"
    done = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seconds", "0",
         "--seed", str(SEED), "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(out) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _smoke(tmp_path_factory, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _smoke(tmp_path_factory, 1)


def _emitted(run):
    return {name: entry["unit"] for name, entry in run["metrics"].items()}


def test_untraced_runs_emit_exactly_the_end_to_end_metrics(untraced):
    declaration = _declaration()
    expected = {m["name"]: m["unit"] for m in declaration["end_to_end"]}
    names = [w["name"] for w in declaration["workloads"]]
    assert [run["workload"] for run in untraced["runs"]] == names
    for run in untraced["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        assert _emitted(run) == expected, run["workload"]
        assert all(e["value"] > 0 for e in run["metrics"].values())


def test_traced_runs_emit_exactly_the_per_layer_metrics(traced):
    expected = {m["name"]: m["unit"] for m in _declaration()["per_layer"]}
    for run in traced["runs"]:
        assert run["correct"]
        assert _emitted(run) == expected, run["workload"]


def test_meta_block_records_the_run_envelope(untraced):
    meta = untraced["meta"]
    assert meta["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert meta["seed"] == SEED
    for key in ("python", "numpy", "blas", "nproc", "git_rev"):
        assert meta[key]


def test_child_self_times_fit_inside_their_parent(traced):
    for run in traced["runs"]:
        path = HERE / "out" / f"trace-{run['workload']}-s{SEED}.jsonl"
        spans = {}
        child_self = defaultdict(float)
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if "span" not in record:
                    continue
                duration = record["end_s"] - record["start_s"]
                assert -1e-9 <= record["self_s"] <= duration + 1e-9
                spans[record["id"]] = duration
                if record["parent"] is not None:
                    child_self[record["parent"]] += record["self_s"]
        assert spans, path
        for parent, total in child_self.items():
            if parent in spans:
                assert total <= spans[parent] + 1e-9, (path, parent)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig6-mix"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class TestCompareVerdicts:
    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_same_numbers_are_unchanged(self):
        assert compare.verdict(self.BASE, self.BASE, "lower", 0.1) == (
            "unchanged", 0
        )

    def test_consistent_gain_beyond_the_spread_is_better(self):
        faster = [v * 0.8 for v in self.BASE]
        assert compare.verdict(self.BASE, faster, "lower", 0.1)[0] == "better"
        assert compare.verdict(faster, self.BASE, "higher", 0.1)[0] == "better"

    def test_loss_beyond_the_bound_is_worse(self):
        slower = [v * 1.2 for v in self.BASE]
        assert compare.verdict(self.BASE, slower, "lower", 0.1) == ("worse", 0)

    def test_small_loss_within_the_bound_is_unchanged(self):
        slower = [v * 1.03 for v in self.BASE]
        assert compare.verdict(self.BASE, slower, "lower", 0.1)[0] == (
            "unchanged"
        )

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0,
                 100.0]
        shuffled = noisy[5:] + noisy[:5]
        assert compare.verdict(noisy, shuffled, "lower", 0.1)[0] == (
            "unresolved"
        )

    def test_compare_pairs_runs_by_seed(self):
        declaration = {"end_to_end": [
            {"name": "op_p50_ms", "unit": "ms", "better": "lower",
             "bound": 0.1},
        ]}

        def run_set(values):
            return {"runs": [
                {"workload": "w", "seed": seed,
                 "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}}
                for seed, value in values
            ]}

        first = run_set([(2, 10.0), (1, 20.0)])
        second = run_set([(1, 19.0), (2, 9.0)])
        (row,) = compare.compare(first, second, declaration)
        assert row["wins"] == 2 and row["pairs"] == 2

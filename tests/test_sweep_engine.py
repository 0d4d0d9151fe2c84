"""Tests for the declarative scenario engine (specs, caching, parallel
execution, resume, and the float32 preset).

The heavier federation cells run on a shrunken tiny-preset variant so the
whole module stays seconds-scale.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.api import run_single
from repro.experiments.engine import (
    ScenarioSpec,
    SweepEngine,
    SweepPlan,
    scenario,
)
from repro.experiments.scenarios import get_preset, tiny_preset


def mini_preset(seed: int = 42):
    """tiny, further shrunk: same code paths, fraction of the epochs."""
    return replace(
        tiny_preset(seed),
        pretrain_epochs=40,
        num_rounds=1,
        client_epochs=2,
        malicious_epochs=5,
    )


def mini_plan(preset, name="mini"):
    """Four cells sharing one building/pre-train: 2 attacks × 2 ε."""
    cells = tuple(
        scenario("safeloc", attack=attack, epsilon=eps)
        for attack in ("fgsm", "label_flip")
        for eps in (0.1, 0.5)
    )
    return SweepPlan(name=name, preset=preset, cells=cells)


def summaries_of(sweep):
    return [cell.error_summary for cell in sweep.cells]


class TestScenarioSpec:
    def test_scenario_normalizes_kwargs_and_epsilon(self):
        spec = scenario(
            "safeloc", framework_kwargs={"tau": 0.2, "mode": "absolute"}
        )
        assert spec.framework_kwargs == (("mode", "absolute"), ("tau", 0.2))
        assert spec.kwargs == {"tau": 0.2, "mode": "absolute"}
        # clean cells carry no epsilon
        assert scenario("safeloc", epsilon=0.7).epsilon == 0.0
        assert scenario("safeloc", attack="fgsm", epsilon=0.7).epsilon == 0.7

    def test_specs_are_hashable_and_label_free_identity(self):
        a = scenario("safeloc", attack="fgsm", epsilon=0.5, label="x")
        b = scenario("safeloc", attack="fgsm", epsilon=0.5, label="y")
        assert hash(a) != hash(b) or a != b  # labels distinguish specs
        assert a.identity() == b.identity()  # but not cell identity

    def test_plan_rejects_empty_and_unknown_kind(self):
        preset = tiny_preset()
        with pytest.raises(ValueError):
            SweepPlan(name="empty", preset=preset, cells=())
        with pytest.raises(ValueError):
            SweepPlan(
                name="x",
                preset=preset,
                cells=(ScenarioSpec(),),
                kind="quantum",
            )


class TestStagedCaching:
    def test_one_pretrain_for_shared_cells(self):
        sweep = SweepEngine().run(mini_plan(mini_preset()))
        trained, reused = sweep.pretrain_counts()
        assert trained == 1
        assert reused == len(sweep.cells) - 1
        assert sweep.stats["data"]["misses"] == 1

    @staticmethod
    def _monolithic(preset, framework, attack, epsilon):
        """The pre-refactor unsplit pipeline, inlined."""
        from repro.attacks import create_attack
        from repro.baselines.registry import make_framework
        from repro.data.fingerprints import paper_protocol
        from repro.fl.simulation import build_federation
        from repro.metrics.localization import evaluate_model
        from repro.utils.rng import SeedSequence

        building = preset.building(preset.buildings[0])
        train, tests = paper_protocol(building, seed=preset.seed)
        spec = make_framework(
            framework, building.num_aps, building.num_rps, seed=preset.seed
        )
        config = preset.federation_config(
            num_malicious=preset.num_malicious if attack else 0
        )
        attack_factory = None
        if attack:
            attack_factory = lambda: create_attack(
                attack, epsilon, num_classes=building.num_rps
            )
        server = build_federation(
            building,
            spec.model_factory,
            spec.strategy,
            config,
            SeedSequence(preset.seed),
            attack_factory=attack_factory,
        )
        server.pretrain(
            train, epochs=config.pretrain_epochs, lr=config.pretrain_lr
        )
        server.run_rounds(config.num_rounds)
        return evaluate_model(server.model, tests, building)

    def test_cached_pipeline_matches_monolithic_run(self):
        """Stage-cached cells reproduce the unsplit pipeline bit-for-bit."""
        preset = mini_preset()
        monolithic = self._monolithic(preset, "safeloc", "fgsm", 0.5)
        sweep = SweepEngine().run(mini_plan(preset))
        by_cell = {
            (c.spec.attack, c.spec.epsilon): c.error_summary
            for c in sweep.cells
        }
        assert by_cell[("fgsm", 0.5)] == monolithic

    @pytest.mark.parametrize(
        "framework", ["onlad", "fedhil", "fedcc", "fedls", "fedloc"]
    )
    def test_cached_pretrain_exact_for_every_framework(self, framework):
        """load_state_dict(cached pre-train) must equal pre-training in
        place for every comparison framework — the guarantee rests on each
        model's state_dict capturing all training-mutated state (ONLAD's
        two networks, FEDLS's detector-driven strategy, …)."""
        preset = mini_preset()
        attack, eps = ("label_flip", 1.0)
        monolithic = self._monolithic(preset, framework, attack, eps)
        cell = SweepEngine().run(
            SweepPlan(
                name=f"mono-{framework}",
                preset=preset,
                cells=(scenario(framework, attack=attack, epsilon=eps),),
            )
        ).cells[0]
        assert cell.error_summary == monolithic

    def test_tau_sweep_shares_pretrain(self):
        """τ never touches the trusted pre-train, so a τ grid costs one."""
        preset = mini_preset()
        cells = tuple(
            scenario(
                "safeloc",
                attack="fgsm",
                epsilon=0.5,
                framework_kwargs={"tau": tau},
            )
            for tau in (0.05, 0.3)
        )
        sweep = SweepEngine().run(
            SweepPlan(name="tau", preset=preset, cells=cells)
        )
        assert sweep.pretrain_counts() == (1, 1)
        # different τ must still produce its own federation outcome object
        assert all(c.error_summary is not None for c in sweep.cells)


class TestDeterminism:
    """Same seed ⇒ identical SweepResult sequentially, pooled, resumed."""

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepEngine().run(mini_plan(mini_preset()))

    def test_parallel_matches_sequential(self, reference):
        parallel = SweepEngine(jobs=4).run(mini_plan(mini_preset()))
        assert summaries_of(parallel) == summaries_of(reference)
        assert [c.flagged_per_round for c in parallel.cells] == [
            c.flagged_per_round for c in reference.cells
        ]

    def test_resumed_matches_fresh(self, reference, tmp_path):
        preset = mini_preset()
        plan = mini_plan(preset)
        cache = str(tmp_path / "cache")
        # half the sweep, persisted
        half = SweepPlan(name=plan.name, preset=preset, cells=plan.cells[:2])
        SweepEngine(cache_dir=cache).run(half)
        # full sweep resumed from the half-finished cache
        resumed = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert resumed.resumed_count() == 2
        assert [c.resumed for c in resumed.cells] == [True, True, False, False]
        assert summaries_of(resumed) == summaries_of(reference)

    def test_run_single_equals_engine_cell(self, reference):
        preset = mini_preset()
        result = run_single("safeloc", preset, attack="fgsm", epsilon=0.1)
        assert result.error_summary == reference.cells[0].error_summary


class TestResumeStore:
    def test_cell_json_roundtrip(self, tmp_path):
        preset = mini_preset()
        plan = SweepPlan(
            name="one",
            preset=preset,
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        cache = str(tmp_path / "cache")
        first = SweepEngine(cache_dir=cache).run(plan)
        second = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert second.resumed_count() == 1
        a, b = first.cells[0], second.cells[0]
        assert a.error_summary == b.error_summary
        assert a.spec == b.spec
        assert a.building == b.building
        assert a.flagged_per_round == b.flagged_per_round
        assert a.parameter_count == b.parameter_count

    def test_resume_keeps_requested_label(self, tmp_path):
        """Cache keys are label-free, so a cell stored by one plan can be
        resumed by another — but it must come back wearing the *requested*
        spec, not the stored one (ablation drivers bucket by label)."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        stored = scenario(
            "safeloc", attack="fgsm", epsilon=0.5,
            strategy="saliency-relative", label="saliency-relative/x",
        )
        requested = scenario(
            "safeloc", attack="fgsm", epsilon=0.5,
            strategy="saliency-relative", label="denoise-on/x",
        )
        SweepEngine(cache_dir=cache).run(
            SweepPlan(name="a", preset=preset, cells=(stored,))
        )
        resumed = SweepEngine(cache_dir=cache, resume=True).run(
            SweepPlan(name="b", preset=preset, cells=(requested,))
        )
        assert resumed.resumed_count() == 1
        assert resumed.cells[0].spec == requested

    def test_resume_shares_default_and_explicit_building(self, tmp_path):
        """building=None and the explicit first-building name are the
        same cell and must share one cache entry."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        implicit = scenario("safeloc", attack="fgsm", epsilon=0.5)
        explicit = scenario(
            "safeloc", attack="fgsm", epsilon=0.5,
            building=preset.buildings[0],
        )
        SweepEngine(cache_dir=cache).run(
            SweepPlan(name="a", preset=preset, cells=(implicit,))
        )
        resumed = SweepEngine(cache_dir=cache, resume=True).run(
            SweepPlan(name="b", preset=preset, cells=(explicit,))
        )
        assert resumed.resumed_count() == 1

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ValueError):
            SweepEngine(resume=True)

    def test_corrupt_disk_artifact_recomputed(self, tmp_path):
        """A truncated .npz (killed writer) must recompute, not crash."""

        preset = mini_preset()
        cache = str(tmp_path / "cache")
        plan = SweepPlan(
            name="one",
            preset=preset,
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        reference = SweepEngine(cache_dir=cache).run(plan)
        pretrain_dir = tmp_path / "cache" / "pretrain"
        archives = list(pretrain_dir.glob("*.npz"))
        assert archives
        archives[0].write_bytes(b"PK\x03\x04 truncated")
        # no stale temp files left behind by the atomic writes either
        assert not list(tmp_path.rglob(".tmp-*"))
        # fresh engine (cold memo) must survive the corrupt artifact
        again = SweepEngine(cache_dir=cache).run(plan)
        assert summaries_of(again) == summaries_of(reference)

    @pytest.mark.parametrize(
        "shape",
        [
            "torn", "missing-spec", "unknown-spec-field", "list-root",
            "string-mean", "string-flagged",
        ],
    )
    def test_invalid_ledger_record_recomputed(self, tmp_path, shape):
        """A resume-ledger record that does not rebuild a cell is a miss:
        the cell reruns, and its fresh record resumes next time."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        plan = SweepPlan(
            name="one",
            preset=preset,
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        reference = SweepEngine(cache_dir=cache).run(plan)
        (path,) = (tmp_path / "cache" / "cells").glob("*.json")
        text = path.read_text()
        record = json.loads(text)
        if shape == "torn":
            text = text[: len(text) // 2]
        elif shape == "missing-spec":
            del record["spec"]
            text = json.dumps(record)
        elif shape == "unknown-spec-field":
            record["spec"]["engine"] = {"executor": "serial"}
            text = json.dumps(record)
        elif shape == "string-mean":
            record["error_summary"]["mean"] = "oops"
            text = json.dumps(record)
        elif shape == "string-flagged":
            record["flagged_per_round"] = "abc"
            text = json.dumps(record)
        else:
            text = json.dumps([record])
        path.write_text(text)
        again = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert again.resumed_count() == 0
        assert again.stats["cells"].get("hits", 0) == 0
        assert summaries_of(again) == summaries_of(reference)
        rerun = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert rerun.resumed_count() == 1

    def test_scenario_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            scenario("safeloc", strategy="majority-vote")

    def test_footprint_cells_never_resume(self, tmp_path):
        """Latency is a measurement, not a pure function — Table I cells
        must be re-measured every run, never served from the cache."""
        from repro.experiments.table1_overheads import plan_table1

        plan = plan_table1(mini_preset())
        cache = str(tmp_path / "cache")
        SweepEngine(cache_dir=cache).run(plan)
        assert not (tmp_path / "cache" / "cells").exists()
        again = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert again.resumed_count() == 0

    def test_resume_ignores_other_presets(self, tmp_path):
        """A cached cell from one preset must not satisfy another."""
        cache = str(tmp_path / "cache")
        plan42 = SweepPlan(
            name="p",
            preset=mini_preset(42),
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        plan43 = SweepPlan(
            name="p",
            preset=mini_preset(43),
            cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
        )
        SweepEngine(cache_dir=cache).run(plan42)
        other = SweepEngine(cache_dir=cache, resume=True).run(plan43)
        assert other.resumed_count() == 0


def eps_plan(preset, name="eps", epsilons=(0.1, 0.5)):
    """A Fig. 5-shaped ε grid on one attack."""
    cells = tuple(
        scenario("safeloc", attack="fgsm", epsilon=eps) for eps in epsilons
    )
    return SweepPlan(name=name, preset=preset, cells=cells)


class TestProcessExecutor:
    """`executor="process"`: pool cells, bit-identical to sequential."""

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepEngine().run(eps_plan(mini_preset()))

    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            SweepEngine(executor="gpu")

    def test_process_pool_matches_sequential(self, reference):
        pooled = SweepEngine(jobs=2, executor="process").run(
            eps_plan(mini_preset())
        )
        assert summaries_of(pooled) == summaries_of(reference)
        assert [c.flagged_per_round for c in pooled.cells] == [
            c.flagged_per_round for c in reference.cells
        ]
        assert [c.parameter_count for c in pooled.cells] == [
            c.parameter_count for c in reference.cells
        ]
        assert pooled.executor == "process"
        # worker stage counters must fold back into the sweep report
        assert pooled.stats["pretrain"]["misses"] >= 1
        assert pooled.stats["cells"]["misses"] == len(pooled.cells)

    def test_process_pool_shares_disk_cache(self, reference, tmp_path):
        """Workers share data/pre-train artifacts through --cache-dir."""
        cache = str(tmp_path / "cache")
        SweepEngine(cache_dir=cache).run(eps_plan(mini_preset()))
        pooled = SweepEngine(
            jobs=2, executor="process", cache_dir=cache
        ).run(eps_plan(mini_preset()))
        assert summaries_of(pooled) == summaries_of(reference)
        assert pooled.stats["pretrain"]["hits"] == len(pooled.cells)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_resumed_cells_keep_requested_label(self, executor, tmp_path):
        """Resume relabeling (cache keys are label-free) must survive
        either executor: resumed cells come back wearing the *requested*
        spec, fresh cells run on the executor."""
        preset = mini_preset()
        cache = str(tmp_path / "cache")
        stored = eps_plan(preset, name="a").cells
        stored = tuple(
            ScenarioSpec(**{**asdict(spec), "label": f"stored/{i}"})
            for i, spec in enumerate(stored)
        )
        SweepEngine(cache_dir=cache).run(
            SweepPlan(name="a", preset=preset, cells=stored)
        )
        requested = tuple(
            ScenarioSpec(**{**asdict(spec), "label": f"wanted/{i}"})
            for i, spec in enumerate(stored)
        )
        resumed = SweepEngine(
            jobs=2, executor=executor, cache_dir=cache, resume=True
        ).run(SweepPlan(name="b", preset=preset, cells=requested))
        assert resumed.resumed_count() == len(requested)
        assert tuple(c.spec for c in resumed.cells) == requested
        assert all(c.spec.label.startswith("wanted/") for c in resumed.cells)


class TestSweepResultStats:
    def test_cells_per_second_never_inf(self):
        from repro.experiments.engine import CellResult, SweepResult

        warm = SweepResult(
            plan_name="p", preset_name="tiny", seed=42, kind="federation",
            cells=[CellResult(spec=ScenarioSpec(), resumed=True)],
            stats={}, duration_s=0.0,
        )
        assert warm.cells_per_second == 0.0
        assert "n/a cells/s" in warm.format_stats()
        assert "inf" not in warm.format_stats()
        timed = SweepResult(
            plan_name="p", preset_name="tiny", seed=42, kind="federation",
            cells=[CellResult(spec=ScenarioSpec())], stats={},
            duration_s=2.0,
        )
        assert timed.cells_per_second == 0.5

    def test_report_names_the_backend_that_ran(self):
        """The report names the executor that ran the cells, not the
        engine's setting: ``jobs=1`` runs inline, and a footprint plan
        runs inline even on an engine set up for a process pool."""
        inline = SweepEngine(jobs=1).run(
            eps_plan(mini_preset(), epsilons=(0.5,))
        )
        assert inline.executor == "serial"
        assert "jobs=1, serial" in inline.format_stats()
        footprint = SweepPlan(
            name="footprint",
            preset=replace(mini_preset(), latency_repeats=2),
            cells=(scenario("fedloc", input_dim=8, num_classes=5),),
            kind="footprint",
        )
        pooled_engine = SweepEngine(jobs=2)
        assert pooled_engine.config.backend == "process"
        measured = pooled_engine.run(footprint)
        assert measured.executor == "serial"
        assert "jobs=2, serial" in measured.format_stats()


    def test_explicit_process_at_one_job_reports_process(self):
        """``executor="process"`` at ``jobs=1`` still runs the cell in a
        one-worker pool, and the report says so."""
        sweep = SweepEngine(jobs=1, executor="process").run(
            eps_plan(mini_preset(), epsilons=(0.5,))
        )
        assert sweep.executor == "process"
        assert "jobs=1, process" in sweep.format_stats()


class TestFast32Preset:
    def test_registered(self):
        preset = get_preset("fast32")
        assert preset.name == "fast32"
        assert preset.compute_dtype == "float32"
        assert get_preset("fast").compute_dtype == "float64"

    def test_float32_drift_within_tolerance(self):
        """The half-width path tracks float64 closely: localization is
        discrete, so small weight drift flips few predictions.  Tolerance:
        ≤ 0.25 m absolute mean-error drift at mini scale (measured drift
        is ~0.01 m)."""
        preset64 = mini_preset()
        preset32 = replace(preset64, name="mini32", compute_dtype="float32")
        for framework, attack, eps in (
            ("safeloc", "fgsm", 0.5),
            ("fedloc", None, 0.0),
        ):
            a = run_single(
                framework, preset64, attack=attack, epsilon=eps
            ).error_summary
            b = run_single(
                framework, preset32, attack=attack, epsilon=eps
            ).error_summary
            assert abs(a.mean - b.mean) <= 0.25
            assert a.count == b.count

    def test_float32_states_are_float32(self):
        from repro.baselines.registry import make_framework
        from repro.nn.dtype import compute_dtype

        with compute_dtype(np.float32):
            model = make_framework("fedloc", 8, 5, seed=0).model_factory()
            assert all(
                v.dtype == np.float32 for v in model.state_dict().values()
            )

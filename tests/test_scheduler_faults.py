"""Fault-tolerance tests: the scheduler, the chaos harness, and the
(raise | hang | kill) × (serial | process) fault matrix.

Scheduler-level tests drive :class:`CellScheduler` with cheap stub cell
bodies, inline and on a real process pool, so retry/backoff/timeout/
abort logic is exercised in milliseconds.  The fault matrix runs real federation cells on a
shrunken tiny preset and asserts the ISSUE acceptance shape: an injured
sweep completes under ``on_error="continue"``, persists every healthy
cell, re-runs only the injured cell on ``--resume``, and the surviving
results are bit-identical to an undisturbed sequential run.
"""

import math
import os
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.cli import main
from repro.experiments.chaos import (
    ChaosError,
    ChaosSpec,
    WorkerKilled,
    resolve_chaos,
)
from repro.experiments.engine import (
    SweepEngine,
    SweepPlan,
    scenario,
)
from repro.experiments.scenarios import tiny_preset
from repro.experiments.scheduler import (
    ENGINE_KNOBS,
    EXECUTORS,
    CellFailure,
    CellScheduler,
    CellTimeout,
    EngineConfig,
    EngineConfigError,
    ExecutorBackend,
    ProcessBackend,
    SerialBackend,
    SweepInterrupted,
    backoff_delay,
)
from repro.experiments.specio import (
    SpecValidationError,
    validate_plan_payload,
)


#: (mode, executor) rows of the fault matrix: a hang is only observable
#: where a timeout can preempt the cell, i.e. on the process pool
FAULT_MATRIX = [
    (mode, executor)
    for executor in EXECUTORS
    for mode in ("raise", "hang", "kill")
    if not (mode == "hang" and executor == "serial")
]


def stub_cell(task):
    """Cheap cell body for scheduler tests, importable so a process pool
    can run it.  ``task`` carries the (index, attempt) coordinates and
    an optional ``fault`` that the ``injured`` cell suffers on its first
    ``attempts`` attempts: ``raise``, ``keyerror``, ``hang`` (sleeps
    past any test timeout) or ``exit`` (the worker process dies)."""
    index, attempt = task["index"], task["attempt"]
    if index == task.get("injured") and attempt < task.get("attempts", 1):
        fault = task["fault"]
        if fault == "raise":
            raise RuntimeError("transient")
        if fault == "keyerror":
            raise KeyError("boom")
        if fault == "hang":
            time.sleep(30.0)
        if fault == "exit":
            os._exit(1)
    return index


def stub_backend(kind, workers=2, **fault):
    """A backend running :func:`stub_cell` inline or on a process pool."""

    def payload(index, attempt):
        return {"index": index, "attempt": attempt, **fault}

    if kind == "serial":
        return SerialBackend(lambda i, a: stub_cell(payload(i, a)))
    return ProcessBackend(stub_cell, payload, workers)


def mini_preset(seed: int = 42):
    return replace(
        tiny_preset(seed),
        pretrain_epochs=40,
        num_rounds=1,
        client_epochs=2,
        malicious_epochs=5,
    )


def tri_plan(preset, name="faults"):
    """Three cells sharing one building/pre-train (one ε grid)."""
    cells = tuple(
        scenario("safeloc", attack="fgsm", epsilon=eps)
        for eps in (0.1, 0.5, 1.0)
    )
    return SweepPlan(name=name, preset=preset, cells=cells)


def summaries_of(sweep):
    return [cell.error_summary for cell in sweep.cells]


def cell_store_count(tmp_path) -> int:
    cells = tmp_path / "cache" / "cells"
    return len(list(cells.glob("*.json"))) if cells.exists() else 0


class TestChaosSpec:
    def test_token_round_trip(self):
        for spec in (
            ChaosSpec(2, "kill"),
            ChaosSpec(0, "hang", attempts=3, hang_s=2.5),
            ChaosSpec(1, "raise", stage="finish"),
        ):
            assert ChaosSpec.from_token(spec.token()) == spec

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert ChaosSpec.from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "2:kill:attempts=2")
        assert ChaosSpec.from_env() == ChaosSpec(2, "kill", attempts=2)

    def test_resolve_accepts_spec_token_and_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert resolve_chaos(None) is None
        assert resolve_chaos("1:raise") == ChaosSpec(1, "raise")
        spec = ChaosSpec(0, "hang")
        assert resolve_chaos(spec) is spec

    def test_rejects_bad_tokens_and_fields(self):
        for token in ("", "kill", "x:kill", "1:melt", "1:kill:bogus=1"):
            with pytest.raises(ValueError):
                ChaosSpec.from_token(token)
        with pytest.raises(ValueError):
            ChaosSpec(-1, "raise")
        with pytest.raises(ValueError):
            ChaosSpec(0, "raise", attempts=0)
        with pytest.raises(ValueError):
            ChaosSpec(0, "raise", stage="middle")

    def test_attempt_gating_heals(self):
        spec = ChaosSpec(1, "raise", attempts=2)
        assert spec.fires(1, 0, "start")
        assert spec.fires(1, 1, "start")
        assert not spec.fires(1, 2, "start")  # healed
        assert not spec.fires(0, 0, "start")  # wrong cell
        assert not spec.fires(1, 0, "finish")  # wrong stage

    def test_inject_kinds(self):
        with pytest.raises(ChaosError):
            ChaosSpec(0, "raise").inject()
        with pytest.raises(WorkerKilled):
            ChaosSpec(0, "kill").inject()  # serial simulation
        with pytest.raises(KeyboardInterrupt):
            ChaosSpec(0, "interrupt").inject()


class TestSchedulerUnit:
    """Scheduler logic on stub cell bodies — no federations."""

    @staticmethod
    def run_scheduler(body, n=3, **kwargs):
        scheduler = CellScheduler(
            SerialBackend(body),
            EngineConfig(
                backoff_base=kwargs.pop("backoff_base", 0.01), **kwargs
            ),
        )
        scheduler.run(range(n))
        return scheduler

    def test_clean_run_collects_in_completion_order(self):
        seen = []
        scheduler = CellScheduler(
            SerialBackend(lambda i, a: i * 10),
            on_complete=lambda i, r: seen.append((i, r)),
        )
        scheduler.run(range(3))
        assert scheduler.results == {0: 0, 1: 10, 2: 20}
        assert seen == [(0, 0), (1, 10), (2, 20)]
        assert not scheduler.failures

    @staticmethod
    def run_stub(kind, n=3, fault=None, **kwargs):
        scheduler = CellScheduler(
            stub_backend(kind, **(fault or {})),
            EngineConfig(
                executor=kind,
                backoff_base=kwargs.pop("backoff_base", 0.01),
                **kwargs,
            ),
        )
        scheduler.run(range(n))
        return scheduler

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_transient_failure_heals_with_retry(self, backend):
        scheduler = self.run_stub(
            backend, fault={"injured": 1, "fault": "raise"}, retries=1
        )
        assert scheduler.results == {0: 0, 1: 1, 2: 2}
        assert scheduler.retried == 1
        assert not scheduler.failures

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_abort_reraises_the_original_error(self, backend):
        with pytest.raises(KeyError):
            self.run_stub(
                backend,
                fault={"injured": 1, "fault": "keyerror"},
                on_error="abort",
            )

    def test_continue_records_structured_failure(self):
        def body(index, attempt):
            if index == 2:
                raise RuntimeError("persistent")
            return index

        scheduler = self.run_scheduler(
            body, on_error="continue", retries=1
        )
        assert set(scheduler.results) == {0, 1}
        failure = scheduler.failures[2]
        assert isinstance(failure, CellFailure)
        assert failure.kind == "exception"
        assert failure.error_type == "RuntimeError"
        assert failure.attempts == 2  # initial + 1 retry
        assert scheduler.retried == 1

    def test_worker_killed_classified_as_crash(self):
        def body(index, attempt):
            if index == 0:
                raise WorkerKilled("simulated")
            return index

        scheduler = self.run_scheduler(body, on_error="continue")
        assert scheduler.failures[0].kind == "crash"

    def test_process_timeout_kills_and_records(self):
        scheduler = self.run_stub(
            "process",
            fault={"injured": 1, "fault": "hang"},
            cell_timeout=2.0,
            on_error="continue",
        )
        assert set(scheduler.results) == {0, 2}
        assert scheduler.failures[1].kind == "timeout"
        assert scheduler.failures[1].error_type == "CellTimeout"
        assert scheduler.timed_out == 1

    def test_timeout_retry_then_heal(self):
        """The hung attempt is killed with its pool; the re-dispatch
        runs attempt 1, and innocents are not charged an attempt."""
        scheduler = self.run_stub(
            "process",
            fault={"injured": 0, "fault": "hang"},
            cell_timeout=2.0,
            retries=1,
            on_error="abort",
        )
        assert scheduler.results == {0: 0, 1: 1, 2: 2}
        assert scheduler.timed_out == 1 and scheduler.retried == 1
        assert not scheduler.failures

    def test_worker_death_rebuilds_pool_and_heals(self):
        scheduler = self.run_stub(
            "process",
            fault={"injured": 0, "fault": "exit"},
            retries=1,
        )
        assert scheduler.results == {0: 0, 1: 1, 2: 2}
        assert scheduler.retried >= 1
        assert not scheduler.failures

    def test_worker_death_without_retry_is_a_crash(self):
        scheduler = self.run_stub(
            "process",
            n=1,
            fault={"injured": 0, "fault": "exit"},
            on_error="continue",
        )
        assert not scheduler.results
        assert scheduler.failures[0].kind == "crash"
        assert scheduler.failures[0].attempts == 1

    def test_interrupt_raises_sweep_interrupted(self):
        def body(index, attempt):
            if index == 2:
                raise KeyboardInterrupt()
            return index

        with pytest.raises(SweepInterrupted) as excinfo:
            self.run_scheduler(body)
        assert excinfo.value.finished == 2
        assert excinfo.value.total == 3

    def test_backoff_is_deterministic_and_exponential(self):
        assert backoff_delay(0.5, 0) == 0.5
        assert backoff_delay(0.5, 1) == 1.0
        assert backoff_delay(0.5, 3) == 4.0

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            EngineConfig(on_error="panic")
        with pytest.raises(ValueError):
            EngineConfig(retries=-1)
        with pytest.raises(ValueError):
            EngineConfig(executor="process", cell_timeout=0)


class TestEngineKnobValidation:
    def test_rejects_bad_fault_knobs(self):
        with pytest.raises(ValueError):
            SweepEngine(cell_timeout=-1)
        with pytest.raises(ValueError):
            SweepEngine(retries=-1)
        with pytest.raises(ValueError):
            SweepEngine(on_error="panic")
        with pytest.raises(ValueError):
            SweepEngine(chaos="not-a-token")

    def test_cell_timeout_needs_the_process_executor(self):
        """A serial run executes cells inline and cannot preempt one, so
        a timeout there is refused rather than silently ignored."""
        for knobs in ({}, {"jobs": 1}, {"jobs": 4, "executor": "serial"}):
            with pytest.raises(ValueError, match='executor="process"'):
                SweepEngine(cell_timeout=30, **knobs)
        engine = SweepEngine(jobs=2, cell_timeout=30)
        assert engine.config.backend == "process"
        single = SweepEngine(jobs=1, executor="process", cell_timeout=30)
        assert single.config.cell_timeout == 30

    @pytest.mark.parametrize(
        "knob,value,flag",
        [
            ("jobs", 0, "0"),
            ("jobs", 2.5, None),  # argparse refuses the flag itself
            ("jobs", True, None),
            ("retries", -1, "-1"),
            ("retries", 1.9, None),
            ("retries", True, None),
            ("cell_timeout", 0, "0"),
            ("cell_timeout", math.nan, "nan"),
            ("cell_timeout", math.inf, "inf"),
            ("executor", "gpu", None),
        ],
    )
    def test_every_entry_point_refuses_a_bad_knob(self, knob, value, flag):
        """Engine, builder setter, spec ``engine`` block and CLI flag all
        refuse the same value.  A timeout is paired with the process
        executor, so only the bad value itself can be at fault."""
        process = {"executor": "process"} if knob == "cell_timeout" else {}
        with pytest.raises(EngineConfigError, match=knob):
            SweepEngine(**{knob: value}, **process)
        builder = api.experiment("fig4").preset("tiny")
        with pytest.raises(EngineConfigError, match=knob):
            getattr(builder, knob)(value)
        payload = builder.spec()
        payload["engine"] = {knob: value}
        with pytest.raises(SpecValidationError) as excinfo:
            validate_plan_payload(payload)
        assert len(excinfo.value.errors) == 1
        assert f"engine.{knob}" in excinfo.value.errors[0]
        if flag is not None:
            argv = ["experiment", "fig4", "--preset", "tiny",
                    "--executor", "process",
                    f"--{knob.replace('_', '-')}", flag]
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        knob=st.sampled_from(ENGINE_KNOBS),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-2, 4),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(EXECUTORS + ("thread", "abort", "continue")),
        ),
    )
    def test_builder_spec_always_validates(self, knob, value):
        """Whatever ``spec()`` writes, ``repro validate`` accepts: a bad
        knob is refused by its setter, never written."""
        builder = api.experiment("fig4").preset("tiny")
        try:
            getattr(builder, knob)(value)
        except EngineConfigError:
            return
        validate_plan_payload(builder.spec())

    def test_every_backend_is_selectable(self):
        """Each ExecutorBackend is reachable from the frontends, so the
        fault matrix below (over EXECUTORS) covers every backend."""
        backends = {cls.name for cls in ExecutorBackend.__subclasses__()}
        assert backends == set(EXECUTORS)

    def test_serial_executor_is_accepted(self):
        sweep = SweepEngine(jobs=4, executor="serial").run(
            SweepPlan(
                name="serial",
                preset=mini_preset(),
                cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
            )
        )
        assert sweep.executor == "serial"
        assert len(sweep.cells) == 1


class TestFaultMatrix:
    """(raise | hang | kill) × (serial | process): the sweep completes,
    healthy cells persist, resume re-runs only the injured cell, and
    survivors are bit-identical to a clean sequential run.  A serial
    ``kill`` is the simulated :class:`WorkerKilled` crash."""

    #: per-mode knobs: hang needs a timeout to be observable (process
    #: pool only), and the hang must outlive it
    MODES = {
        "raise": dict(chaos="1:raise", cell_timeout=None),
        "hang": dict(chaos="1:hang:hang_s=12", cell_timeout=4),
        "kill": dict(chaos="1:kill", cell_timeout=None),
    }
    KINDS = {"raise": "exception", "hang": "timeout", "kill": "crash"}

    @pytest.fixture(scope="class")
    def reference(self):
        return SweepEngine().run(tri_plan(mini_preset()))

    @pytest.mark.parametrize("mode,executor", FAULT_MATRIX)
    def test_injured_sweep_completes_and_resumes(
        self, mode, executor, reference, tmp_path
    ):
        knobs = self.MODES[mode]
        cache = str(tmp_path / "cache")
        plan = tri_plan(mini_preset())
        injured = SweepEngine(
            jobs=1,
            executor=executor,
            cache_dir=cache,
            on_error="continue",
            cell_timeout=knobs["cell_timeout"],
            chaos=knobs["chaos"],
        ).run(plan)
        # the injured cell became a structured failure; the rest ran
        assert len(injured.cells) == 2
        assert len(injured.failures) == 1
        failure = injured.failures[0]
        assert failure.index == 1
        assert failure.kind == self.KINDS[mode]
        assert failure.spec == plan.cells[1]
        assert failure.attempts == 1
        if mode == "hang":
            assert injured.timed_out == 1
        # every healthy cell hit the resume ledger
        assert cell_store_count(tmp_path) == 2
        # resume: only the injured cell re-runs, results bit-identical
        resumed = SweepEngine(
            jobs=1,
            executor=executor,
            cache_dir=cache,
            resume=True,
        ).run(plan)
        assert resumed.resumed_count() == 2
        assert resumed.stats["cells"]["misses"] == 1
        assert not resumed.failures
        assert summaries_of(resumed) == summaries_of(reference)
        assert [c.flagged_per_round for c in resumed.cells] == [
            c.flagged_per_round for c in reference.cells
        ]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_retry_heals_bit_identically(
        self, executor, reference
    ):
        """A transient injury plus one retry yields a complete sweep
        whose every cell matches the clean sequential reference."""
        healed = SweepEngine(
            jobs=2,
            executor=executor,
            retries=1,
            backoff_base=0.05,
            chaos="1:kill",
        ).run(tri_plan(mini_preset()))
        assert not healed.failures
        assert healed.retried >= 1
        assert summaries_of(healed) == summaries_of(reference)

    def test_abort_persists_finished_cells_then_reraises(
        self, reference, tmp_path
    ):
        cache = str(tmp_path / "cache")
        plan = tri_plan(mini_preset())
        with pytest.raises(ChaosError):
            SweepEngine(cache_dir=cache, chaos="2:raise").run(plan)
        assert cell_store_count(tmp_path) == 2
        resumed = SweepEngine(cache_dir=cache, resume=True).run(plan)
        assert resumed.resumed_count() == 2
        assert summaries_of(resumed) == summaries_of(reference)

    def test_interrupt_persists_and_reports_counts(self, tmp_path):
        cache = str(tmp_path / "cache")
        plan = tri_plan(mini_preset())
        with pytest.raises(SweepInterrupted) as excinfo:
            SweepEngine(cache_dir=cache, chaos="2:interrupt").run(plan)
        interrupt = excinfo.value
        assert interrupt.plan_name == plan.name
        assert interrupt.finished == 2
        assert interrupt.total == 3
        assert "2/3 cells finished" in str(interrupt)
        assert cell_store_count(tmp_path) == 2

    def test_failure_records_serialize(self):
        sweep = SweepEngine(
            on_error="continue", chaos="0:raise"
        ).run(tri_plan(mini_preset()))
        payload = sweep.to_json_dict()
        assert payload["retried"] == 0
        record = payload["failures"][0]
        assert record["kind"] == "exception"
        assert record["error_type"] == "ChaosError"
        assert record["spec"]["epsilon"] == 0.1
        stats = sweep.format_stats()
        assert "1 failed, 0 retried, 0 timed out" in stats


class TestProcessTimeoutInnocents:
    def test_pool_rebuild_spares_innocent_results(self, tmp_path):
        """A hung process cell kills the pool; cells finished before the
        rebuild keep their persisted results (no re-run on resume)."""
        cache = str(tmp_path / "cache")
        plan = tri_plan(mini_preset())
        sweep = SweepEngine(
            jobs=2,
            executor="process",
            cache_dir=cache,
            cell_timeout=6,
            retries=1,
            backoff_base=0.05,
            chaos="0:hang:hang_s=30",
        ).run(plan)
        assert not sweep.failures
        assert sweep.timed_out == 1
        assert len(sweep.cells) == 3
        assert cell_store_count(tmp_path) == 3


class TestChaosEnvThroughEngine:
    def test_env_var_reaches_default_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "0:raise")
        engine = SweepEngine(on_error="continue")
        assert engine.chaos == ChaosSpec(0, "raise")
        sweep = engine.run(
            SweepPlan(
                name="env",
                preset=mini_preset(),
                cells=(scenario("safeloc", attack="fgsm", epsilon=0.5),),
            )
        )
        assert len(sweep.failures) == 1
        assert not sweep.cells

    def test_explicit_chaos_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS", "0:raise")
        engine = SweepEngine(chaos="5:raise")
        assert engine.chaos == ChaosSpec(5, "raise")


class TestCellTimeoutException:
    def test_timeout_failures_raise_cell_timeout_under_abort(self):
        with pytest.raises(CellTimeout):
            SweepEngine(
                jobs=2, cell_timeout=0.5, chaos="0:hang:hang_s=6"
            ).run(tri_plan(mini_preset()))

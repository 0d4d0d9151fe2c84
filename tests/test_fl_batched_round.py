"""Fold-batched client engine (`repro.fl.batched_round`).

Four contracts:

* equivalence — ``client_engine="batched"`` reproduces the serial
  engine (one client at a time) bit for bit at float64, mixed
  honest/malicious cohorts included;
* shared seeds — both engines derive per-(client, round) randomness
  through one helper (:func:`~repro.fl.client.client_round_rng`), so a
  round is the same round no matter which engine runs it;
* engine-free artifacts — pre-trains and resumed cells produced under
  one client engine are reused by the other;
* any-two-paths — every (client engine × cell executor) combination
  produces the same error tables as the sequential serial reference.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest

import repro.utils.rng as rng_module
from reference.training import classifier_train_epochs
from repro.attacks import LabelFlip
from repro.baselines import LatentSpaceAggregation
from repro.baselines.dnn import DNNLocalizer
from repro.core.saliency import SaliencyAggregation
from repro.data import FingerprintDataset
from repro.experiments.engine import SweepEngine, SweepPlan, scenario
from repro.experiments.scenarios import tiny_preset
from repro.fl import (
    CLIENT_ENGINES,
    ClientCohort,
    FedAvg,
    FederatedClient,
    FederatedServer,
    FederationConfig,
    client_round_rng,
    round_stream,
)
from repro.fl.client import ClientConfig
from repro.utils.rng import SeedSequence

NUM_APS = 10
NUM_RPS = 6


def _dataset(seed=0, n=30):
    rng = np.random.default_rng(seed)
    return FingerprintDataset(
        rng.uniform(0, 1, size=(n, NUM_APS)),
        rng.integers(0, NUM_RPS, size=n),
        building="b",
        device="d",
    )


def _model(seed=0):
    return DNNLocalizer(NUM_APS, NUM_RPS, hidden=(16,), seed=seed)


def _clients(n=5, malicious=(4,), n_samples=30):
    """A mixed cohort: honest clients on one schedule, attackers on a
    heavier one (the paper's threat model), fresh models per call."""
    clients = []
    for i in range(n):
        attack = (
            LabelFlip(1.0, num_classes=NUM_RPS) if i in malicious else None
        )
        config = (
            ClientConfig(epochs=5, lr=0.02)
            if attack
            else ClientConfig(epochs=3, lr=0.01)
        )
        clients.append(
            FederatedClient(
                f"c{i}",
                _model(i),
                _dataset(i, n=n_samples),
                config,
                attack=attack,
                seeds=SeedSequence(100 + i),
            )
        )
    return clients


def _server(engine, clients=None, strategy=None):
    return FederatedServer(
        _model(99),
        strategy or FedAvg(),
        clients if clients is not None else _clients(),
        seeds=SeedSequence(7),
        client_engine=engine,
    )


def _assert_rounds_equal(a, records_a, b, records_b):
    """Two servers' returned round records (the history keeps no client
    weights) and final GMs agree bit for bit."""
    assert len(records_a) == len(records_b)
    for rec_a, rec_b in zip(records_a, records_b):
        assert len(rec_a.updates) == len(rec_b.updates)
        assert rec_a.num_flagged == rec_b.num_flagged
        assert rec_a.num_dropped == rec_b.num_dropped
        for u_a, u_b in zip(rec_a.updates, rec_b.updates):
            assert u_a.client_name == u_b.client_name
            assert u_a.num_samples == u_b.num_samples
            assert u_a.train_loss == u_b.train_loss
            assert u_a.is_malicious == u_b.is_malicious
            assert u_a.flagged_poisoned == u_b.flagged_poisoned
            for key in u_a.state:
                np.testing.assert_array_equal(u_a.state[key], u_b.state[key])
    np.testing.assert_equal(a.model.state_dict(), b.model.state_dict())


def _batched_group_sizes(clients, gm, round_index=1):
    """Sizes of the partition groups that would take the fold-batched
    path (>1 fold and a resolved program) — the engagement probe."""
    cohort = ClientCohort(clients)
    pending = list(range(len(clients)))
    for index in pending:
        clients[index].resolve_round(round_index)
    prepared = {
        index: clients[index].begin_local_round(gm, round_index)
        for index in pending
    }
    programs, preps = {}, {}
    groups = cohort._partition(pending, prepared, programs, preps)
    return [
        len(group)
        for group in groups
        if len(group) > 1 and group[0] in programs
    ]


class TestRoundSeedHelper:
    """Both engines must pull randomness through one shared derivation."""

    def test_stream_names(self):
        assert round_stream("train", 3) == "train-round-3"
        assert round_stream("attack", 12) == "attack-round-12"

    def test_rng_matches_named_stream(self):
        seeds = SeedSequence(42)
        a = client_round_rng(seeds, "train", 5)
        b = SeedSequence(42).rng("train-round-5")
        np.testing.assert_array_equal(a.normal(size=8), b.normal(size=8))

    def test_local_update_consumes_helper_streams(self):
        """Replaying local_update's phases with client_round_rng streams
        reproduces it exactly — pinning which streams the serial engine
        uses, which is what the batched engine mirrors."""
        gm = _model(9).state_dict()

        via_local_update = _clients(n=2)
        updates = [c.local_update(gm, round_index=2) for c in via_local_update]

        replayed = _clients(n=2)
        for client, expected in zip(replayed, updates):
            client.resolve_round(2)
            dataset = client.begin_local_round(gm, 2)
            loss = client.model.train_epochs(
                dataset,
                epochs=client.config.epochs,
                lr=client.config.lr,
                rng=client_round_rng(client.seeds, "train", 2),
                batch_size=client.config.batch_size,
            )
            update = client.build_update(dataset, loss)
            assert update.train_loss == expected.train_loss
            for key in expected.state:
                np.testing.assert_array_equal(
                    update.state[key], expected.state[key]
                )

    def test_resolve_round_validates_round_index(self):
        client = _clients(n=1, malicious=())[0]
        assert client.resolve_round(7) == 7
        with pytest.raises(ValueError):
            client.resolve_round(0)


class TestEngineValidation:
    def test_unknown_engine_rejected_everywhere(self):
        assert CLIENT_ENGINES == ("serial", "batched")
        with pytest.raises(ValueError):
            _server("gpu")
        with pytest.raises(ValueError):
            FederationConfig(client_engine="gpu")

    def test_cohort_needs_clients(self):
        with pytest.raises(ValueError):
            ClientCohort([])


class TestSerialBatchedEquivalence:
    def test_bit_exact_mixed_cohort_over_rounds(self):
        serial = _server("serial")
        batched = _server("batched")
        _assert_rounds_equal(
            serial, serial.run_rounds(3), batched, batched.run_rounds(3)
        )

    def test_bit_exact_under_saliency_aggregation(self):
        """A GM that SAFELOC's saliency strategy moves (not a plain mean)
        still reaches both engines identically in later rounds."""
        serial = _server("serial", strategy=SaliencyAggregation())
        batched = _server("batched", strategy=SaliencyAggregation())
        _assert_rounds_equal(
            serial, serial.run_rounds(2), batched, batched.run_rounds(2)
        )

    def test_bit_exact_with_heterogeneous_sample_counts(self):
        """Different local dataset sizes split the cohort into separate
        fold groups (batch boundaries differ) — still bit-exact."""

        def cohort():
            clients = _clients(n=4, malicious=())
            clients += [
                FederatedClient(
                    "c-big",
                    _model(50),
                    _dataset(50, n=47),
                    ClientConfig(epochs=3, lr=0.01),
                    seeds=SeedSequence(150),
                )
            ]
            return clients

        serial = _server("serial", clients=cohort())
        batched = _server("batched", clients=cohort())
        _assert_rounds_equal(
            serial, serial.run_rounds(2), batched, batched.run_rounds(2)
        )

    def test_unbatchable_model_falls_back_to_serial_path(self):
        """A model that overrides train_epochs declines fold-batching and
        trains through its own loop inside the cohort — same results."""

        class CustomLoop(DNNLocalizer):
            def train_epochs(
                self, dataset, epochs, lr, rng, batch_size=32, trusted=False
            ):
                return classifier_train_epochs(
                    self.network, dataset, epochs, lr, rng, batch_size
                )

        assert CustomLoop(NUM_APS, NUM_RPS, seed=0).fold_batch_program() is None

        def cohort():
            return [
                FederatedClient(
                    f"c{i}",
                    CustomLoop(NUM_APS, NUM_RPS, hidden=(16,), seed=i),
                    _dataset(i),
                    ClientConfig(epochs=2, lr=0.01),
                    seeds=SeedSequence(100 + i),
                )
                for i in range(3)
            ]

        serial = _server("serial", clients=cohort())
        batched = _server("batched", clients=cohort())
        _assert_rounds_equal(
            serial, serial.run_rounds(2), batched, batched.run_rounds(2)
        )

    def test_model_without_program_must_override_train_epochs(self):
        """train_epochs runs the model's fold program; a model that has
        none and keeps the inherited method gets a clear error."""

        class NoProgram(DNNLocalizer):
            def fold_batch_program(self):
                return None

        with pytest.raises(NotImplementedError, match="no fold program"):
            NoProgram(NUM_APS, NUM_RPS, seed=0).train_epochs(
                _dataset(), epochs=1, lr=0.01, rng=np.random.default_rng(0)
            )

    def test_partition_groups_by_schedule_and_size(self):
        clients = _clients(n=5, malicious=(4,))  # 4 honest + 1 attacker
        cohort = ClientCohort(clients)
        gm = _model(9).state_dict()
        pending = list(range(5))
        for index in pending:
            clients[index].resolve_round(1)
        prepared = {
            index: clients[index].begin_local_round(gm, 1)
            for index in pending
        }
        groups = cohort._partition(pending, prepared, {}, {})
        sizes = sorted(len(group) for group in groups)
        assert sizes == [1, 4]  # honest fold group + attacker singleton


class TestCompositeCohortEquivalence:
    """SAFELOC's denoiser+classifier pipeline and ONLAD's two-model
    program, fold-batched through the composite stackers — bit-exact
    against the serial engine, with multi-fold cohorts proven to
    actually form (not silently splitting into cohorts of one)."""

    @staticmethod
    def _safeloc_model(seed):
        from repro.core.safeloc import SafeLocModel

        return SafeLocModel(
            NUM_APS, NUM_RPS, seed=seed, encoder_widths=(16, 8)
        )

    @staticmethod
    def _onlad_model(seed):
        from repro.baselines.onlad import OnDeviceAnomalyModel

        # a generous tau: the default 0.1 with an untrained detector
        # flags everything (skip-the-round on every fold), and a middling
        # one leaves each fold a different kept-sample count (all
        # singleton groups) — 0.9 keeps whole datasets so folds group
        return OnDeviceAnomalyModel(NUM_APS, NUM_RPS, tau=0.9, seed=seed)

    def _cohort(self, model_factory, n=5, malicious=(4,)):
        clients = []
        for i in range(n):
            attack = (
                LabelFlip(1.0, num_classes=NUM_RPS)
                if i in malicious
                else None
            )
            config = (
                ClientConfig(epochs=4, lr=0.02)
                if attack
                else ClientConfig(epochs=2, lr=0.01)
            )
            clients.append(
                FederatedClient(
                    f"c{i}",
                    model_factory(i),
                    _dataset(i),
                    config,
                    attack=attack,
                    seeds=SeedSequence(100 + i),
                )
            )
        return clients

    def _server(self, engine, model_factory):
        return FederatedServer(
            model_factory(99),
            FedAvg(),
            self._cohort(model_factory),
            seeds=SeedSequence(7),
            client_engine=engine,
        )

    def test_safeloc_bit_exact_over_rounds(self):
        serial = self._server("serial", self._safeloc_model)
        batched = self._server("batched", self._safeloc_model)
        _assert_rounds_equal(
            serial, serial.run_rounds(2), batched, batched.run_rounds(2)
        )

    def test_safeloc_batched_path_engages(self):
        gm = self._safeloc_model(99).state_dict()
        sizes = _batched_group_sizes(self._cohort(self._safeloc_model), gm)
        assert sizes and max(sizes) > 1

    def test_safeloc_screening_survives_batching(self):
        """Client-side flag counts (the denoiser screen) agree across
        engines round for round — prepare() runs the same screen the
        serial loop does."""
        serial = self._server("serial", self._safeloc_model)
        batched = self._server("batched", self._safeloc_model)
        serial.run_rounds(2)
        batched.run_rounds(2)
        assert [r.num_flagged for r in serial.history] == [
            r.num_flagged for r in batched.history
        ]

    def test_onlad_bit_exact_over_rounds(self):
        serial = self._server("serial", self._onlad_model)
        batched = self._server("batched", self._onlad_model)
        _assert_rounds_equal(
            serial, serial.run_rounds(2), batched, batched.run_rounds(2)
        )

    def test_onlad_batched_path_engages(self):
        gm = self._onlad_model(99).state_dict()
        sizes = _batched_group_sizes(self._cohort(self._onlad_model), gm)
        assert sizes and max(sizes) > 1

    def test_onlad_partial_screening_still_agrees(self):
        """A middling tau flags a different sample count per fold, so
        every fold gets its own partition key and trains as a cohort of
        one — still bit-exact."""
        from repro.baselines.onlad import OnDeviceAnomalyModel

        def middling(seed):
            return OnDeviceAnomalyModel(NUM_APS, NUM_RPS, tau=0.6, seed=seed)

        serial = self._server("serial", middling)
        batched = self._server("batched", middling)
        _assert_rounds_equal(
            serial, serial.run_rounds(2), batched, batched.run_rounds(2)
        )

    def test_onlad_all_flagged_cohort_still_agrees(self):
        """tau=0 flags every sample: prepare() returns None for every
        fold, and both engines reproduce the skip-the-round contract
        (zero loss, weights stay at the GM)."""
        from repro.baselines.onlad import OnDeviceAnomalyModel

        def strict(seed):
            return OnDeviceAnomalyModel(NUM_APS, NUM_RPS, tau=0.0, seed=seed)

        serial = self._server("serial", strict)
        batched = self._server("batched", strict)
        _assert_rounds_equal(
            serial, serial.run_rounds(1), batched, batched.run_rounds(1)
        )
        assert all(
            u.train_loss == 0.0 for u in batched.history[0].updates
        )


class TestStackingDrawsNoFallbackStreams:
    """``fallback_rng``'s call counter is process-global, so a stacking
    step that drew streams would shift the initial weights of every
    rng-less component built after it.  Stacking copies weights and
    draws none: batched rounds and FEDLS detection leave the counter
    untouched once their components exist."""

    @staticmethod
    def _assert_no_draws(monkeypatch, run):
        counter = itertools.count()
        monkeypatch.setattr(rng_module, "_FALLBACK_COUNTER", counter)
        run()
        assert next(counter) == 0

    @pytest.mark.parametrize("model", ["dnn", "safeloc", "onlad"])
    def test_batched_rounds(self, monkeypatch, model):
        composite = TestCompositeCohortEquivalence()
        factory = {
            "safeloc": composite._safeloc_model,
            "onlad": composite._onlad_model,
        }.get(model)
        server = (
            composite._server("batched", factory)
            if factory
            else _server("batched")
        )
        self._assert_no_draws(monkeypatch, lambda: server.run_rounds(2))

    @pytest.mark.parametrize("shared_encoder", [False, True])
    def test_fedls_detection(self, monkeypatch, shared_encoder):
        normalized = np.random.default_rng(3).normal(size=(8, 12))
        agg = LatentSpaceAggregation(
            seed=7, detector_epochs=5, shared_encoder=shared_encoder
        )
        self._assert_no_draws(
            monkeypatch, lambda: agg.leave_one_out_errors(normalized, 1)
        )


# -- sweep-level: engines inside the full experiment pipeline -------------


def _mini_preset(engine="serial", seed=42):
    return replace(
        tiny_preset(seed),
        pretrain_epochs=40,
        num_rounds=1,
        client_epochs=2,
        malicious_epochs=5,
        client_engine=engine,
    )


def _summaries(sweep_result):
    sweep = getattr(sweep_result, "sweep", sweep_result)
    return [cell.error_summary for cell in sweep.cells]


def _eps_plan(preset, name="eps"):
    """A Fig. 5-shaped ε grid on a fold-batchable framework."""
    cells = tuple(
        scenario(
            "fedls",
            attack="fgsm",
            epsilon=eps,
            framework_kwargs={"detector_epochs": 20},
        )
        for eps in (0.1, 0.5)
    )
    return SweepPlan(name=name, preset=preset, cells=cells)


class TestCrossEngineSweepCache:
    """Satellite: artifacts made under one client engine are reused by
    the other — cache keys are engine-free by construction."""

    @pytest.mark.parametrize(
        "first,second", [("serial", "batched"), ("batched", "serial")]
    )
    def test_eps_grid_fully_reused_across_engines(self, first, second):
        engine = SweepEngine()  # shared in-memory artifact cache
        warm = engine.run(_eps_plan(_mini_preset(first)))
        # the ε grid shares one building and one pre-train
        assert warm.pretrain_counts() == (1, 1)
        assert warm.stats["data"] == {"hits": 1, "misses": 1}

        again = engine.run(_eps_plan(_mini_preset(second)))
        assert again.pretrain_counts() == (0, 2)
        assert again.stats["data"] == {"hits": 2, "misses": 0}
        assert _summaries(again) == _summaries(warm)

    def test_resume_ledger_shared_across_engines(self, tmp_path):
        """``client_engine`` is cell-neutral: a sweep persisted under the
        serial engine resumes every cell under the batched one."""
        cache = str(tmp_path / "cache")
        stored = SweepEngine(cache_dir=cache).run(
            _eps_plan(_mini_preset("serial"))
        )
        resumed = SweepEngine(cache_dir=cache, resume=True).run(
            _eps_plan(_mini_preset("batched"))
        )
        assert resumed.resumed_count() == len(stored.cells)
        assert _summaries(resumed) == _summaries(stored)


class TestAnyTwoPathsAgree:
    """Satellite: framework × client_engine × cell executor — every
    path must produce the serial sequential reference's tables exactly,
    for the classifier cohort (fedls) and both composite fold programs
    (safeloc, onlad) alike."""

    #: per-framework factory kwargs for quick cells
    FRAMEWORK_KWARGS = {
        "fedls": {"detector_epochs": 20},
        "safeloc": {},
        "onlad": {},
    }

    @classmethod
    def _random_cohort_plan(cls, framework):
        """Random tiny cohorts, seeded — same cells every run."""
        rng = np.random.default_rng(77)
        cells = []
        for _ in range(2):
            total = int(rng.integers(3, 7))
            cells.append(
                scenario(
                    framework,
                    attack=str(rng.choice(["fgsm", "label_flip"])),
                    epsilon=float(rng.choice([0.1, 0.5])),
                    num_clients=total,
                    num_malicious=int(rng.integers(1, max(2, total // 2))),
                    framework_kwargs=cls.FRAMEWORK_KWARGS[framework] or None,
                )
            )
        return tuple(cells)

    @pytest.fixture(
        scope="class", params=["fedls", "safeloc", "onlad"]
    )
    def reference(self, request):
        plan = SweepPlan(
            name="paths",
            preset=_mini_preset("serial"),
            cells=self._random_cohort_plan(request.param),
        )
        return request.param, SweepEngine().run(plan)

    @pytest.mark.parametrize(
        "client_engine,jobs,executor",
        [
            ("batched", None, "serial"),
            ("batched", 1, "process"),
            ("serial", 2, "process"),
            ("batched", 2, "process"),
        ],
    )
    def test_path_matches_reference(
        self, reference, client_engine, jobs, executor
    ):
        framework, expected = reference
        plan = SweepPlan(
            name="paths",
            preset=_mini_preset(client_engine),
            cells=self._random_cohort_plan(framework),
        )
        result = SweepEngine(jobs=jobs, executor=executor).run(plan)
        assert _summaries(result) == _summaries(expected)
        assert [c.flagged_per_round for c in result.cells] == [
            c.flagged_per_round for c in expected.cells
        ]
        assert [c.dropped_per_round for c in result.cells] == [
            c.dropped_per_round for c in expected.cells
        ]


class TestAllAdvertisedFrameworksBatched:
    """Every registered framework runs on the batched client engine and
    must prove it: one tiny cell per framework, batched vs. serial
    client engines, identical tables.  The drift guard pins the explicit
    name list below to the registry, so a new framework fails here until
    it is added."""

    #: every registered framework, spelled out
    ADVERTISED = (
        "fedcc",
        "fedhil",
        "fedloc",
        "fedls",
        "krum",
        "onlad",
        "safeloc",
    )

    #: speed kwargs for frameworks whose defaults are too slow for CI
    KWARGS = {"fedls": {"detector_epochs": 20}}

    def test_list_matches_registry(self):
        from repro.registry import registry

        assert sorted(registry.names("frameworks")) == sorted(
            self.ADVERTISED
        )

    @pytest.mark.parametrize("framework", ADVERTISED)
    def test_batched_matches_serial(self, framework):
        cell = scenario(
            framework,
            attack="label_flip",
            epsilon=0.5,
            num_clients=4,
            num_malicious=1,
            framework_kwargs=self.KWARGS.get(framework),
        )
        results = {}
        for engine in ("serial", "batched"):
            plan = SweepPlan(
                name="advertised",
                preset=_mini_preset(engine),
                cells=(cell,),
            )
            results[engine] = SweepEngine().run(plan)
        assert _summaries(results["batched"]) == _summaries(
            results["serial"]
        )
        assert [
            c.flagged_per_round for c in results["batched"].cells
        ] == [c.flagged_per_round for c in results["serial"].cells]

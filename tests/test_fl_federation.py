"""Integration tests for clients, server, FedAvg and federation assembly."""

from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from repro.attacks import FGSM, LabelFlip
from repro.baselines.dnn import DNNLocalizer
from repro.baselines.registry import FRAMEWORK_NAMES, make_framework
from repro.data import FingerprintDataset, scaled_building
from repro.data.devices import ATTACKER_DEVICE, TRAIN_DEVICE
from repro.data.fingerprints import paper_protocol
from repro.fl import (
    CLIENT_ENGINES,
    ClientUpdate,
    FedAvg,
    FederatedClient,
    FederatedServer,
    FederationConfig,
    build_client_datasets,
    build_federation,
)
from repro.fl.client import ClientConfig
from repro.fl.interfaces import LocalizationModel
from repro.nn import Module
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


def _model_parameters(model):
    """Every distinct Parameter a framework model holds, found through its
    Module attributes and its nested models (ONLAD's localizer)."""
    found = {}
    stack = [model]
    while stack:
        node = stack.pop()
        if isinstance(node, Module):
            found.update((id(p), p) for p in node.parameters())
        elif isinstance(node, LocalizationModel):
            stack.extend(vars(node).values())
    return list(found.values())


class TestLazyGradients:
    """A client model allocates no gradient buffer until it trains."""

    @pytest.mark.parametrize("name", FRAMEWORK_NAMES)
    def test_fresh_client_model_holds_no_gradient_buffers(self, name):
        spec = make_framework(name, NUM_APS, NUM_RPS, seed=0)
        client = FederatedClient(
            "c0",
            spec.model_factory(),
            _dataset(),
            attack=FGSM(0.5),
            seeds=SeedSequence(3),
        )
        params = _model_parameters(client.model)
        assert sum(p.size for p in params) == client.model.parameter_count()
        assert not any(p.has_grad for p in params)
        # broadcast, self-labeling and the attack's input gradients
        client.begin_local_round(client.model.state_dict(), 1)
        assert not any(p.has_grad for p in params)

    def test_input_gradient_keeps_allocated_buffers(self):
        model = _model()
        network = model.network
        network.parameters()[0].grad[...] = 2.0
        kept = network.parameters()[0].grad
        model.gradient_oracle()(_dataset().features, _dataset().labels)
        assert network.parameters()[0].grad is kept
        np.testing.assert_array_equal(kept, 2.0)
        assert not any(p.has_grad for p in network.parameters()[1:])


class TestClientConfig:
    @pytest.mark.parametrize("kw", [
        {"epochs": 0}, {"lr": 0.0}, {"batch_size": 0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            ClientConfig(**kw)


class TestFederatedClient:
    def test_update_shape_and_metadata(self):
        client = FederatedClient(
            "c0", _model(), _dataset(), ClientConfig(epochs=1, lr=0.01),
            seeds=SeedSequence(3),
        )
        gm = _model(9).state_dict()
        update = client.local_update(gm, round_index=1)
        assert isinstance(update, ClientUpdate)
        assert update.client_name == "c0"
        assert update.num_samples == 30
        assert not update.is_malicious
        assert set(update.state) == set(gm)

    def test_loads_global_state_before_training(self):
        client = FederatedClient(
            "c0", _model(0), _dataset(), ClientConfig(epochs=1, lr=1e-6),
            seeds=SeedSequence(3),
        )
        gm = _model(9).state_dict()
        update = client.local_update(gm, round_index=1)
        # at lr 1e-6 the LM barely moves: it must be near the broadcast GM,
        # not near the client model's original weights
        for key in gm:
            assert np.abs(update.state[key] - gm[key]).max() < 1e-2

    def test_malicious_flag(self):
        client = FederatedClient(
            "evil", _model(), _dataset(),
            ClientConfig(epochs=1, lr=0.01),
            attack=LabelFlip(1.0, num_classes=NUM_RPS),
            seeds=SeedSequence(3),
        )
        assert client.is_malicious
        update = client.local_update(_model(9).state_dict(), round_index=1)
        assert update.is_malicious

    def test_round_index_required(self):
        """Both engines pass the round explicitly; a client keeps no
        round counter of its own to fall back on."""
        client = FederatedClient(
            "c0", _model(1), _dataset(0), ClientConfig(epochs=1),
            seeds=SeedSequence(3),
        )
        with pytest.raises(TypeError, match="round_index"):
            client.local_update(_model(9).state_dict())

    def test_self_labeling_uses_model_predictions(self):
        ds = _dataset()
        model = _model()
        client = FederatedClient(
            "c0", model, ds, ClientConfig(epochs=1, lr=1e-6),
            seeds=SeedSequence(3), self_labeling=True,
        )
        client.local_update(_model(9).state_dict(), round_index=1)
        # the client's own dataset must stay untouched
        assert ds.labels.max() < NUM_RPS

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            FederatedClient(
                "c0", _model(),
                FingerprintDataset(np.zeros((0, NUM_APS)), np.zeros(0, dtype=int)),
            )


class TestFedAvg:
    def _update(self, seed, n=10):
        return ClientUpdate(f"c{seed}", _model(seed).state_dict(), n)

    def test_identical_states_fixed_point(self):
        u = self._update(1)
        agg = FedAvg().aggregate(_model(0).state_dict(), [u, u, u])
        for key in agg:
            np.testing.assert_allclose(agg[key], u.state[key])

    def test_sample_weighting(self):
        a, b = self._update(1, n=30), self._update(2, n=10)
        agg = FedAvg().aggregate(_model(0).state_dict(), [a, b])
        for key in agg:
            expected = 0.75 * a.state[key] + 0.25 * b.state[key]
            np.testing.assert_allclose(agg[key], expected)

    def test_server_momentum_blends_gm(self):
        gm = _model(0).state_dict()
        u = self._update(1)
        agg = FedAvg(server_momentum=0.5).aggregate(gm, [u])
        for key in agg:
            np.testing.assert_allclose(agg[key], 0.5 * gm[key] + 0.5 * u.state[key])

    def test_no_updates_rejected(self):
        with pytest.raises(ValueError):
            FedAvg().aggregate(_model(0).state_dict(), [])

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            FedAvg(server_momentum=1.0)


class TestFederatedServer:
    def _server(self, num_clients=3, **kwargs):
        clients = [
            FederatedClient(
                f"c{i}", _model(i), _dataset(i),
                ClientConfig(epochs=1, lr=0.01), seeds=SeedSequence(i),
            )
            for i in range(num_clients)
        ]
        return FederatedServer(
            _model(99), FedAvg(), clients, SeedSequence(7), **kwargs
        )

    def test_round_updates_history(self):
        server = self._server()
        record = server.run_round()
        assert record.round_index == 1
        assert len(record.updates) == 3
        assert len(server.history) == 1

    def test_history_holds_no_tensors(self):
        """The history keeps each round's bookkeeping but drops every
        client's weights; the record run_round returns keeps them."""

        def tensors(value):
            if isinstance(value, np.ndarray):
                return 1
            if is_dataclass(value):
                value = [getattr(value, f.name) for f in fields(value)]
            elif isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, (list, tuple)):
                return sum(tensors(item) for item in value)
            return 0

        server = self._server()
        records = server.run_rounds(2)
        assert all(u.state for r in records for u in r.updates)
        assert tensors(server.history) == 0
        # everything but the weights survives
        for kept, full in zip(server.history, records):
            assert replace(kept, updates=full.updates) == full
            for update, full_update in zip(kept.updates, full.updates):
                assert replace(update, state=full_update.state) == full_update

    @pytest.mark.parametrize("engine", CLIENT_ENGINES)
    def test_round_preserves_client_order(self, engine):
        record = self._server(4, client_engine=engine).run_round()
        assert [u.client_name for u in record.updates] == [
            "c0", "c1", "c2", "c3",
        ]

    def test_thread_pool_option_removed(self):
        with pytest.raises(TypeError, match="max_workers"):
            self._server(max_workers=2)

    def test_run_rounds(self):
        server = self._server()
        records = server.run_rounds(3)
        assert [r.round_index for r in records] == [1, 2, 3]

    def test_round_changes_global_model(self):
        server = self._server()
        before = server.model.state_dict()
        server.run_round()
        after = server.model.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_pretrain_reduces_loss(self):
        server = self._server()
        ds = _dataset(50, n=120)
        first = server.model.evaluate_loss(ds)
        server.pretrain(ds, epochs=30, lr=0.01)
        assert server.model.evaluate_loss(ds) < first

    def test_invalid_round_count(self):
        with pytest.raises(ValueError):
            self._server().run_rounds(0)

    def test_no_clients_rejected(self):
        with pytest.raises(ValueError):
            FederatedServer(_model(), FedAvg(), [])

    def test_round_records_server_side_drops(self):
        # FedAvg never drops anyone
        record = self._server().run_round()
        assert record.num_dropped == 0
        # a dropping strategy's exclusions land in the round record —
        # client-side num_flagged never sees server-side filtering
        from repro.baselines.krum import KrumAggregation

        server = FederatedServer(
            _model(99),
            KrumAggregation(),
            [
                FederatedClient(
                    f"c{i}", _model(i), _dataset(i),
                    ClientConfig(epochs=1, lr=0.01), seeds=SeedSequence(i),
                )
                for i in range(3)
            ],
            SeedSequence(7),
        )
        record = server.run_round()
        assert record.num_dropped == 2  # KRUM keeps exactly one LM
        assert record.num_flagged == 0


class TestFederationConfig:
    def test_defaults_valid(self):
        cfg = FederationConfig()
        assert cfg.num_clients == 6
        assert cfg.attacker_epochs == cfg.client_epochs
        assert cfg.attacker_lr == cfg.client_lr

    def test_malicious_overrides(self):
        cfg = FederationConfig(malicious_epochs=40, malicious_lr=0.01)
        assert cfg.attacker_epochs == 40
        assert cfg.attacker_lr == 0.01

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            FederationConfig(num_clients=0)
        with pytest.raises(ValueError):
            FederationConfig(num_clients=4, num_malicious=5)


class TestBuildFederation:
    @pytest.fixture(scope="class")
    def building(self):
        return scaled_building("building5", 0.15, 0.2)

    def test_client_datasets_device_assignment(self, building):
        cfg = FederationConfig(num_clients=6, num_malicious=2,
                               client_fingerprints_per_rp=1)
        triples = build_client_datasets(building, cfg, SeedSequence(0))
        assert len(triples) == 6
        # the first num_malicious clients carry the attacker's device
        assert triples[0][1] == ATTACKER_DEVICE
        assert triples[1][1] == ATTACKER_DEVICE
        # honest clients never use the attacker or the server-train device
        for _, device, _ in triples[2:]:
            assert device not in (ATTACKER_DEVICE, TRAIN_DEVICE)

    def test_scalability_cycles_devices(self, building):
        cfg = FederationConfig(num_clients=12, num_malicious=3,
                               client_fingerprints_per_rp=1)
        triples = build_client_datasets(building, cfg, SeedSequence(0))
        assert len(triples) == 12
        assert sum(1 for _, d, _ in triples if d == ATTACKER_DEVICE) == 3

    def test_build_federation_wires_attacks(self, building):
        cfg = FederationConfig(num_clients=4, num_malicious=1, num_rounds=1,
                               client_fingerprints_per_rp=1,
                               client_epochs=1, client_lr=0.01)
        server = build_federation(
            building,
            lambda: DNNLocalizer(building.num_aps, building.num_rps,
                                 hidden=(16,), seed=0),
            FedAvg(),
            cfg,
            SeedSequence(1),
            attack_factory=lambda: LabelFlip(1.0, num_classes=building.num_rps),
        )
        assert sum(c.is_malicious for c in server.clients) == 1
        record = server.run_round()
        assert record.num_malicious == 1

    def test_missing_attack_factory_rejected(self, building):
        cfg = FederationConfig(num_clients=2, num_malicious=1,
                               client_fingerprints_per_rp=1)
        with pytest.raises(ValueError, match="attack_factory"):
            build_federation(
                building,
                lambda: DNNLocalizer(building.num_aps, building.num_rps,
                                     hidden=(8,), seed=0),
                FedAvg(),
                cfg,
                SeedSequence(1),
            )

    def test_federation_improves_or_holds_after_pretrain(self, building):
        """End-to-end: pretrain + rounds keeps the GM usable (no collapse)."""
        from repro.metrics import evaluate_model

        train, tests = paper_protocol(building, seed=3)
        cfg = FederationConfig(num_clients=3, num_malicious=0, num_rounds=2,
                               client_fingerprints_per_rp=1,
                               client_epochs=2, client_lr=0.002)
        server = build_federation(
            building,
            lambda: DNNLocalizer(building.num_aps, building.num_rps,
                                 hidden=(32,), seed=0),
            FedAvg(),
            cfg,
            SeedSequence(1),
        )
        server.pretrain(train, epochs=60, lr=0.005)
        baseline = evaluate_model(server.model, tests, building)
        server.run_rounds(2)
        after = evaluate_model(server.model, tests, building)
        assert after.mean < max(2.0 * baseline.mean, baseline.mean + 1.0)

"""Tests for the six baseline frameworks and the framework registry."""

import numpy as np
import pytest

from reference.fedls import serial_loo_errors, with_serial_detectors
from repro.baselines import (
    ClusteredAggregation,
    DNNLocalizer,
    FRAMEWORK_NAMES,
    KrumAggregation,
    LatentSpaceAggregation,
    OnDeviceAnomalyModel,
    SelectiveAggregation,
    UpdateAutoencoder,
    make_framework,
)
from repro.baselines.fedcc import two_means
from repro.baselines.fedls import summarize_delta
from repro.baselines.registry import COMPARISON_FRAMEWORKS
from repro.data import FingerprintDataset
from repro.fl.aggregation import ClientUpdate
from repro.fl.state import state_sub

D, C = 14, 5
RNG = np.random.default_rng(21)


def _dataset(n=60, seed=0, noise=0.03):
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.2, 0.8, size=(C, D))
    labels = rng.integers(0, C, size=n)
    features = np.clip(centres[labels] + rng.normal(0, noise, size=(n, D)), 0, 1)
    return FingerprintDataset(features, labels)


def _gm_state(seed=0):
    return DNNLocalizer(D, C, hidden=(8,), seed=seed).state_dict()


def _update(seed, gm=None, jitter=0.01, n=10, malicious=False):
    base = gm if gm is not None else _gm_state(0)
    rng = np.random.default_rng(seed)
    state = {k: v + jitter * rng.normal(size=v.shape) for k, v in base.items()}
    return ClientUpdate(f"c{seed}", state, n, is_malicious=malicious)


class TestDNNLocalizer:
    def test_learns_structured_data(self):
        model = DNNLocalizer(D, C, hidden=(32,), seed=0)
        ds = _dataset(200)
        model.train_epochs(ds, epochs=40, lr=0.01, rng=np.random.default_rng(0))
        assert (model.predict(ds.features) == ds.labels).mean() > 0.9

    def test_clone_identical(self):
        model = DNNLocalizer(D, C, seed=0)
        copy = model.clone()
        x = RNG.uniform(0, 1, size=(4, D))
        np.testing.assert_allclose(copy.logits(x), model.logits(x))

    def test_parameter_count_formula(self):
        model = DNNLocalizer(10, 4, hidden=(8, 6), seed=0)
        expected = 10 * 8 + 8 + 8 * 6 + 6 + 6 * 4 + 4
        assert model.parameter_count() == expected

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            DNNLocalizer(0, 4)

    def test_oracle_matches_input_dim(self):
        model = DNNLocalizer(D, C, seed=0)
        grad = model.gradient_oracle()(
            RNG.uniform(0, 1, size=(3, D)), np.array([0, 1, 2])
        )
        assert grad.shape == (3, D)


class TestSelectiveAggregation:
    def test_identical_updates_pass_through(self):
        gm = _gm_state(0)
        u = ClientUpdate("c", {k: v.copy() for k, v in gm.items()}, 10)
        agg = SelectiveAggregation().aggregate(gm, [u, u])
        for key in gm:
            np.testing.assert_allclose(agg[key], gm[key])

    def test_shallow_tensors_keep_gm_values(self):
        gm = _gm_state(0)  # hidden (8,): layers 0 and 2
        updates = [_update(i, gm, jitter=1.0) for i in range(1, 4)]
        agg = SelectiveAggregation(aggregate_fraction=0.5).aggregate(gm, updates)
        # layer 0 (shallow) untouched, layer 2 (deep) aggregated
        np.testing.assert_array_equal(agg["0.weight"], gm["0.weight"])
        assert not np.allclose(agg["2.weight"], gm["2.weight"])

    def test_full_fraction_aggregates_everything(self):
        gm = _gm_state(0)
        updates = [_update(i, gm, jitter=1.0) for i in range(1, 4)]
        agg = SelectiveAggregation(
            aggregate_fraction=1.0, server_mixing=1.0
        ).aggregate(gm, updates)
        for key in gm:
            mean = np.mean([u.state[key] for u in updates], axis=0)
            np.testing.assert_allclose(agg[key], mean)

    def test_server_mixing_retains_gm(self):
        gm = _gm_state(0)
        updates = [_update(1, gm, jitter=1.0)]
        agg = SelectiveAggregation(
            aggregate_fraction=1.0, server_mixing=0.5
        ).aggregate(gm, updates)
        for key in gm:
            expected = 0.5 * gm[key] + 0.5 * updates[0].state[key]
            np.testing.assert_allclose(agg[key], expected)

    def test_selected_keys_deepest_first(self):
        gm = _gm_state(0)
        strategy = SelectiveAggregation(aggregate_fraction=0.5)
        selected = strategy.selected_keys(gm)
        assert all(k.startswith("2.") for k in selected)

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectiveAggregation(aggregate_fraction=0.0)
        with pytest.raises(ValueError):
            SelectiveAggregation(server_mixing=1.5)


class TestTwoMeans:
    def test_separates_two_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, size=(5, 3))
        b = rng.normal(5, 0.1, size=(3, 3))
        assignment = two_means(np.vstack([a, b]), rng)
        assert len(set(assignment[:5])) == 1
        assert len(set(assignment[5:])) == 1
        assert assignment[0] != assignment[5]

    def test_identical_points_single_cluster(self):
        rng = np.random.default_rng(0)
        assignment = two_means(np.ones((4, 2)), rng)
        assert set(assignment) == {0}

    def test_single_point(self):
        assignment = two_means(np.zeros((1, 2)), np.random.default_rng(0))
        assert assignment.tolist() == [0]


class TestClusteredAggregation:
    def test_majority_cluster_survives_binary_split(self):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, 6)]
        poisoned = _update(66, gm, jitter=2.0, malicious=True)
        agg = ClusteredAggregation(num_clusters=2, seed=0).aggregate(
            gm, honest + [poisoned]
        )
        honest_mean = {
            k: np.mean([u.state[k] for u in honest], axis=0) for k in gm
        }
        for key in gm:
            np.testing.assert_allclose(agg[key], honest_mean[key], atol=1e-8)

    def test_poisoned_update_always_excluded(self):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, 6)]
        poisoned = _update(66, gm, jitter=2.0, malicious=True)
        agg = ClusteredAggregation(seed=0).aggregate(gm, honest + [poisoned])
        # the aggregate must stay near the GM, far from the outlier
        for key in gm:
            assert np.abs(agg[key] - gm[key]).max() < 0.5

    def test_reset_restarts_tie_break_rng(self):
        """The per-federation reset contract: a reused instance must
        reproduce a fresh instance's rng stream."""
        agg = ClusteredAggregation(seed=7)
        fresh_draw = np.random.default_rng(7).random()
        agg._rng.random()  # advance the stream (as k-means re-seeds do)
        agg.reset()
        assert agg._rng.random() == fresh_draw

    def test_k3_drops_minority_honest_clusters(self):
        """FEDCC's §II heterogeneity weakness: with k=3, a distinct honest
        device group lands in its own cluster and gets discarded."""
        gm = _gm_state(0)
        rng = np.random.default_rng(1)
        direction_a = {k: 0.05 * rng.normal(size=v.shape) for k, v in gm.items()}
        direction_b = {k: 0.05 * rng.normal(size=v.shape) for k, v in gm.items()}
        group_a = [
            ClientUpdate(
                f"a{i}",
                {k: gm[k] + direction_a[k] + 0.001 * rng.normal(size=gm[k].shape)
                 for k in gm},
                10,
            )
            for i in range(3)
        ]
        group_b = [
            ClientUpdate(
                f"b{i}",
                {k: gm[k] + direction_b[k] + 0.001 * rng.normal(size=gm[k].shape)
                 for k in gm},
                10,
            )
            for i in range(2)
        ]
        poisoned = _update(66, gm, jitter=2.0, malicious=True)
        agg = ClusteredAggregation(num_clusters=3, seed=0).aggregate(
            gm, group_a + group_b + [poisoned]
        )
        # only group A (the largest cluster) survives
        expected = {k: gm[k] + direction_a[k] for k in gm}
        for key in gm:
            np.testing.assert_allclose(agg[key], expected[key], atol=0.01)

    def test_single_update_passthrough(self):
        gm = _gm_state(0)
        u = _update(3, gm)
        agg = ClusteredAggregation().aggregate(gm, [u])
        for key in gm:
            np.testing.assert_allclose(agg[key], u.state[key])

    def test_invalid_cluster_count(self):
        with pytest.raises(ValueError):
            ClusteredAggregation(num_clusters=1)


class TestKrum:
    def test_scores_rank_outlier_highest(self):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, 5)]
        outlier = _update(77, gm, jitter=3.0)
        strategy = KrumAggregation(num_byzantine=1)
        scores = strategy.krum_scores(honest + [outlier])
        assert np.argmax(scores) == 4

    def test_selects_central_update(self):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, 5)]
        outlier = _update(77, gm, jitter=3.0)
        agg = KrumAggregation().aggregate(gm, honest + [outlier])
        chosen_is_honest = any(
            all(np.allclose(agg[k], u.state[k]) for k in gm) for u in honest
        )
        assert chosen_is_honest

    def test_validation(self):
        with pytest.raises(ValueError):
            KrumAggregation(num_byzantine=-1)


class TestUpdateAutoencoder:
    def test_fit_reduces_reconstruction_error(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(8, 12))
        ae = UpdateAutoencoder(12, epochs=200, seed=0)
        before = ae.reconstruction_errors(features).mean()
        ae.fit(features)
        assert ae.reconstruction_errors(features).mean() < before

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            UpdateAutoencoder(0)


class TestSummarizeDelta:
    def test_fixed_length_and_order(self):
        gm = _gm_state(0)
        delta = state_sub(_update(1, gm).state, gm)
        summary = summarize_delta(delta)
        assert summary.shape == (4 * len(gm),)

    def test_zero_delta_summary(self):
        gm = _gm_state(0)
        zero = {k: np.zeros_like(v) for k, v in gm.items()}
        np.testing.assert_allclose(summarize_delta(zero), 0.0)


class TestLatentSpaceAggregation:
    def test_outlier_update_filtered(self):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, 6)]
        poisoned = _update(88, gm, jitter=2.0, malicious=True)
        agg = LatentSpaceAggregation(seed=0).aggregate(gm, honest + [poisoned])
        # result should stay near the honest mean, far from the outlier
        shift = max(np.abs(agg[k] - gm[k]).max() for k in gm)
        assert shift < 0.5

    def test_few_updates_fall_back_to_fedavg(self):
        gm = _gm_state(0)
        updates = [_update(1, gm), _update(2, gm)]
        agg = LatentSpaceAggregation(seed=0).aggregate(gm, updates)
        mean = {k: np.mean([u.state[k] for u in updates], axis=0) for k in gm}
        for key in gm:
            np.testing.assert_allclose(agg[key], mean[key])

    def test_validation(self):
        with pytest.raises(ValueError):
            LatentSpaceAggregation(outlier_factor=1.0)
        with pytest.raises(ValueError):
            LatentSpaceAggregation(detector_epochs=0)

    @pytest.mark.parametrize(
        "removed", ["detector_engine", "warm_start", "warm_start_epochs"]
    )
    def test_removed_detector_options_rejected(self, removed):
        """FEDLS has one detector path: a config still carrying the
        serial-engine or warm-start knobs fails loudly, not silently."""
        with pytest.raises(TypeError, match=removed):
            make_framework("fedls", D, C, seed=0, **{removed: 1})

class TestFedlsBatchedEquivalence:
    """The fold-batched detectors vs the per-fold reference loop
    (``tests/reference/fedls.py``)."""

    def _cohort(self, n=6, seed=0):
        gm = _gm_state(0)
        updates = [_update(100 + i, gm, jitter=0.01) for i in range(n - 1)]
        updates.append(_update(999, gm, jitter=1.5, malicious=True))
        return gm, updates

    @pytest.mark.parametrize("n_clients", [4, 7])
    def test_aggregate_matches_serial(self, n_clients):
        gm, updates = self._cohort(n_clients)
        batched = LatentSpaceAggregation(seed=0, detector_epochs=40)
        serial = with_serial_detectors(
            LatentSpaceAggregation(seed=0, detector_epochs=40)
        )
        out_b = batched.aggregate(gm, updates)
        out_s = serial.aggregate(gm, updates)
        for key in gm:
            np.testing.assert_allclose(out_b[key], out_s[key], atol=1e-10)

    def test_loo_errors_match_serial_across_rounds(self):
        normalized = np.random.default_rng(3).normal(size=(6, 20))
        agg = LatentSpaceAggregation(seed=7, detector_epochs=30)
        for round_index in (1, 2, 5):
            e_serial = serial_loo_errors(agg, normalized, round_index)
            e_batched = agg.leave_one_out_errors(normalized, round_index)
            np.testing.assert_allclose(e_serial, e_batched, atol=1e-10)
        # different rounds draw different detector seeds
        assert not np.allclose(
            agg.leave_one_out_errors(normalized, 1),
            agg.leave_one_out_errors(normalized, 2),
        )

    def test_float32_drift_pinned(self):
        from repro.nn import compute_dtype

        gm, updates = self._cohort(6)
        with compute_dtype(np.float32):
            gm32 = {k: v.astype(np.float32) for k, v in gm.items()}
            ups32 = [
                ClientUpdate(
                    u.client_name,
                    {k: v.astype(np.float32) for k, v in u.state.items()},
                    u.num_samples,
                )
                for u in updates
            ]
            batched = LatentSpaceAggregation(seed=0, detector_epochs=40)
            norm_b = batched.normalized_summaries(gm32, ups32)
            e_b = batched.leave_one_out_errors(norm_b, 1)
            e_s = serial_loo_errors(batched, norm_b, 1)
        assert float(np.abs(e_b - e_s).max()) <= 1e-4


class TestFedlsSampledPeers:
    """The O(n·k) detector mode: seeded peer sampling vs full LOO."""

    def test_peer_matrix_shape_and_validity(self):
        from repro.baselines.fedls import sampled_peer_index

        index = sampled_peer_index(9, 4, np.random.default_rng(0))
        assert index.shape == (9, 4)
        for row in range(9):
            assert row not in index[row]  # never your own update
            assert len(set(index[row])) == 4  # distinct peers

    def test_validation(self):
        from repro.baselines.fedls import sampled_peer_index

        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sampled_peer_index(6, 1, rng)
        with pytest.raises(ValueError):
            sampled_peer_index(6, 6, rng)
        with pytest.raises(ValueError):
            LatentSpaceAggregation(sampled_peers=1)

    def test_serial_batched_agree_across_rounds(self):
        normalized = np.random.default_rng(3).normal(size=(10, 20))
        agg = LatentSpaceAggregation(
            seed=7, detector_epochs=30, sampled_peers=4
        )
        for round_index in (1, 2, 5):
            e_serial = serial_loo_errors(agg, normalized, round_index)
            e_batched = agg.leave_one_out_errors(normalized, round_index)
            np.testing.assert_allclose(e_serial, e_batched, atol=1e-10)

    def test_aggregate_matches_serial(self):
        gm = _gm_state(0)
        updates = [_update(200 + i, gm, jitter=0.01) for i in range(9)]
        updates.append(_update(998, gm, jitter=1.5, malicious=True))

        def make():
            return LatentSpaceAggregation(
                seed=0, detector_epochs=40, sampled_peers=4
            )

        out_b = make().aggregate(gm, updates)
        out_s = with_serial_detectors(make()).aggregate(gm, updates)
        for key in gm:
            np.testing.assert_allclose(out_b[key], out_s[key], atol=1e-10)

    def test_peer_assignment_deterministic_per_round(self):
        agg = LatentSpaceAggregation(seed=7, sampled_peers=3)
        first = agg._peer_index(8, 2)
        np.testing.assert_array_equal(first, agg._peer_index(8, 2))
        assert not np.array_equal(first, agg._peer_index(8, 3))

    def test_large_k_falls_back_to_full_loo(self):
        from repro.baselines.fedls import leave_one_out_index

        agg = LatentSpaceAggregation(seed=0, sampled_peers=12)
        np.testing.assert_array_equal(
            agg._peer_index(6, 1), leave_one_out_index(6)
        )

    def test_outlier_still_detected_with_sampled_peers(self):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, 9)]
        poisoned = _update(88, gm, jitter=2.0, malicious=True)
        agg = LatentSpaceAggregation(
            seed=0, detector_epochs=40, sampled_peers=4
        )
        merged = agg.aggregate(gm, honest + [poisoned])
        shift = max(np.abs(merged[k] - gm[k]).max() for k in gm)
        assert shift < 0.5

    def test_factory_passes_knob_through(self):
        spec = make_framework("fedls", D, C, seed=0, sampled_peers=5)
        assert spec.strategy.sampled_peers == 5


class TestFedlsRoundDeterminism:
    """Regression: detector seeds derive from the federation's round
    index, not from how many times the strategy instance was called."""

    def _cohort(self):
        gm = _gm_state(0)
        updates = [_update(100 + i, gm, jitter=0.01) for i in range(4)]
        updates.append(_update(999, gm, jitter=1.5, malicious=True))
        return gm, updates

    def test_reset_makes_reruns_identical(self):
        gm, updates = self._cohort()
        agg = LatentSpaceAggregation(seed=0, detector_epochs=25)
        first = agg.aggregate(gm, updates)
        # undriven calls advance a local round counter (fresh detector
        # seeds each call) ...
        agg.aggregate(gm, updates)
        assert agg._local_round == 2
        # ... but reset() (what a fresh FederatedServer invokes) restores
        # the initial state bit for bit
        agg.reset()
        assert agg._local_round == 0
        np.testing.assert_equal(agg.aggregate(gm, updates), first)

    def test_server_round_index_overrides_local_counter(self):
        gm, updates = self._cohort()
        agg = LatentSpaceAggregation(seed=0, detector_epochs=25)
        agg.begin_round(3)
        driven = agg.aggregate(gm, updates)
        # a server-driven strategy reuses the announced index: repeated
        # aggregation of the same round reproduces exactly
        np.testing.assert_equal(agg.aggregate(gm, updates), driven)
        undriven = LatentSpaceAggregation(seed=0, detector_epochs=25)
        undriven.aggregate(gm, updates)  # local rounds 1, 2 ...
        undriven.aggregate(gm, updates)
        round3 = undriven.aggregate(gm, updates)
        np.testing.assert_equal(round3, driven)

    def test_two_fresh_federations_reusing_strategy_agree(self):
        """The FrameworkSpec-reuse scenario: one strategy instance, two
        federations of the same cell, identical results."""
        from repro.fl.client import ClientConfig, FederatedClient
        from repro.fl.server import FederatedServer
        from repro.utils.rng import SeedSequence

        strategy = LatentSpaceAggregation(seed=0, detector_epochs=25)

        def run():
            clients = [
                FederatedClient(
                    f"c{i}",
                    DNNLocalizer(D, C, hidden=(8,), seed=i),
                    _dataset(24, seed=i),
                    ClientConfig(epochs=2, lr=0.01),
                    seeds=SeedSequence(i),
                )
                for i in range(3)
            ]
            server = FederatedServer(
                DNNLocalizer(D, C, hidden=(8,), seed=9),
                strategy,
                clients,
                SeedSequence(5),
            )
            server.run_rounds(2)
            return server.model.state_dict()

        np.testing.assert_equal(run(), run())


class TestFedlsSharedEncoder:
    """The O(n) detector mode: pooled encoder + per-fold batched heads."""

    def _cohort(self, n_honest=8):
        gm = _gm_state(0)
        honest = [_update(i, gm, jitter=0.01) for i in range(1, n_honest + 1)]
        poisoned = _update(88, gm, jitter=2.0, malicious=True)
        return gm, honest + [poisoned]

    def test_errors_deterministic_and_round_keyed(self):
        normalized = np.random.default_rng(3).normal(size=(10, 20))
        agg = LatentSpaceAggregation(
            seed=7, detector_epochs=30, shared_encoder=True
        )
        twin = LatentSpaceAggregation(
            seed=7, detector_epochs=30, shared_encoder=True
        )
        first = agg.leave_one_out_errors(normalized, 1)
        np.testing.assert_array_equal(
            first, twin.leave_one_out_errors(normalized, 1)
        )
        # different rounds draw different pooled-encoder seeds
        assert not np.allclose(first, agg.leave_one_out_errors(normalized, 2))

    def test_outlier_filtered_like_full_loo(self):
        gm, updates = self._cohort()
        shared = LatentSpaceAggregation(
            seed=0, detector_epochs=40, shared_encoder=True
        )
        merged = shared.aggregate(gm, updates)
        shift = max(np.abs(merged[k] - gm[k]).max() for k in gm)
        assert shift < 0.5
        assert shared.last_dropped_count >= 1
        # agreement with the exact full-LOO reference on the kept set is
        # the contract (not bit-equality)
        normalized = shared.normalized_summaries(gm, updates)
        e_shared = shared.leave_one_out_errors(normalized, 1)
        e_ref = serial_loo_errors(shared, normalized, 1)

        def flags(errors):
            threshold = shared.outlier_factor * (np.median(errors) + 1e-12)
            return set(np.flatnonzero(errors > threshold))

        assert flags(e_shared) == flags(e_ref) == {len(updates) - 1}

    def test_composes_with_sampled_peers(self):
        gm, updates = self._cohort()
        agg = LatentSpaceAggregation(
            seed=0, detector_epochs=40, shared_encoder=True, sampled_peers=4
        )
        merged = agg.aggregate(gm, updates)
        shift = max(np.abs(merged[k] - gm[k]).max() for k in gm)
        assert shift < 0.5
        assert agg.last_dropped_count >= 1

    def test_factory_passes_knob_through(self):
        spec = make_framework("fedls", D, C, seed=0, shared_encoder=True)
        assert spec.strategy.shared_encoder

    def test_dropped_count_tracked_and_reset(self):
        gm, updates = self._cohort()
        agg = LatentSpaceAggregation(seed=0, detector_epochs=40)
        assert agg.last_dropped_count == 0
        agg.aggregate(gm, updates)
        assert agg.last_dropped_count >= 1
        # the <3-updates fallback aggregates everyone: no drops recorded
        agg.aggregate(gm, updates[:2])
        assert agg.last_dropped_count == 0
        agg.aggregate(gm, updates)
        agg.reset()
        assert agg.last_dropped_count == 0


class TestOnDeviceAnomalyModel:
    def test_state_dict_has_both_networks(self):
        model = OnDeviceAnomalyModel(D, C, seed=0)
        keys = set(model.state_dict())
        assert any(k.startswith("localizer.") for k in keys)
        assert any(k.startswith("detector.") for k in keys)

    def test_round_trip(self):
        a = OnDeviceAnomalyModel(D, C, seed=0)
        b = OnDeviceAnomalyModel(D, C, seed=5)
        b.load_state_dict(a.state_dict())
        x = RNG.uniform(0, 1, size=(4, D))
        np.testing.assert_allclose(a.predict(x), b.predict(x))
        np.testing.assert_allclose(a.detector_errors(x), b.detector_errors(x))

    def test_trusted_training_skips_detector_filter(self):
        model = OnDeviceAnomalyModel(D, C, seed=0)
        ds = _dataset()
        model.train_epochs(ds, epochs=1, lr=0.001,
                           rng=np.random.default_rng(0), trusted=True)
        assert model.last_flagged_count == 0

    def test_detector_flags_perturbed_data_after_training(self):
        model = OnDeviceAnomalyModel(D, C, tau=0.1, seed=0)
        ds = _dataset(200)
        model.train_epochs(ds, epochs=60, lr=0.005,
                           rng=np.random.default_rng(0), trusted=True)
        clean_flags = model.flag(ds.features).mean()
        poisoned = np.clip(ds.features + 0.4, 0, 1)
        poisoned_flags = model.flag(poisoned).mean()
        assert poisoned_flags > clean_flags

    def test_all_flagged_skips_update(self):
        model = OnDeviceAnomalyModel(D, C, tau=0.0, seed=0)  # flag everything
        ds = _dataset()
        before = model.state_dict()
        loss = model.train_epochs(ds, epochs=3, lr=0.01,
                                  rng=np.random.default_rng(0))
        assert loss == 0.0
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            OnDeviceAnomalyModel(D, C, tau=-0.1)


class TestRegistry:
    def test_all_frameworks_constructible(self):
        for name in FRAMEWORK_NAMES:
            spec = make_framework(name, D, C, seed=0)
            assert spec.name == name
            model = spec.model_factory()
            assert model.input_dim == D
            assert model.num_classes == C

    def test_comparison_set_matches_figure6(self):
        assert COMPARISON_FRAMEWORKS == (
            "safeloc", "onlad", "fedhil", "fedcc", "fedls", "fedloc"
        )

    def test_unknown_framework(self):
        with pytest.raises(KeyError):
            make_framework("sigloc", D, C)

    def test_table1_parameter_ordering(self):
        """Table I: SAFELOC has the fewest parameters, FEDLS the most, and
        the full ordering matches the paper."""
        counts = {
            name: make_framework(name, 135, 80, seed=0).model_factory().parameter_count()
            for name in COMPARISON_FRAMEWORKS
        }
        assert counts["safeloc"] == min(counts.values())
        assert counts["fedls"] == max(counts.values())
        order = sorted(counts, key=counts.get)
        assert order == ["safeloc", "fedcc", "fedhil", "onlad", "fedloc", "fedls"]

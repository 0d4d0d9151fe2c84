"""Tests for the saliency-map aggregation (eq. 6-9), incl. properties.

The per-tensor eq. 6-8 helpers live in ``tests/reference/aggregation.py``
(the packed strategy is pinned to them by
``test_packed_aggregation.py``); the helper tests here check that the
reference itself has the properties the paper describes, and that the
strategy rejects the parameters each equation cannot take.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.aggregation import (
    adjust_weights,
    deviation_matrix,
    relative_saliency_matrices,
    saliency_matrix,
)
from repro.core.saliency import SaliencyAggregation
from repro.fl.aggregation import ClientUpdate


def _state(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return {
        "w1": scale * rng.normal(size=(4, 3)),
        "b1": scale * rng.normal(size=3),
    }


class TestDeviationMatrix:
    def test_zero_for_identical(self):
        a = _state(0)
        dev = deviation_matrix(a, a)
        assert all(np.all(v == 0) for v in dev.values())

    def test_absolute_difference(self):
        gm = {"w": np.array([1.0, -2.0])}
        lm = {"w": np.array([0.5, 1.0])}
        dev = deviation_matrix(lm, gm)
        np.testing.assert_allclose(dev["w"], [0.5, 3.0])

    def test_key_mismatch(self):
        """Eq. 6 needs the LM and GM over the same tensors."""
        update = ClientUpdate("c0", {"a": np.zeros(2)}, 10)
        with pytest.raises(ValueError):
            SaliencyAggregation().aggregate({"b": np.zeros(2)}, [update])


class TestAbsoluteSaliency:
    def test_bounds(self):
        dev = {"w": np.array([0.0, 0.5, 100.0])}
        sal = saliency_matrix(dev)
        np.testing.assert_allclose(sal["w"], [1.0, 1 / 1.5, 1 / 101.0])

    def test_monotone_decreasing(self):
        dev = {"w": np.linspace(0, 10, 50)}
        sal = saliency_matrix(dev)["w"]
        assert np.all(np.diff(sal) < 0)

    def test_sharpness_gain(self):
        dev = {"w": np.array([0.1])}
        low = saliency_matrix(dev, sharpness=1.0)["w"][0]
        high = saliency_matrix(dev, sharpness=50.0)["w"][0]
        assert high < low

    def test_invalid_sharpness(self):
        with pytest.raises(ValueError):
            SaliencyAggregation(mode="absolute", sharpness=0.0)


class TestRelativeSaliency:
    def test_uniform_cohort_gets_high_saliency(self):
        devs = [{"w": np.full((3, 3), 0.01)} for _ in range(5)]
        sals = relative_saliency_matrices(devs, tolerance=2.0, power=4.0)
        for sal in sals:
            assert np.all(sal["w"] > 0.9)

    def test_outlier_crushed(self):
        devs = [{"w": np.full(4, 0.01)} for _ in range(5)]
        devs.append({"w": np.full(4, 0.2)})  # 20x the median
        sals = relative_saliency_matrices(devs)
        outlier = sals[-1]["w"]
        honest = sals[0]["w"]
        assert np.all(outlier < 0.01)
        assert np.all(honest > 0.9)

    def test_scale_free(self):
        """Scaling every deviation by a constant leaves saliency unchanged."""
        rng = np.random.default_rng(0)
        base = [{"w": np.abs(rng.normal(size=4))} for _ in range(4)]
        scaled = [{"w": 1000.0 * d["w"]} for d in base]
        s1 = relative_saliency_matrices(base)
        s2 = relative_saliency_matrices(scaled)
        for a, b in zip(s1, s2):
            np.testing.assert_allclose(a["w"], b["w"], rtol=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            SaliencyAggregation(tolerance=0)
        with pytest.raises(ValueError):
            SaliencyAggregation(tolerance=-1.0)


class TestAdjustWeights:
    def test_blend_anchors_at_gm(self):
        gm = {"w": np.zeros(3)}
        lm = {"w": np.array([1.0, 2.0, 3.0])}
        sal = {"w": np.array([1.0, 0.5, 0.0])}
        adj = adjust_weights(lm, gm, sal, "blend")
        np.testing.assert_allclose(adj["w"], [1.0, 1.0, 0.0])

    def test_scale_is_verbatim_eq8(self):
        gm = {"w": np.zeros(2)}
        lm = {"w": np.array([2.0, 4.0])}
        sal = {"w": np.array([0.5, 0.25])}
        adj = adjust_weights(lm, gm, sal, "scale")
        np.testing.assert_allclose(adj["w"], [1.0, 1.0])

    def test_unknown_adjustment(self):
        with pytest.raises(ValueError, match="unknown adjustment"):
            SaliencyAggregation(adjustment="magic")


class TestSaliencyAggregation:
    def _updates(self, states, n=10):
        return [ClientUpdate(f"c{i}", s, n) for i, s in enumerate(states)]

    def test_honest_fixed_point(self):
        """All LMs equal to the GM ⇒ the GM is unchanged."""
        gm = _state(0)
        agg = SaliencyAggregation().aggregate(
            gm, self._updates([dict(gm) for _ in range(4)])
        )
        for key in gm:
            np.testing.assert_allclose(agg[key], gm[key])

    def test_outlier_suppressed_relative_to_fedavg(self):
        """A wildly deviant LM must influence the GM less under saliency
        aggregation than under plain averaging."""
        rng = np.random.default_rng(3)
        gm = _state(0)
        honest = []
        for i in range(5):
            s = {k: v + 0.01 * rng.normal(size=v.shape) for k, v in gm.items()}
            honest.append(s)
        poisoned = {k: v + 1.0 * rng.normal(size=v.shape) for k, v in gm.items()}
        updates = self._updates(honest + [poisoned])
        sal = SaliencyAggregation().aggregate(gm, updates)
        avg = {
            k: np.mean([u.state[k] for u in updates], axis=0) for k in gm
        }
        sal_shift = sum(np.abs(sal[k] - gm[k]).sum() for k in gm)
        avg_shift = sum(np.abs(avg[k] - gm[k]).sum() for k in gm)
        assert sal_shift < 0.5 * avg_shift

    def test_server_mixing_slows_update(self):
        gm = _state(0)
        updates = self._updates([_state(9)])
        fast = SaliencyAggregation(server_mixing=1.0).aggregate(gm, updates)
        slow = SaliencyAggregation(server_mixing=0.1).aggregate(gm, updates)
        for key in gm:
            fast_shift = np.abs(fast[key] - gm[key]).sum()
            slow_shift = np.abs(slow[key] - gm[key]).sum()
            assert slow_shift <= fast_shift + 1e-12

    def test_absolute_mode_runs(self):
        gm = _state(0)
        agg = SaliencyAggregation(mode="absolute", sharpness=50.0)
        out = agg.aggregate(gm, self._updates([_state(1), _state(2)]))
        assert set(out) == set(gm)

    def test_validation(self):
        with pytest.raises(ValueError):
            SaliencyAggregation(server_mixing=0.0)
        with pytest.raises(ValueError):
            SaliencyAggregation(mode="psychic")
        with pytest.raises(ValueError):
            SaliencyAggregation(power=-1)

    def test_no_updates_rejected(self):
        with pytest.raises(ValueError):
            SaliencyAggregation().aggregate(_state(0), [])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.001, 10.0))
def test_property_saliency_values_in_unit_interval(seed, scale):
    rng = np.random.default_rng(seed)
    devs = [
        {"w": scale * np.abs(rng.normal(size=(3, 3)))} for _ in range(4)
    ]
    for sal in relative_saliency_matrices(devs):
        assert np.all(sal["w"] > 0)
        assert np.all(sal["w"] <= 1.0)
    for dev in devs:
        sal = saliency_matrix(dev)
        assert np.all(sal["w"] > 0)
        assert np.all(sal["w"] <= 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_property_blend_adjustment_between_gm_and_lm(seed):
    """Blend-adjusted weights always lie between the GM and the LM."""
    rng = np.random.default_rng(seed)
    gm = {"w": rng.normal(size=6)}
    lm = {"w": rng.normal(size=6)}
    sal = {"w": rng.uniform(0, 1, size=6)}
    adj = adjust_weights(lm, gm, sal, "blend")["w"]
    lo = np.minimum(gm["w"], lm["w"]) - 1e-12
    hi = np.maximum(gm["w"], lm["w"]) + 1e-12
    assert np.all(adj >= lo) and np.all(adj <= hi)

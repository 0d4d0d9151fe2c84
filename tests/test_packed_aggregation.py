"""Packed-engine equivalence and dtype policy.

Every aggregation strategy runs on the packed ``(n_clients, n_params)``
matrix; a Hypothesis property pins each one to its per-key reference in
``tests/reference/aggregation.py`` within 1e-10 over generated cohorts
(1–16 clients, up to half of them attackers, coordinated or not) and on
a fixed set of pinned cohort shapes, and the compute-dtype tests pin
float32 threading end to end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import aggregation as ref
from repro.baselines.dnn import DNNLocalizer
from repro.baselines.fedcc import ClusteredAggregation
from repro.baselines.fedls import summarize_delta, summarize_packed_deltas
from repro.baselines.krum import KrumAggregation
from repro.core.saliency import SaliencyAggregation
from repro.fl import FedAvg, PackedStates, PackLayout
from repro.fl.aggregation import ClientUpdate
from repro.fl.packed import cosine_similarity_matrix, pairwise_sq_distances
from repro.fl.robust import CoordinateMedian, NormClipping, TrimmedMean
from repro.fl.state import (
    state_cosine_similarity,
    state_sub,
    state_weighted_mean,
)
from repro.nn import Linear, compute_dtype, default_dtype
from repro.utils.rng import fallback_rng, seed_fallback_rng

TOL = 1e-10


def _gm(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "0.weight": rng.normal(size=(8, 16)),
        "0.bias": rng.normal(size=16),
        "2.weight": rng.normal(size=(16, 6)),
        "2.bias": rng.normal(size=6),
        "4.weight": rng.normal(size=(6, 4)),
        "4.bias": rng.normal(size=4),
    }


def _cohort(gm, n_clients, n_attackers=0, seed=1, coordinated=False):
    """Random cohort: honest jitter, attackers deviate 50× harder.

    ``coordinated=True`` reproduces the multi-attacker fixture shape —
    all attackers push the same poison direction (they shift the
    cross-client median together).
    """
    rng = np.random.default_rng(seed)
    poison = {k: rng.normal(size=v.shape) for k, v in gm.items()}
    updates = []
    for i in range(n_clients):
        if i < n_attackers:
            if coordinated:
                state = {k: gm[k] + 0.5 * poison[k] for k in gm}
            else:
                state = {
                    k: gm[k] + 0.5 * rng.normal(size=v.shape)
                    for k, v in gm.items()
                }
        else:
            state = {
                k: gm[k] + 0.01 * rng.normal(size=v.shape)
                for k, v in gm.items()
            }
        updates.append(
            ClientUpdate(f"c{i}", state, num_samples=10 + 3 * i,
                         is_malicious=i < n_attackers)
        )
    return updates


def _assert_states_close(a, b, tol=TOL):
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_allclose(a[key], b[key], rtol=0, atol=tol)


def _fedavg(gm, updates, server_momentum=0.0):
    averaged = state_weighted_mean(
        [u.state for u in updates], [max(1, u.num_samples) for u in updates]
    )
    m = server_momentum
    return {key: m * gm[key] + (1.0 - m) * averaged[key] for key in gm}


_SALIENCY_ABSOLUTE = dict(
    mode="absolute", adjustment="scale", server_mixing=0.7
)

#: id → (packed strategy factory, per-key reference)
STRATEGY_CASES = {
    "fedavg": (FedAvg, _fedavg),
    "fedavg-momentum": (
        lambda: FedAvg(server_momentum=0.4),
        lambda gm, ups: _fedavg(gm, ups, server_momentum=0.4),
    ),
    "coordinate-median": (CoordinateMedian, ref.coordinate_median),
    "trimmed-mean-1": (lambda: TrimmedMean(trim=1), ref.trimmed_mean),
    "trimmed-mean-2": (
        lambda: TrimmedMean(trim=2),
        lambda gm, ups: ref.trimmed_mean(gm, ups, trim=2),
    ),
    "norm-clipping-adaptive": (NormClipping, ref.norm_clipping),
    "norm-clipping-fixed": (
        lambda: NormClipping(clip_norm=0.5),
        lambda gm, ups: ref.norm_clipping(gm, ups, clip_norm=0.5),
    ),
    "saliency-relative-blend": (SaliencyAggregation, ref.saliency),
    "saliency-absolute-scale": (
        lambda: SaliencyAggregation(**_SALIENCY_ABSOLUTE),
        lambda gm, ups: ref.saliency(gm, ups, **_SALIENCY_ABSOLUTE),
    ),
    "krum": (
        lambda: KrumAggregation(num_byzantine=2),
        lambda gm, ups: ref.krum(gm, ups, num_byzantine=2),
    ),
    "fedcc-cluster": (
        lambda: ClusteredAggregation(seed=3),
        lambda gm, ups: ref.fedcc(gm, ups, seed=3),
    ),
}


#: Pinned cohort shapes every strategy runs on, whatever Hypothesis draws:
#: honest-only, one attacker, the coordinated multi-attacker fixture of
#: ``test_multi_attacker``, a large mixed cohort and a lone client.
PINNED_COHORTS = {
    "honest-5": {"n_clients": 5, "n_attackers": 0},
    "one-attacker-6": {"n_clients": 6, "n_attackers": 1},
    "coordinated-2-of-6": {
        "n_clients": 6, "n_attackers": 2, "coordinated": True,
    },
    "multi-attacker-12": {"n_clients": 12, "n_attackers": 4},
    "single-client": {"n_clients": 1},
}


@st.composite
def cohorts(draw):
    """Cohort shape: 1–16 clients, 0 to half of them attackers."""
    n_clients = draw(st.integers(1, 16))
    return {
        "n_clients": n_clients,
        "n_attackers": draw(st.integers(0, n_clients // 2)),
        "coordinated": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestPackedEquivalence:
    @pytest.mark.parametrize("case", sorted(STRATEGY_CASES))
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(cohort_kw=cohorts())
    def test_packed_matches_reference(self, case, cohort_kw):
        make_strategy, reference = STRATEGY_CASES[case]
        gm = _gm()
        updates = _cohort(gm, **cohort_kw)
        _assert_states_close(
            make_strategy().aggregate(gm, updates), reference(gm, updates)
        )

    @pytest.mark.parametrize("case", sorted(STRATEGY_CASES))
    @pytest.mark.parametrize("cohort", list(PINNED_COHORTS))
    def test_pinned_cohort_matches_reference(self, case, cohort):
        make_strategy, reference = STRATEGY_CASES[case]
        gm = _gm()
        updates = _cohort(gm, **PINNED_COHORTS[cohort])
        _assert_states_close(
            make_strategy().aggregate(gm, updates), reference(gm, updates)
        )

    def test_krum_scores_match_reference(self):
        gm = _gm()
        updates = _cohort(gm, 8, 2)
        strategy = KrumAggregation(num_byzantine=2)
        np.testing.assert_allclose(
            strategy.krum_scores(updates),
            ref.krum_scores(updates, num_byzantine=2),
            rtol=1e-9,
        )

    def test_inputs_not_mutated(self):
        gm = _gm()
        updates = _cohort(gm, 6, 1)
        gm_before = {k: v.copy() for k, v in gm.items()}
        states_before = [
            {k: v.copy() for k, v in u.state.items()} for u in updates
        ]
        SaliencyAggregation().aggregate(gm, updates)
        _assert_states_close(gm, gm_before, tol=0)
        for update, before in zip(updates, states_before):
            _assert_states_close(update.state, before, tol=0)


class TestPackedStates:
    def test_round_trip(self):
        gm = _gm()
        packed = PackedStates.from_states([gm])
        _assert_states_close(packed.state(0), gm, tol=0)

    def test_row_order_and_shape(self):
        gm = _gm()
        updates = _cohort(gm, 4)
        packed = PackedStates.from_updates(updates)
        assert packed.n_clients == 4
        assert packed.n_params == sum(v.size for v in gm.values())
        for i, update in enumerate(updates):
            _assert_states_close(packed.state(i), update.state, tol=0)

    def test_layout_cached_per_architecture(self):
        a, b = _gm(0), _gm(1)
        assert PackLayout.for_state(a) is PackLayout.for_state(b)
        other = {"w": np.zeros((2, 2))}
        assert PackLayout.for_state(other) is not PackLayout.for_state(a)

    def test_key_mismatch_rejected(self):
        gm = _gm()
        layout = PackLayout.for_state(gm)
        bad = dict(gm)
        del bad["0.bias"]
        with pytest.raises(ValueError):
            layout.flatten(bad)

    def test_shape_mismatch_rejected(self):
        gm = _gm()
        layout = PackLayout.for_state(gm)
        bad = dict(gm)
        bad["0.bias"] = np.zeros(17)
        with pytest.raises(ValueError):
            layout.flatten(bad)

    def test_pairwise_distances_match_norms(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(5, 40))
        sq = pairwise_sq_distances(m)
        for i in range(5):
            for j in range(5):
                expected = np.sum((m[i] - m[j]) ** 2)
                assert sq[i, j] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_cosine_matrix_matches_state_metric(self):
        states = [_gm(s) for s in range(4)]
        packed = PackedStates.from_states(states)
        sims = cosine_similarity_matrix(packed.matrix)
        for i in range(4):
            for j in range(4):
                assert sims[i, j] == pytest.approx(
                    state_cosine_similarity(states[i], states[j]), abs=1e-9
                )

    def test_fedls_packed_summaries_match(self):
        gm = _gm()
        updates = _cohort(gm, 5, 1)
        packed = PackedStates.from_updates(updates)
        fast = summarize_packed_deltas(
            packed.deltas(packed.layout.flatten(gm)), packed.layout
        )
        slow = np.stack(
            [summarize_delta(state_sub(u.state, gm)) for u in updates]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)

    def test_fedls_summaries_handle_tiny_segments(self):
        """The grouped segment reductions must survive width-1 and scalar
        tensors (std 0, max == mean|·|) just like the dict path."""
        rng = np.random.default_rng(4)
        gm = {
            "alpha": np.array(0.5),
            "beta": rng.normal(size=1),
            "gamma.weight": rng.normal(size=(3, 2)),
        }
        updates = [
            ClientUpdate(
                f"c{i}",
                {k: v + 0.1 * np.random.default_rng(i).normal(size=v.shape)
                 for k, v in gm.items()},
                5,
            )
            for i in range(4)
        ]
        packed = PackedStates.from_updates(updates)
        fast = summarize_packed_deltas(
            packed.deltas(packed.layout.flatten(gm)), packed.layout
        )
        slow = np.stack(
            [summarize_delta(state_sub(u.state, gm)) for u in updates]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-9, atol=1e-12)


NUM_APS, NUM_RPS = 10, 6


class TestComputeDtype:
    def test_default_is_float64(self):
        assert default_dtype() is np.float64

    def test_float32_threads_through_layers(self):
        with compute_dtype(np.float32):
            layer = Linear(4, 3, rng=np.random.default_rng(0))
            out = layer.forward(np.ones(4))
            assert layer.weight.data.dtype == np.float32
            assert out.dtype == np.float32
        assert default_dtype() is np.float64

    def test_float32_packed_aggregation(self):
        gm64 = _gm()
        updates = _cohort(gm64, 6, 1)
        with compute_dtype(np.float32):
            out = SaliencyAggregation().aggregate(gm64, updates)
            assert all(v.dtype == np.float32 for v in out.values())
        reference = SaliencyAggregation().aggregate(gm64, updates)
        for key in reference:
            np.testing.assert_allclose(
                out[key], reference[key], rtol=0, atol=1e-5
            )

    def test_float32_model_halves_state_memory(self):
        with compute_dtype(np.float32):
            model = DNNLocalizer(NUM_APS, NUM_RPS, hidden=(8,), seed=0)
            state = model.state_dict()
        assert all(v.dtype == np.float32 for v in state.values())

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ValueError):
            compute_dtype(np.int32).__enter__()

    def test_init_draws_are_width_invariant(self):
        """A given seed yields the same weights at either width (init
        draws at float64, casts on the way out)."""
        w64 = Linear(6, 5, rng=np.random.default_rng(5)).weight.data
        with compute_dtype(np.float32):
            w32 = Linear(6, 5, rng=np.random.default_rng(5)).weight.data
        np.testing.assert_allclose(w64.astype(np.float32), w32, rtol=0, atol=0)


class TestDeterministicDefaults:
    def test_rngless_linear_reproducible(self):
        seed_fallback_rng(123)
        first = Linear(5, 4).weight.data
        seed_fallback_rng(123)
        second = Linear(5, 4).weight.data
        np.testing.assert_array_equal(first, second)

    def test_sequential_rngless_layers_differ(self):
        seed_fallback_rng(0)
        a = Linear(5, 4).weight.data
        b = Linear(5, 4).weight.data
        assert not np.array_equal(a, b)

    def test_fallback_streams_independent(self):
        seed_fallback_rng(0)
        a = fallback_rng("x").random(8)
        b = fallback_rng("x").random(8)
        assert not np.array_equal(a, b)

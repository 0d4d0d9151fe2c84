"""Tests (incl. property-based) for the state-dict algebra in repro.fl.state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.state import (
    flatten_state,
    state_add,
    state_cosine_similarity,
    state_distance,
    state_mean,
    state_norm,
    state_scale,
    state_signature,
    state_sub,
    state_weighted_mean,
    state_zeros_like,
    unflatten_state,
)


def _state(seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return {
        "a.weight": scale * rng.normal(size=(3, 4)),
        "a.bias": scale * rng.normal(size=4),
        "b.weight": scale * rng.normal(size=(4, 2)),
    }


class TestBasicAlgebra:
    def test_add_sub_roundtrip(self):
        a, b = _state(0), _state(1)
        back = state_sub(state_add(a, b), b)
        for key in a:
            np.testing.assert_allclose(back[key], a[key])

    def test_scale(self):
        a = _state(0)
        doubled = state_scale(a, 2.0)
        for key in a:
            np.testing.assert_allclose(doubled[key], 2 * a[key])

    def test_zeros_like(self):
        z = state_zeros_like(_state(0))
        assert all(np.all(v == 0) for v in z.values())

    def test_mean_of_identical_is_identity(self):
        a = _state(0)
        m = state_mean([a, a, a])
        for key in a:
            np.testing.assert_allclose(m[key], a[key])

    def test_key_mismatch_raises(self):
        a = _state(0)
        b = dict(a)
        del b["a.bias"]
        with pytest.raises(ValueError):
            state_add(a, b)

    def test_empty_sequence_raises(self):
        with pytest.raises(ValueError):
            state_mean([])


class TestWeightedMean:
    def test_weights_normalized(self):
        a, b = _state(0), _state(1)
        m1 = state_weighted_mean([a, b], [1, 1])
        m2 = state_weighted_mean([a, b], [10, 10])
        for key in a:
            np.testing.assert_allclose(m1[key], m2[key])

    def test_degenerate_weight_selects_state(self):
        a, b = _state(0), _state(1)
        m = state_weighted_mean([a, b], [1, 0])
        for key in a:
            np.testing.assert_allclose(m[key], a[key])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            state_weighted_mean([_state(0)], [-1.0])

    def test_zero_sum_rejected(self):
        with pytest.raises(ValueError):
            state_weighted_mean([_state(0)], [0.0])

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            state_weighted_mean([_state(0)], [1.0, 2.0])


class TestFlatten:
    def test_round_trip(self):
        a = _state(3)
        vec, spec = flatten_state(a)
        back = unflatten_state(vec, spec)
        assert set(back) == set(a)
        for key in a:
            np.testing.assert_allclose(back[key], a[key])

    def test_canonical_order(self):
        a = _state(0)
        reordered = dict(reversed(list(a.items())))
        v1, _ = flatten_state(a)
        v2, _ = flatten_state(reordered)
        np.testing.assert_array_equal(v1, v2)

    def test_size_mismatch_raises(self):
        _, spec = flatten_state(_state(0))
        with pytest.raises(ValueError):
            unflatten_state(np.zeros(3), spec)

    def test_empty_state_raises(self):
        with pytest.raises(ValueError):
            flatten_state({})


class TestMetrics:
    def test_norm_matches_flat_vector(self):
        a = _state(0)
        vec, _ = flatten_state(a)
        assert state_norm(a) == pytest.approx(np.linalg.norm(vec))

    def test_distance_zero_to_self(self):
        a = _state(0)
        assert state_distance(a, a) == 0.0

    def test_cosine_self_is_one(self):
        a = _state(0)
        assert state_cosine_similarity(a, a) == pytest.approx(1.0)

    def test_cosine_negated_is_minus_one(self):
        a = _state(0)
        assert state_cosine_similarity(a, state_scale(a, -1.0)) == pytest.approx(-1.0)

    def test_cosine_zero_state(self):
        a = _state(0)
        z = state_zeros_like(a)
        assert state_cosine_similarity(a, z) == 0.0


class TestSignature:
    def test_signature_stable_and_order_free(self):
        a = _state(0)
        reordered = dict(reversed(list(a.items())))
        assert state_signature(a) == state_signature(reordered)

    def test_signature_sensitive_to_value_name_dtype(self):
        a = _state(0)
        assert state_signature(a) != state_signature(_state(1))
        renamed = {f"x.{k}": v for k, v in a.items()}
        assert state_signature(a) != state_signature(renamed)
        narrowed = {k: v.astype(np.float32) for k, v in a.items()}
        assert state_signature(a) != state_signature(narrowed)

    def test_signature_sensitive_to_shape(self):
        a = _state(0)
        reshaped = dict(a, **{"a.weight": a["a.weight"].reshape(4, 3)})
        assert reshaped["a.weight"].tobytes() == a["a.weight"].tobytes()
        assert state_signature(a) != state_signature(reshaped)

    def test_signature_ignores_memory_layout(self):
        a = _state(0)
        fortran = {k: np.asfortranarray(v) for k, v in a.items()}
        assert not fortran["a.weight"].flags.c_contiguous
        assert state_signature(a) == state_signature(fortran)


@st.composite
def small_states(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.floats(min_value=0.01, max_value=100.0))
    return _state(seed, scale)


@settings(max_examples=30, deadline=None)
@given(a=small_states(), b=small_states(), c=small_states())
def test_property_add_commutes_and_associates(a, b, c):
    ab = state_add(a, b)
    ba = state_add(b, a)
    for key in a:
        np.testing.assert_allclose(ab[key], ba[key])
    left = state_add(state_add(a, b), c)
    right = state_add(a, state_add(b, c))
    for key in a:
        np.testing.assert_allclose(left[key], right[key], rtol=1e-10)


@settings(max_examples=30, deadline=None)
@given(a=small_states(), b=small_states())
def test_property_triangle_inequality(a, b):
    assert state_distance(a, b) <= state_norm(a) + state_norm(b) + 1e-9


@settings(max_examples=30, deadline=None)
@given(a=small_states(), factor=st.floats(min_value=-10, max_value=10))
def test_property_scale_norm_homogeneous(a, factor):
    np.testing.assert_allclose(
        state_norm(state_scale(a, factor)),
        abs(factor) * state_norm(a),
        rtol=1e-9,
        atol=1e-12,
    )


@settings(max_examples=30, deadline=None)
@given(a=small_states(), b=small_states())
def test_property_mean_between_extremes(a, b):
    m = state_mean([a, b])
    for key in a:
        lo = np.minimum(a[key], b[key])
        hi = np.maximum(a[key], b[key])
        assert np.all(m[key] >= lo - 1e-12)
        assert np.all(m[key] <= hi + 1e-12)

"""Unit tests for losses, optimizers, functional helpers and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.adam import ReferenceAdam
from repro.nn import (
    Adam,
    CompositeLoss,
    Linear,
    MSELoss,
    Parameter,
    ReLU,
    SGD,
    Sequential,
    SparseCrossEntropyLoss,
    accuracy,
    clone_state,
    compute_dtype,
    load_state,
    log_softmax,
    one_hot,
    save_state,
    softmax,
    state_allclose,
)
from repro.nn.optim import ADAM_TILE

RNG = np.random.default_rng(99)


class TestMSELoss:
    def test_value_matches_definition(self):
        loss = MSELoss()
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        target = np.array([[0.0, 2.0], [3.0, 2.0]])
        assert loss(pred, target) == pytest.approx((1.0 + 0.0 + 0.0 + 4.0) / 4)

    def test_gradient_matches_numeric(self):
        loss = MSELoss()
        pred = RNG.normal(size=(3, 4))
        target = RNG.normal(size=(3, 4))
        loss(pred, target)
        analytic = loss.backward()
        eps = 1e-6
        numeric = np.zeros_like(pred)
        for idx in np.ndindex(pred.shape):
            p = pred.copy()
            p[idx] += eps
            up = loss(p, target)
            p[idx] -= 2 * eps
            down = loss(p, target)
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MSELoss()(np.ones((2, 3)), np.ones((2, 4)))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            MSELoss().backward()

    def test_zero_for_perfect_reconstruction(self):
        x = RNG.normal(size=(4, 6))
        assert MSELoss()(x, x) == 0.0


class TestSparseCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = SparseCrossEntropyLoss()
        logits = np.zeros((5, 8))
        labels = np.arange(5)
        assert loss(logits, labels) == pytest.approx(np.log(8))

    def test_gradient_matches_numeric(self):
        loss = SparseCrossEntropyLoss()
        logits = RNG.normal(size=(4, 6))
        labels = np.array([0, 5, 2, 2])
        loss(logits, labels)
        analytic = loss.backward()
        eps = 1e-6
        numeric = np.zeros_like(logits)
        for idx in np.ndindex(logits.shape):
            p = logits.copy()
            p[idx] += eps
            up = loss(p, labels)
            p[idx] -= 2 * eps
            down = loss(p, labels)
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-8)

    def test_gradient_rows_sum_to_zero(self):
        loss = SparseCrossEntropyLoss()
        logits = RNG.normal(size=(7, 5))
        loss(logits, RNG.integers(0, 5, size=7))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_label_out_of_range_raises(self):
        with pytest.raises(ValueError):
            SparseCrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 3]))

    def test_batch_mismatch_raises(self):
        with pytest.raises(ValueError):
            SparseCrossEntropyLoss()(np.zeros((2, 3)), np.array([0, 1, 2]))

    def test_extreme_logits_stable(self):
        loss = SparseCrossEntropyLoss()
        logits = np.array([[1000.0, -1000.0], [-1000.0, 1000.0]])
        value = loss(logits, np.array([0, 1]))
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestCompositeLoss:
    def test_weighted_sum(self):
        mse_a, mse_b = MSELoss(), MSELoss()
        comp = CompositeLoss([mse_a, mse_b], weights=[1.0, 3.0])
        pred = np.ones((2, 2))
        total = comp([(pred, np.zeros((2, 2))), (pred, np.zeros((2, 2)))])
        assert total == pytest.approx(1.0 + 3.0)

    def test_backward_returns_per_branch_scaled(self):
        comp = CompositeLoss([MSELoss(), MSELoss()], weights=[1.0, 2.0])
        pred = np.ones((1, 2))
        comp([(pred, np.zeros((1, 2))), (pred, np.zeros((1, 2)))])
        g1, g2 = comp.backward()
        np.testing.assert_allclose(g2, 2.0 * g1)

    def test_pair_count_mismatch_raises(self):
        comp = CompositeLoss([MSELoss()])
        with pytest.raises(ValueError):
            comp([(np.ones((1, 1)), np.ones((1, 1)))] * 2)

    def test_empty_losses_rejected(self):
        with pytest.raises(ValueError):
            CompositeLoss([])

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CompositeLoss([MSELoss()], weights=[1.0, 2.0])


def _quadratic_problem():
    """1-layer regression problem with a known optimum."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(64, 3))
    true_w = np.array([[1.0], [-2.0], [0.5]])
    y = x @ true_w
    return x, y


class TestOptimizers:
    @pytest.mark.parametrize(
        "make_opt",
        [
            lambda params: SGD(params, lr=0.1),
            lambda params: SGD(params, lr=0.05, momentum=0.9),
            lambda params: Adam(params, lr=0.05),
        ],
        ids=["sgd", "sgd-momentum", "adam"],
    )
    def test_converges_on_linear_regression(self, make_opt):
        x, y = _quadratic_problem()
        model = Linear(3, 1, rng=np.random.default_rng(0))
        loss = MSELoss()
        opt = make_opt(model.trainable_parameters())
        for _ in range(300):
            model.zero_grad()
            loss(model(x), y)
            model.backward(loss.backward())
            opt.step()
        assert loss(model(x), y) < 1e-3

    def test_sgd_weight_decay_shrinks_weights(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.data[...] = 10.0
        opt = SGD(layer.trainable_parameters(), lr=0.1, weight_decay=0.5)
        layer.zero_grad()
        opt.step()
        assert np.all(np.abs(layer.weight.data) < 10.0)

    def test_frozen_parameters_not_updated(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.trainable = False
        before = layer.weight.data.copy()
        opt = Adam(layer.parameters(), lr=0.1)
        layer.weight.grad[...] = 1.0
        layer.bias.grad[...] = 1.0
        opt.step()
        np.testing.assert_array_equal(layer.weight.data, before)
        assert np.all(layer.bias.data != 0.0)

    def test_zero_grad_clears(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.grad[...] = 5.0
        opt = SGD(layer.trainable_parameters(), lr=0.1)
        opt.zero_grad()
        np.testing.assert_array_equal(layer.weight.grad, 0.0)

    @pytest.mark.parametrize("bad_lr", [0.0, -1.0])
    def test_invalid_lr_rejected(self, bad_lr):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            SGD(layer.trainable_parameters(), lr=bad_lr)
        with pytest.raises(ValueError):
            Adam(layer.trainable_parameters(), lr=bad_lr)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_adam_bias_correction_first_step(self):
        layer = Linear(1, 1, rng=np.random.default_rng(0), bias=False)
        layer.weight.data[...] = 0.0
        layer.weight.grad[...] = 3.0
        opt = Adam([layer.weight], lr=0.1)
        opt.step()
        # With bias correction the first step magnitude is ~lr regardless of
        # the raw gradient scale.
        assert layer.weight.data[0, 0] == pytest.approx(-0.1, rel=1e-6)


_TILE_SHAPES = st.sampled_from(
    [
        (1,),
        (7,),
        (ADAM_TILE - 1,),
        (ADAM_TILE,),
        (ADAM_TILE + 1,),
        (2 * ADAM_TILE,),
        (2 * ADAM_TILE + 5,),
        # fold stacks: one exact tile, straddling one, and ~2.8 tiles
        (4, 128, 64),
        (3, 101, 109),
        (28, 203, 16),
        (28, 203),
    ]
)


class TestTiledAdam:
    """The tiled in-place ``Adam.step`` against the textbook expression
    (``tests/reference/adam.py``): parameters and both moments must agree
    bit for bit after every step, whatever the tensor's size relative to
    the tile."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shapes=st.lists(_TILE_SHAPES, min_size=1, max_size=3),
        frozen=st.lists(st.booleans(), min_size=3, max_size=3),
        dtype=st.sampled_from([np.float64, np.float32]),
        weight_decay=st.sampled_from([0.0, 0.01]),
        steps=st.integers(1, 3),
        rebind=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_textbook_reference(
        self, shapes, frozen, dtype, weight_decay, steps, rebind, seed
    ):
        rng = np.random.default_rng(seed)
        with compute_dtype(dtype):
            tiled = [Parameter(rng.normal(size=shape)) for shape in shapes]
            textbook = [Parameter(p.data.copy()) for p in tiled]
        for twins, is_frozen in zip(zip(tiled, textbook), frozen):
            for param in twins:
                param.trainable = not is_frozen
        initial = [p.data.copy() for p in tiled]
        opt = Adam(tiled, lr=0.01, weight_decay=weight_decay)
        ref = ReferenceAdam(textbook, lr=0.01, weight_decay=weight_decay)
        for _ in range(steps):
            for a, b in zip(tiled, textbook):
                a.grad[...] = rng.normal(size=a.data.shape)
                b.grad[...] = a.grad
            opt.step()
            ref.step()
            if rebind:  # the optimizer must step the live array next time
                for param in tiled:
                    param.data = param.data.copy()
        for i, (a, b) in enumerate(zip(tiled, textbook)):
            assert a.data.dtype == np.dtype(dtype)
            assert opt._m[i].dtype == opt._v[i].dtype == np.dtype(dtype)
            np.testing.assert_array_equal(a.data, b.data)
            np.testing.assert_array_equal(opt._m[i], ref.m[i])
            np.testing.assert_array_equal(opt._v[i], ref.v[i])
            if not a.trainable:
                np.testing.assert_array_equal(a.data, initial[i])
        for pair in opt._scratch.values():
            assert all(buf.size <= ADAM_TILE for buf in pair)

    def test_non_contiguous_tensor_is_refused_not_copied(self):
        """A multi-tile tensor that no flat view covers would step a copy
        and lose the update; Adam refuses it.  Single-tile tensors step
        in place whatever their layout."""
        big = Parameter(np.ones((ADAM_TILE, 2)).T)
        with pytest.raises(ValueError, match="non-contiguous"):
            Adam([big]).step()
        small = Parameter(np.ones((3, 4)))
        small.data = small.data.T.copy().T  # same values, F-order
        small.grad = np.ones((3, 4))
        Adam([small], lr=0.1).step()
        np.testing.assert_allclose(small.data, 0.9)


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(RNG.normal(size=(6, 9)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_shift_invariance(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0))

    def test_log_softmax_consistent_with_softmax(self):
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x))

    def test_one_hot_round_trip(self):
        labels = np.array([2, 0, 1, 2])
        mat = one_hot(labels, 3)
        np.testing.assert_array_equal(mat.argmax(axis=1), labels)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0)

    def test_one_hot_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            one_hot(np.array([0, 3]), 3)

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((0, 2)), np.array([], dtype=int))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = Sequential(
            Linear(4, 8, np.random.default_rng(0)), ReLU(), Linear(8, 2, np.random.default_rng(1))
        )
        state = model.state_dict()
        path = save_state(state, str(tmp_path / "model"))
        loaded = load_state(path)
        assert state_allclose(state, loaded)

    def test_clone_is_independent(self):
        state = {"w": np.ones((2, 2))}
        cloned = clone_state(state)
        cloned["w"][...] = 0.0
        np.testing.assert_array_equal(state["w"], 1.0)

    def test_load_state_dict_strict_errors(self):
        model = Linear(2, 2, np.random.default_rng(0))
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 2))})  # bias missing
        with pytest.raises(ValueError):
            model.load_state_dict(
                {"weight": np.zeros((3, 3)), "bias": np.zeros(2)}
            )

    def test_load_state_dict_restores_forward(self):
        rng = np.random.default_rng(0)
        a = Linear(3, 3, rng)
        b = Linear(3, 3, np.random.default_rng(42))
        x = RNG.normal(size=(2, 3))
        assert not np.allclose(a(x), b(x))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x), b(x))

    def test_save_empty_state_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_state({}, str(tmp_path / "empty"))

    def test_state_allclose_detects_key_mismatch(self):
        assert not state_allclose({"a": np.zeros(2)}, {"b": np.zeros(2)})

    def test_parameter_count(self):
        model = Sequential(Linear(4, 8, np.random.default_rng(0)), ReLU(), Linear(8, 2, np.random.default_rng(0)))
        assert model.parameter_count() == 4 * 8 + 8 + 8 * 2 + 2

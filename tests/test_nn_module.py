"""Unit tests for the repro.nn plumbing every model builds on: Parameter and
Module registration, state dicts, input gradients, the compute dtype, the
Glorot initializer and the numeric gradient checkers."""

import numpy as np
import pytest

from reference.gradcheck import check_input_gradient, check_parameter_gradients
from repro.nn import (
    Linear,
    Module,
    MSELoss,
    Parameter,
    ReLU,
    Sequential,
    TiedLinear,
    compute_dtype,
    default_dtype,
    glorot_uniform,
    set_default_dtype,
)
from repro.nn.dtype import as_compute

RNG = np.random.default_rng(2024)


def _mse_closures(target):
    loss = MSELoss()

    def loss_fn(out):
        return loss(out, target)

    def grad_fn(out):
        loss(out, target)
        return loss.backward()

    return loss_fn, grad_fn


def _mlp(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Linear(3, 4, rng), ReLU(), Linear(4, 2, rng))


class _Encoder(Module):
    """Two-level module tree: a named submodule plus a direct parameter."""

    def __init__(self):
        super().__init__()
        self.scale = Parameter(np.ones(2), "scale")
        self.body = _mlp()


class _WrongGradLinear(Linear):
    """A Linear whose backward is off by a factor of two everywhere."""

    def backward(self, grad_output):
        return 2.0 * super().backward(2.0 * grad_output)


class TestParameter:
    def test_data_cast_to_compute_dtype_and_grad_zeroed(self):
        param = Parameter(np.arange(6).reshape(2, 3), "w")
        assert param.data.dtype == np.float64
        assert param.grad.shape == (2, 3)
        np.testing.assert_array_equal(param.grad, 0.0)
        assert param.trainable

    def test_shape_and_size(self):
        param = Parameter(np.zeros((4, 5)))
        assert param.shape == (4, 5)
        assert param.size == 20
        assert isinstance(param.size, int)

    def test_zero_grad_keeps_the_gradient_array(self):
        param = Parameter(np.zeros(3))
        grad = param.grad
        grad[...] = 7.0
        param.zero_grad()
        assert param.grad is grad
        np.testing.assert_array_equal(grad, 0.0)


class TestModuleTree:
    def test_named_parameters_follow_registration_order(self):
        names = [name for name, _ in _mlp().named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]

    def test_nested_names_are_dotted(self):
        names = [name for name, _ in _Encoder().named_parameters()]
        assert names == [
            "scale",
            "body.0.weight",
            "body.0.bias",
            "body.2.weight",
            "body.2.bias",
        ]

    def test_trainable_parameters_exclude_frozen(self):
        model = _mlp()
        model[0].weight.trainable = False
        assert model[0].weight in model.parameters()
        assert model[0].weight not in model.trainable_parameters()
        assert len(model.trainable_parameters()) == 3

    def test_parameter_count_trainable_only(self):
        model = _mlp()
        model[2].weight.trainable = False
        total = 3 * 4 + 4 + 4 * 2 + 2
        assert model.parameter_count() == total
        assert model.parameter_count(trainable_only=True) == total - 4 * 2

    def test_tied_decoder_counts_only_its_bias(self):
        encoder = Linear(5, 3, np.random.default_rng(0))
        model = Sequential(encoder, TiedLinear(encoder))
        assert model.parameter_count() == 5 * 3 + 3 + 5
        assert [name for name, _ in model.named_parameters()] == [
            "0.weight",
            "0.bias",
            "1.bias",
        ]

    def test_base_module_has_no_forward_or_backward(self):
        module = Module()
        with pytest.raises(NotImplementedError):
            module(np.zeros((1, 2)))
        with pytest.raises(NotImplementedError):
            module.backward(np.zeros((1, 2)))

    def test_zero_grad_clears_every_parameter(self):
        model = _Encoder()
        for param in model.parameters():
            param.grad[...] = 3.0
        model.zero_grad()
        for param in model.parameters():
            np.testing.assert_array_equal(param.grad, 0.0)


class TestStateDict:
    def test_state_dict_is_a_copy(self):
        model = _mlp()
        state = model.state_dict()
        state["0.weight"][...] = 99.0
        assert not np.any(model[0].weight.data == 99.0)

    def test_load_state_dict_copies_its_input(self):
        model = _mlp()
        state = _mlp(seed=1).state_dict()
        model.load_state_dict(state)
        state["2.bias"][...] = 5.0
        assert not np.any(model[2].bias.data == 5.0)

    def test_non_strict_load_skips_missing_and_unexpected_keys(self):
        model = _mlp()
        before = model[2].weight.data.copy()
        model.load_state_dict(
            {"0.bias": np.full(4, 0.5), "extra": np.zeros(1)}, strict=False
        )
        np.testing.assert_array_equal(model[0].bias.data, 0.5)
        np.testing.assert_array_equal(model[2].weight.data, before)

    def test_non_strict_load_still_checks_shapes(self):
        model = _mlp()
        with pytest.raises(ValueError, match="shape mismatch for 0.bias"):
            model.load_state_dict({"0.bias": np.zeros(3)}, strict=False)

    def test_load_casts_to_compute_dtype(self):
        model = _mlp()
        model.load_state_dict({"0.bias": np.arange(4)}, strict=False)
        assert model[0].bias.data.dtype == np.float64
        np.testing.assert_array_equal(model[0].bias.data, [0.0, 1.0, 2.0, 3.0])

    def test_gradient_dict_copies_accumulated_gradients(self):
        model = _mlp()
        x = RNG.normal(size=(5, 3))
        model.zero_grad()
        model.backward(np.ones_like(model(x)))
        grads = model.gradient_dict()
        assert set(grads) == set(model.state_dict())
        np.testing.assert_array_equal(grads["2.bias"], [5.0, 5.0])
        grads["2.bias"][...] = 0.0
        np.testing.assert_array_equal(model[2].bias.grad, [5.0, 5.0])


class TestInputGradient:
    def test_matches_backward(self):
        model = _mlp()
        x = RNG.normal(size=(4, 3))
        grad_out = RNG.normal(size=(4, 2))
        model(x)
        via_probe = model.input_gradient(grad_out)
        model.zero_grad()
        np.testing.assert_array_equal(via_probe, model.backward(grad_out))

    def test_restores_parameter_gradients(self):
        model = _mlp()
        x = RNG.normal(size=(4, 3))
        for param in model.parameters():
            param.grad[...] = RNG.normal(size=param.shape)
        before = model.gradient_dict()
        model(x)
        model.input_gradient(np.ones((4, 2)))
        after = model.gradient_dict()
        for name in before:
            np.testing.assert_array_equal(after[name], before[name])

    def test_restores_gradients_when_backward_raises(self):
        layer = Linear(3, 2, np.random.default_rng(0))
        layer.weight.grad[...] = 1.5
        with pytest.raises(RuntimeError, match="before forward"):
            layer.input_gradient(np.ones((1, 2)))
        np.testing.assert_array_equal(layer.weight.grad, 1.5)


class TestComputeDtype:
    def test_default_is_float64(self):
        assert default_dtype() is np.float64

    def test_set_default_dtype_returns_previous(self):
        previous = set_default_dtype(np.float32)
        try:
            assert previous is np.float64
            assert default_dtype() is np.float32
        finally:
            set_default_dtype(previous)
        assert default_dtype() is np.float64

    def test_context_restores_on_exception(self):
        with pytest.raises(KeyError):
            with compute_dtype(np.float32):
                raise KeyError("boom")
        assert default_dtype() is np.float64

    @pytest.mark.parametrize("dtype", [np.float16, np.int32, np.complex128])
    def test_rejects_unsupported(self, dtype):
        with pytest.raises(ValueError, match="unsupported compute dtype"):
            set_default_dtype(dtype)
        assert default_dtype() is np.float64

    def test_layers_follow_compute_dtype(self):
        with compute_dtype(np.float32):
            layer = Linear(3, 2, np.random.default_rng(0))
            out = layer(np.ones((2, 3)))
        assert layer.weight.data.dtype == np.float32
        assert layer.bias.data.dtype == np.float32
        assert out.dtype == np.float32

    def test_as_compute_copies_only_on_width_change(self):
        x = np.ones(4)
        assert as_compute(x) is x
        with compute_dtype(np.float32):
            narrowed = as_compute(x)
        assert narrowed.dtype == np.float32
        assert narrowed is not x


class TestGlorotUniform:
    def test_shape_and_limit(self):
        weights = glorot_uniform(30, 20, np.random.default_rng(0))
        limit = np.sqrt(6.0 / 50)
        assert weights.shape == (30, 20)
        assert np.all(np.abs(weights) <= limit)
        # a 600-draw uniform sample spans most of its range
        assert weights.max() > 0.9 * limit and weights.min() < -0.9 * limit

    def test_same_seed_same_weights(self):
        a = glorot_uniform(4, 6, np.random.default_rng(11))
        b = glorot_uniform(4, 6, np.random.default_rng(11))
        c = glorot_uniform(4, 6, np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_float32_weights_are_the_float64_draw_rounded(self):
        wide = glorot_uniform(5, 3, np.random.default_rng(7))
        with compute_dtype(np.float32):
            narrow = glorot_uniform(5, 3, np.random.default_rng(7))
        assert narrow.dtype == np.float32
        np.testing.assert_array_equal(narrow, wide.astype(np.float32))

    def test_linear_draws_glorot_weights_and_zero_bias(self):
        layer = Linear(6, 4, np.random.default_rng(3))
        np.testing.assert_array_equal(
            layer.weight.data, glorot_uniform(6, 4, np.random.default_rng(3))
        )
        np.testing.assert_array_equal(layer.bias.data, 0.0)


class TestGradcheck:
    def test_parameter_check_reports_each_trainable_parameter(self):
        model = _mlp()
        model[0].bias.trainable = False
        x = RNG.normal(size=(3, 3))
        loss_fn, grad_fn = _mse_closures(RNG.normal(size=(3, 2)))
        errors = check_parameter_gradients(model, x, loss_fn, grad_fn)
        assert set(errors) == {"0.weight", "2.weight", "2.bias"}
        assert max(errors.values()) < 1e-5

    def test_parameter_check_flags_a_wrong_backward(self):
        layer = _WrongGradLinear(3, 2, np.random.default_rng(0))
        x = RNG.normal(size=(4, 3))
        loss_fn, grad_fn = _mse_closures(RNG.normal(size=(4, 2)))
        with pytest.raises(AssertionError, match="gradient check failed"):
            check_parameter_gradients(layer, x, loss_fn, grad_fn)

    def test_input_check_flags_a_wrong_backward(self):
        layer = _WrongGradLinear(3, 2, np.random.default_rng(0))
        x = RNG.normal(size=(4, 3))
        loss_fn, grad_fn = _mse_closures(RNG.normal(size=(4, 2)))
        with pytest.raises(AssertionError, match="input gradient check failed"):
            check_input_gradient(layer, x, loss_fn, grad_fn)

    def test_checks_leave_inputs_and_weights_unchanged(self):
        model = _mlp()
        x = RNG.normal(size=(3, 3))
        x_before = x.copy()
        state = model.state_dict()
        loss_fn, grad_fn = _mse_closures(RNG.normal(size=(3, 2)))
        check_input_gradient(model, x, loss_fn, grad_fn)
        check_parameter_gradients(model, x, loss_fn, grad_fn)
        np.testing.assert_array_equal(x, x_before)
        for name, value in model.state_dict().items():
            np.testing.assert_array_equal(value, state[name])

"""Unit tests for repro.nn layers: forward semantics and analytic backward
passes verified against central-difference gradients."""

import numpy as np
import pytest

from reference.gradcheck import check_input_gradient, check_parameter_gradients
from repro.nn import (
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    TiedLinear,
)

RNG = np.random.default_rng(1234)


def _mse_closures(target):
    loss = MSELoss()

    def loss_fn(out):
        return loss(out, target)

    def grad_fn(out):
        loss(out, target)
        return loss.backward()

    return loss_fn, grad_fn


class TestLinear:
    def test_forward_matches_matmul(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        x = RNG.normal(size=(5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(x), expected)

    def test_forward_promotes_single_sample(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(RNG.normal(size=4))
        assert out.shape == (1, 3)

    def test_rejects_wrong_feature_count(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="expected 4 features"):
            layer(RNG.normal(size=(2, 5)))

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3)
        with pytest.raises(ValueError):
            Linear(3, -1)

    def test_backward_before_forward_raises(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 3)))

    def test_parameter_gradients_numeric(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        x = RNG.normal(size=(6, 4))
        target = RNG.normal(size=(6, 3))
        loss_fn, grad_fn = _mse_closures(target)
        check_parameter_gradients(layer, x, loss_fn, grad_fn)

    def test_input_gradient_numeric(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        x = RNG.normal(size=(6, 4))
        target = RNG.normal(size=(6, 3))
        loss_fn, grad_fn = _mse_closures(target)
        check_input_gradient(layer, x, loss_fn, grad_fn)

    def test_gradients_accumulate_across_backwards(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        x = RNG.normal(size=(4, 3))
        g = RNG.normal(size=(4, 2))
        layer(x)
        layer.backward(g)
        first = layer.weight.grad.copy()
        layer(x)
        layer.backward(g)
        np.testing.assert_allclose(layer.weight.grad, 2 * first)

    def test_rejects_three_dimensional_input(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="2-D weight takes 2-D input"):
            layer(np.zeros((2, 2, 4)))

    def test_frozen_weight_gets_no_gradient(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        layer.weight.trainable = False
        x = RNG.normal(size=(4, 3))
        layer(x)
        grad_in = layer.backward(np.ones((4, 2)))
        np.testing.assert_array_equal(layer.weight.grad, 0.0)
        np.testing.assert_array_equal(layer.bias.grad, [4.0, 4.0])
        np.testing.assert_allclose(grad_in, np.ones((4, 2)) @ layer.weight.data.T)


class TestTiedLinear:
    def test_weight_is_transposed_source(self):
        enc = Linear(6, 4, rng=np.random.default_rng(0))
        dec = TiedLinear(enc)
        x = RNG.normal(size=(3, 4))
        np.testing.assert_allclose(dec(x), x @ enc.weight.data.T + dec.bias.data)

    def test_only_bias_is_trainable(self):
        enc = Linear(6, 4, rng=np.random.default_rng(0))
        dec = TiedLinear(enc)
        names = [name for name, _ in dec.named_parameters()]
        assert names == ["bias"]

    def test_frozen_mode_does_not_touch_encoder_weight(self):
        enc = Linear(6, 4, rng=np.random.default_rng(0))
        dec = TiedLinear(enc, train_weight=False)
        x = RNG.normal(size=(3, 4))
        dec(x)
        dec.backward(np.ones((3, 6)))
        np.testing.assert_array_equal(enc.weight.grad, 0.0)
        assert np.any(dec.bias.grad != 0.0)

    def test_tied_mode_accumulates_into_source_weight(self):
        enc = Linear(6, 4, rng=np.random.default_rng(0))
        dec = TiedLinear(enc)
        x = RNG.normal(size=(3, 4))
        g = RNG.normal(size=(3, 6))
        dec(x)
        dec.backward(g)
        np.testing.assert_allclose(enc.weight.grad, g.T @ x)

    def test_tied_gradient_matches_numeric(self):
        """Shared-weight gradient: encoder forward + decoder forward both
        contribute; verify against numeric differentiation of the full
        autoencoder path."""
        enc = Linear(5, 3, rng=np.random.default_rng(0))
        dec = TiedLinear(enc)
        mse = MSELoss()
        x = RNG.normal(size=(4, 5))

        def run():
            return mse(dec(enc(x)), x)

        enc.zero_grad()
        dec.zero_grad()
        run()
        grad_out = mse.backward()
        enc.backward(dec.backward(grad_out))
        analytic = enc.weight.grad.copy()
        eps = 1e-6
        numeric = np.zeros_like(analytic)
        for idx in np.ndindex(analytic.shape):
            enc.weight.data[idx] += eps
            up = run()
            enc.weight.data[idx] -= 2 * eps
            down = run()
            enc.weight.data[idx] += eps
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_input_gradient_numeric(self):
        enc = Linear(5, 3, rng=np.random.default_rng(0))
        dec = TiedLinear(enc)
        x = RNG.normal(size=(4, 3))
        target = RNG.normal(size=(4, 5))
        loss_fn, grad_fn = _mse_closures(target)
        check_input_gradient(dec, x, loss_fn, grad_fn)

    def test_tracks_source_weight_updates(self):
        enc = Linear(5, 3, rng=np.random.default_rng(0))
        dec = TiedLinear(enc)
        x = np.ones((1, 3))
        before = dec(x).copy()
        enc.weight.data += 1.0
        after = dec(x)
        assert not np.allclose(before, after)

    def test_requires_linear_source(self):
        with pytest.raises(TypeError):
            TiedLinear(ReLU())

    def test_rejects_wrong_feature_count(self):
        dec = TiedLinear(Linear(6, 4, rng=np.random.default_rng(0)))
        with pytest.raises(ValueError, match="expected 4 features"):
            dec(np.zeros((2, 6)))

    def test_backward_before_forward_raises(self):
        dec = TiedLinear(Linear(6, 4, rng=np.random.default_rng(0)))
        with pytest.raises(RuntimeError):
            dec.backward(np.ones((1, 6)))


@pytest.mark.parametrize(
    "activation",
    [ReLU()],
    ids=["relu"],
)
class TestActivations:
    def test_input_gradient_numeric(self, activation):
        x = RNG.normal(size=(5, 7)) + 0.01  # avoid relu kink at exactly 0
        target = RNG.normal(size=(5, 7))
        loss_fn, grad_fn = _mse_closures(target)
        check_input_gradient(activation, x, loss_fn, grad_fn)

    def test_shape_preserved(self, activation):
        x = RNG.normal(size=(3, 9))
        assert activation(x).shape == x.shape


class TestActivationSemantics:
    def test_relu_zeroes_negatives(self):
        out = ReLU()(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.0, 2.0]])

    def test_relu_gradient_blocked_at_and_below_zero(self):
        relu = ReLU()
        relu(np.array([[-1.0, 0.0, 2.0]]))
        grad = relu.backward(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 5.0]])

    def test_relu_leaves_its_input_untouched(self):
        x = np.array([[-1.0, 3.0]])
        ReLU()(x)
        np.testing.assert_array_equal(x, [[-1.0, 3.0]])

    def test_relu_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            ReLU().backward(np.ones((1, 2)))


class TestSequential:
    def test_end_to_end_gradients(self):
        rng = np.random.default_rng(3)
        model = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        x = RNG.normal(size=(5, 4))
        target = RNG.normal(size=(5, 2))
        loss_fn, grad_fn = _mse_closures(target)
        check_parameter_gradients(model, x, loss_fn, grad_fn)
        check_input_gradient(model, x, loss_fn, grad_fn)

    def test_len_getitem_iter(self):
        rng = np.random.default_rng(3)
        layers = [Linear(2, 2, rng), ReLU(), Linear(2, 2, rng)]
        model = Sequential(*layers)
        assert len(model) == 3
        assert model[1] is layers[1]
        assert list(model) == layers

    def test_append(self):
        model = Sequential()
        model.append(ReLU())
        assert len(model) == 1
        with pytest.raises(TypeError):
            model.append("not a layer")

    def test_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential(ReLU(), 42)

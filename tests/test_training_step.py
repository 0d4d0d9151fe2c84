"""A training step does only the arithmetic its result needs.

* No training loop forms the gradient of its input batch: the first
  layer's ``backward`` runs with ``input_grad=False`` and returns
  ``None``.  ``input_gradient`` (the FGSM oracle) still forms it.
* Loss values are formed only where they are read: the returned
  final-epoch loss equals the serial reference loops bit for bit, and a
  loss called with ``value=False`` hands ``backward`` the same gradient.
"""

import numpy as np
import pytest

from reference.training import classifier_train_epochs, safeloc_train_epochs
from repro.baselines.dnn import DNNLocalizer
from repro.core.safeloc import SafeLocModel
from repro.data import FingerprintDataset
from repro.nn import (
    BatchedMSELoss,
    BatchedSparseCrossEntropyLoss,
    Linear,
    ReLU,
    Sequential,
)

NUM_APS, NUM_RPS, LR = 9, 4, 0.01


def _dataset(seed, n=37):
    rng = np.random.default_rng(seed)
    return FingerprintDataset(
        rng.uniform(0, 1, size=(n, NUM_APS)),
        rng.integers(0, NUM_RPS, size=n),
        building="b",
        device="d",
    )


def _safeloc(seed):
    return SafeLocModel(
        NUM_APS, NUM_RPS, seed=seed, encoder_widths=(12, 6), tau=10.0
    )


def _dnn(seed):
    return DNNLocalizer(NUM_APS, NUM_RPS, hidden=(12,), seed=seed)


def _first_linear(model):
    network = model.network
    layers = network.encoder if isinstance(model, SafeLocModel) else network
    return layers[0]


@pytest.mark.parametrize("make", [_safeloc, _dnn], ids=["safeloc", "dnn"])
@pytest.mark.parametrize("trusted", [False, True])
def test_train_epochs_never_forms_the_input_gradient(make, trusted):
    model = make(3)
    first = _first_linear(model)
    assert isinstance(first, Linear)
    backward = first.backward
    returned = []

    def probe(grad_output, input_grad=True):
        result = backward(grad_output, input_grad=input_grad)
        returned.append(result)
        return result

    first.backward = probe
    model.train_epochs(
        _dataset(3), 2, LR, np.random.default_rng(3), batch_size=8,
        trusted=trusted,
    )
    assert len(returned) == 2 * 5  # two epochs of five batches
    assert all(result is None for result in returned)


def test_input_gradient_still_forms_grad_times_weight_transpose():
    rng = np.random.default_rng(4)
    network = Sequential(Linear(5, 7, rng), ReLU(), Linear(7, 3, rng))
    first, last = network[0].weight.data, network[2].weight.data
    x = rng.normal(size=(6, 5))
    hidden = x @ first + network[0].bias.data
    network.forward(x)
    grad = rng.normal(size=(6, 3))
    by_hand = np.where(hidden > 0, grad @ last.T, 0.0) @ first.T
    np.testing.assert_array_equal(network.input_gradient(grad), by_hand)


def test_fgsm_oracle_matches_the_chain_rule_by_hand():
    """SAFELOC's gradient oracle still backpropagates to the input."""
    model = _safeloc(6)
    data = _dataset(6, n=5)
    oracle = model.gradient_oracle()
    grad = oracle(data.features, data.labels)
    network = model.network
    linears = [
        layer for layer in network.encoder if isinstance(layer, Linear)
    ]
    activations = [data.features]
    for linear in linears:
        z = activations[-1] @ linear.weight.data + linear.bias.data
        activations.append(np.where(z > 0, z, 0.0))
    logits = activations[-1] @ network.classifier.weight.data
    logits = logits + network.classifier.bias.data
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    probs = np.exp(shifted - log_norm)
    probs[np.arange(len(data)), data.labels] -= 1.0
    g = (probs / len(data)) @ network.classifier.weight.data.T
    for linear, out in zip(reversed(linears), reversed(activations[1:])):
        g = np.where(out > 0, g, 0.0) @ linear.weight.data.T
    np.testing.assert_allclose(grad, g, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("trusted", [False, True])
@pytest.mark.parametrize("epochs", [1, 3])
def test_safeloc_loss_equals_the_reference_loop(trusted, epochs):
    model, expected = _safeloc(8), _safeloc(8)
    data = _dataset(8)
    loss = model.train_epochs(
        data, epochs, LR, np.random.default_rng(8), batch_size=8,
        trusted=trusted,
    )
    reference = safeloc_train_epochs(
        expected, data, epochs, LR, np.random.default_rng(8), 8, trusted
    )
    assert loss == reference
    for key, value in expected.state_dict().items():
        np.testing.assert_array_equal(model.state_dict()[key], value)


@pytest.mark.parametrize("epochs", [1, 3])
def test_classifier_loss_equals_the_reference_loop(epochs):
    model, expected = _dnn(9), _dnn(9)
    data = _dataset(9)
    loss = model.train_epochs(
        data, epochs, LR, np.random.default_rng(9), batch_size=8
    )
    reference = classifier_train_epochs(
        expected.network, data, epochs, LR, np.random.default_rng(9), 8
    )
    assert loss == reference
    for key, value in expected.state_dict().items():
        np.testing.assert_array_equal(model.state_dict()[key], value)


@pytest.mark.parametrize(
    "loss_type, target",
    [
        (BatchedMSELoss, lambda rng: rng.normal(size=(2, 4, 3))),
        (
            BatchedSparseCrossEntropyLoss,
            lambda rng: rng.integers(0, 3, size=(2, 4)),
        ),
    ],
    ids=["mse", "ce"],
)
def test_a_loss_without_its_value_keeps_its_gradient(loss_type, target):
    rng = np.random.default_rng(10)
    prediction, labels = rng.normal(size=(2, 4, 3)), target(rng)
    valued, gradient_only = loss_type(), loss_type()
    value = valued(prediction, labels)
    assert value == float(valued.fold_losses.mean())
    assert gradient_only(prediction, labels, value=False) is None
    assert gradient_only.fold_losses is None
    np.testing.assert_array_equal(
        gradient_only.backward(), valued.backward()
    )

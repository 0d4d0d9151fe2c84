"""Tests for the fused autoencoder+classifier network and RCE detection."""

import numpy as np
import pytest

from repro.core import (
    FusedAutoencoderClassifier,
    ThresholdDetector,
    calibrate_tau,
    reconstruction_errors,
)
from repro.core.fused_network import ENCODER_WIDTHS
from repro.nn import Adam, MSELoss, SparseCrossEntropyLoss

D, C, N = 20, 7, 48
RNG = np.random.default_rng(11)


@pytest.fixture()
def net():
    return FusedAutoencoderClassifier(D, C, seed=0, encoder_widths=(24, 12))


@pytest.fixture()
def batch():
    """Structured batch: class-clustered features (compressible, learnable)."""
    centres = RNG.uniform(0.2, 0.8, size=(C, D))
    labels = RNG.integers(0, C, size=N)
    features = np.clip(centres[labels] + RNG.normal(0, 0.03, size=(N, D)), 0, 1)
    return features, labels


class TestArchitecture:
    def test_paper_default_widths(self):
        assert ENCODER_WIDTHS == (128, 89, 62)
        net = FusedAutoencoderClassifier(135, 80, seed=0)
        assert net.latent_dim == 62

    def test_paper_parameter_count_scale(self):
        """Building-4 shape (135 APs, 80 RPs) must land near the paper's
        41,094 total parameters — the tied decoder is what keeps it there."""
        net = FusedAutoencoderClassifier(135, 80, seed=0)
        total = net.parameter_count()
        assert 38_000 < total < 44_000

    def test_decoder_has_only_biases(self):
        net = FusedAutoencoderClassifier(135, 80, seed=0)
        decoder_params = dict(net.decoder.named_parameters())
        assert all(name.endswith("bias") for name in decoder_params)

    def test_shapes(self, net, batch):
        x, y = batch
        latent = net.encode(x)
        assert latent.shape == (N, 12)
        recon = net.decode(latent)
        assert recon.shape == (N, D)
        logits = net.classify_latent(latent)
        assert logits.shape == (N, C)

    def test_forward_is_classification(self, net, batch):
        x, _ = batch
        np.testing.assert_allclose(
            net.forward(x), net.classify_latent(net.encode(x))
        )

    def test_latent_nonnegative(self, net, batch):
        """ReLU on all encoder layers ⇒ latent is non-negative."""
        assert net.encode(batch[0]).min() >= 0.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            FusedAutoencoderClassifier(0, 5)
        with pytest.raises(ValueError):
            FusedAutoencoderClassifier(5, 5, encoder_widths=())


class TestJointTraining:
    def test_joint_training_improves_both_branches(self, net, batch):
        x, y = batch
        mse, ce = MSELoss(), SparseCrossEntropyLoss()
        opt = Adam(net.trainable_parameters(), lr=0.01)
        first_mse = first_ce = None
        for step in range(300):
            net.zero_grad()
            latent = net.encode(x)
            recon = net.decode(latent)
            logits = net.classify_latent(latent)
            m, c = mse(recon, x), ce(logits, y)
            if step == 0:
                first_mse, first_ce = m, c
            net.joint_backward(5.0 * mse.backward(), ce.backward())
            opt.step()
        assert m < first_mse * 0.5
        assert c < first_ce * 0.5

    def test_joint_backward_returns_input_gradient(self, net, batch):
        x, y = batch
        mse, ce = MSELoss(), SparseCrossEntropyLoss()
        net.zero_grad()
        latent = net.encode(x)
        recon = net.decode(latent)
        logits = net.classify_latent(latent)
        mse(recon, x)
        ce(logits, y)
        grad = net.joint_backward(mse.backward(), ce.backward())
        assert grad.shape == x.shape

    def test_classification_backward_path(self, net, batch):
        x, y = batch
        ce = SparseCrossEntropyLoss()
        net.zero_grad()
        ce(net.forward(x), y)
        grad = net.backward(ce.backward())
        assert grad.shape == x.shape
        assert np.any(net.classifier.weight.grad != 0)


class TestReconstructionErrors:
    def test_shape_and_nonnegative(self, net, batch):
        rce = reconstruction_errors(net, batch[0])
        assert rce.shape == (N,)
        assert np.all(rce >= 0)

    def test_single_sample_promoted(self, net):
        rce = reconstruction_errors(net, RNG.uniform(0, 1, size=D))
        assert rce.shape == (1,)

    def test_trained_ae_has_low_rce(self, batch):
        x, y = batch
        net = FusedAutoencoderClassifier(D, C, seed=0, encoder_widths=(24, 12))
        mse, ce = MSELoss(), SparseCrossEntropyLoss()
        opt = Adam(net.trainable_parameters(), lr=0.01)
        for _ in range(400):
            net.zero_grad()
            latent = net.encode(x)
            recon = net.decode(latent)
            logits = net.classify_latent(latent)
            mse(recon, x)
            ce(logits, y)
            net.joint_backward(5.0 * mse.backward(), ce.backward())
            opt.step()
        rce_clean = reconstruction_errors(net, x)
        assert rce_clean.mean() < 0.1
        # strongly perturbed inputs reconstruct worse
        poisoned = np.clip(x + 0.4 * np.sign(RNG.normal(size=x.shape)), 0, 1)
        rce_poisoned = reconstruction_errors(net, poisoned)
        assert rce_poisoned.mean() > 2 * rce_clean.mean()


class TestThresholdDetector:
    def test_flagging_semantics(self):
        detector = ThresholdDetector(tau=0.1)
        flags = detector.flag(np.array([0.05, 0.1, 0.100001, 0.5]))
        np.testing.assert_array_equal(flags, [False, False, True, True])

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            ThresholdDetector(tau=-0.01)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_tau_rejected(self, tau):
        """RCE > NaN (or > inf) is never true: detection would be off."""
        with pytest.raises(ValueError, match="finite"):
            ThresholdDetector(tau=tau)

    def test_detect_convenience(self, net, batch):
        detector = ThresholdDetector(tau=0.0)
        assert detector.detect(net, batch[0]).all()

    def test_calibrate_tau_above_clean_quantile(self, net, batch):
        x, _ = batch
        tau = calibrate_tau(net, x, quantile=0.95, margin=1.5)
        rce = reconstruction_errors(net, x)
        assert tau >= np.quantile(rce, 0.95)

    def test_calibrate_validation(self, net, batch):
        with pytest.raises(ValueError):
            calibrate_tau(net, batch[0], quantile=0.0)
        with pytest.raises(ValueError):
            calibrate_tau(net, batch[0], margin=0.5)

    def test_reconstruction_errors_accepts_wrapper(self, batch):
        """Duck typing: SafeLocModel (which wraps the fused network) works
        with the free-standing detection helpers too."""
        from repro.core import SafeLocModel

        model = SafeLocModel(D, C, seed=0, encoder_widths=(24, 12))
        rce_wrapper = reconstruction_errors(model, batch[0])
        rce_network = reconstruction_errors(model.network, batch[0])
        np.testing.assert_allclose(rce_wrapper, rce_network)

    def test_reconstruction_errors_rejects_plain_object(self, batch):
        with pytest.raises(TypeError):
            reconstruction_errors(object(), batch[0])


class TestStateDict:
    def test_round_trip(self, net, batch):
        x, _ = batch
        state = net.state_dict()
        other = FusedAutoencoderClassifier(D, C, seed=5, encoder_widths=(24, 12))
        assert not np.allclose(other.forward(x), net.forward(x))
        other.load_state_dict(state)
        np.testing.assert_allclose(other.forward(x), net.forward(x))
        np.testing.assert_allclose(other.reconstruct(x), net.reconstruct(x))

    def test_tied_weights_not_duplicated(self, net):
        names = [name for name, _ in net.named_parameters()]
        weight_names = [n for n in names if n.endswith("weight")]
        # encoder weights + classifier weight only — no decoder weights
        assert len(weight_names) == 3

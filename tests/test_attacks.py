"""Tests for the five §III.A poisoning attacks, including property-based
bound checks with hypothesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import (
    ATTACK_NAMES,
    FGSM,
    MIM,
    PAPER_ATTACKS,
    PGD,
    CleanLabelBackdoor,
    LabelFlip,
    classifier_gradient_oracle,
    create_attack,
    is_backdoor,
)

#: the paper's gradient-based backdoors (GaussianNoise, though a feature
#: perturbation, needs no oracle and is tested separately)
GRADIENT_BACKDOORS = ("clb", "fgsm", "pgd", "mim")
from repro.data.datasets import FingerprintDataset
from repro.nn import Linear, ReLU, Sequential, SparseCrossEntropyLoss

NUM_APS = 12
NUM_CLASSES = 5


@pytest.fixture()
def model():
    rng = np.random.default_rng(0)
    return Sequential(
        Linear(NUM_APS, 16, rng), ReLU(), Linear(16, NUM_CLASSES, rng)
    )


@pytest.fixture()
def oracle(model):
    return classifier_gradient_oracle(model, SparseCrossEntropyLoss())


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(1)
    return FingerprintDataset(
        rng.uniform(0.05, 0.95, size=(40, NUM_APS)),
        rng.integers(0, NUM_CLASSES, size=40),
        building="b",
        device="HTC U11",
    )


RNG = np.random.default_rng(7)


class TestOracle:
    def test_matches_numeric_gradient(self, model, oracle, dataset):
        loss = SparseCrossEntropyLoss()
        x = dataset.features[:3]
        y = dataset.labels[:3]
        analytic = oracle(x, y)
        eps = 1e-6
        numeric = np.zeros_like(x)
        for idx in np.ndindex(x.shape):
            xp = x.copy()
            xp[idx] += eps
            up = loss(model.forward(xp), y)
            xp[idx] -= 2 * eps
            down = loss(model.forward(xp), y)
            numeric[idx] = (up - down) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_does_not_pollute_parameter_grads(self, model, oracle, dataset):
        model.zero_grad()
        oracle(dataset.features, dataset.labels)
        for param in model.parameters():
            np.testing.assert_array_equal(param.grad, 0.0)


class TestRegistry:
    def test_paper_attacks_present(self):
        assert set(PAPER_ATTACKS) == {"clb", "fgsm", "pgd", "mim", "label_flip"}
        assert set(PAPER_ATTACKS) <= set(ATTACK_NAMES)

    def test_backdoor_classification(self):
        for name in GRADIENT_BACKDOORS:
            assert is_backdoor(name)
        assert not is_backdoor("label_flip")
        assert not is_backdoor("targeted_label_flip")

    def test_unknown_attack(self):
        with pytest.raises(KeyError):
            create_attack("ddos", 0.1)
        with pytest.raises(KeyError):
            is_backdoor("ddos")

    def test_kwargs_forwarded(self):
        attack = create_attack("pgd", 0.1, num_steps=3)
        assert attack.num_steps == 3


@pytest.mark.parametrize("name", GRADIENT_BACKDOORS)
class TestBackdoorAttacks:
    def test_linf_bound_respected(self, name, oracle, dataset):
        attack = create_attack(name, 0.1)
        report = attack.poison(dataset, oracle, np.random.default_rng(0))
        delta = np.abs(report.dataset.features - dataset.features)
        assert delta.max() <= 0.1 + 1e-9

    def test_labels_unchanged(self, name, oracle, dataset):
        attack = create_attack(name, 0.2)
        report = attack.poison(dataset, oracle, np.random.default_rng(0))
        np.testing.assert_array_equal(report.dataset.labels, dataset.labels)

    def test_stays_in_unit_box(self, name, oracle, dataset):
        attack = create_attack(name, 1.0)
        report = attack.poison(dataset, oracle, np.random.default_rng(0))
        assert report.dataset.features.min() >= 0.0
        assert report.dataset.features.max() <= 1.0

    def test_epsilon_zero_is_noop(self, name, oracle, dataset):
        attack = create_attack(name, 0.0)
        report = attack.poison(dataset, oracle, np.random.default_rng(0))
        np.testing.assert_array_equal(report.dataset.features, dataset.features)
        assert report.num_modified == 0

    def test_requires_oracle(self, name, dataset):
        attack = create_attack(name, 0.1)
        with pytest.raises(ValueError, match="oracle"):
            attack.poison(dataset, None, np.random.default_rng(0))

    def test_does_not_mutate_input(self, name, oracle, dataset):
        original = dataset.features.copy()
        create_attack(name, 0.3).poison(dataset, oracle, np.random.default_rng(0))
        np.testing.assert_array_equal(dataset.features, original)

    def test_increases_model_loss(self, name, model, oracle, dataset):
        """Poisoned fingerprints should raise classification loss."""
        loss = SparseCrossEntropyLoss()
        clean_loss = loss(model.forward(dataset.features), dataset.labels)
        report = create_attack(name, 0.2).poison(
            dataset, oracle, np.random.default_rng(0)
        )
        poisoned_loss = loss(
            model.forward(report.dataset.features), report.dataset.labels
        )
        assert poisoned_loss > clean_loss

    def test_report_metadata(self, name, oracle, dataset):
        report = create_attack(name, 0.15).poison(
            dataset, oracle, np.random.default_rng(0)
        )
        assert report.attack == name
        assert report.epsilon == 0.15
        assert report.modified_mask.shape == (len(dataset),)
        assert report.num_modified > 0


class TestPGDSpecifics:
    def test_more_steps_at_least_as_strong(self, model, oracle, dataset):
        loss = SparseCrossEntropyLoss()
        losses = []
        for steps in [1, 10]:
            report = PGD(0.2, num_steps=steps).poison(
                dataset, oracle, np.random.default_rng(0)
            )
            losses.append(
                loss(model.forward(report.dataset.features), dataset.labels)
            )
        assert losses[1] >= losses[0] * 0.9  # iterative ≥ single step (tolerance)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            PGD(0.1, num_steps=0)
        with pytest.raises(ValueError):
            PGD(0.1, step_fraction=0.0)


class TestMIMSpecifics:
    def test_momentum_zero_differs_from_high(self, oracle, dataset):
        low = MIM(0.2, momentum=0.0).poison(dataset, oracle, np.random.default_rng(0))
        high = MIM(0.2, momentum=1.0).poison(dataset, oracle, np.random.default_rng(0))
        assert not np.allclose(low.dataset.features, high.dataset.features)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MIM(0.1, num_steps=0)
        with pytest.raises(ValueError):
            MIM(0.1, momentum=-0.5)


class TestCLBSpecifics:
    def test_mask_limits_perturbed_dimensions(self, oracle, dataset):
        attack = CleanLabelBackdoor(0.3, mask_fraction=0.25)
        report = attack.poison(dataset, oracle, np.random.default_rng(0))
        changed = report.dataset.features != dataset.features
        k = max(1, int(round(0.25 * NUM_APS)))
        assert changed.sum(axis=1).max() <= k

    def test_invalid_mask_fraction(self):
        with pytest.raises(ValueError):
            CleanLabelBackdoor(0.1, mask_fraction=0.0)
        with pytest.raises(ValueError):
            CleanLabelBackdoor(0.1, mask_fraction=1.5)

    def test_full_mask_equals_fgsm(self, oracle, dataset):
        clb = CleanLabelBackdoor(0.1, mask_fraction=1.0).poison(
            dataset, oracle, np.random.default_rng(0)
        )
        fgsm = FGSM(0.1).poison(dataset, oracle, np.random.default_rng(0))
        np.testing.assert_allclose(clb.dataset.features, fgsm.dataset.features)


class TestLabelFlip:
    def test_features_untouched(self, dataset):
        report = LabelFlip(0.5).poison(dataset, None, np.random.default_rng(0))
        np.testing.assert_array_equal(report.dataset.features, dataset.features)

    def test_flip_fraction(self, dataset):
        report = LabelFlip(0.5).poison(dataset, None, np.random.default_rng(0))
        assert report.num_modified == round(0.5 * len(dataset))

    def test_flipped_labels_are_wrong(self, dataset):
        report = LabelFlip(1.0, num_classes=NUM_CLASSES).poison(
            dataset, None, np.random.default_rng(0)
        )
        assert np.all(report.dataset.labels != dataset.labels)

    def test_flipped_labels_in_range(self, dataset):
        report = LabelFlip(1.0, num_classes=NUM_CLASSES).poison(
            dataset, None, np.random.default_rng(0)
        )
        assert report.dataset.labels.min() >= 0
        assert report.dataset.labels.max() < NUM_CLASSES

    def test_epsilon_zero_noop(self, dataset):
        report = LabelFlip(0.0).poison(dataset, None, np.random.default_rng(0))
        np.testing.assert_array_equal(report.dataset.labels, dataset.labels)

    def test_needs_two_classes(self):
        ds = FingerprintDataset(np.zeros((4, 3)), np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            LabelFlip(0.5).poison(ds, None, np.random.default_rng(0))
        with pytest.raises(ValueError):
            LabelFlip(0.5, num_classes=1)

    def test_deterministic_given_rng(self, dataset):
        a = LabelFlip(0.5).poison(dataset, None, np.random.default_rng(3))
        b = LabelFlip(0.5).poison(dataset, None, np.random.default_rng(3))
        np.testing.assert_array_equal(a.dataset.labels, b.dataset.labels)


class TestEpsilonValidation:
    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_out_of_range_epsilon(self, eps):
        for name in ATTACK_NAMES:
            with pytest.raises(ValueError):
                create_attack(name, eps)


class TestTargetedLabelFlip:
    def test_all_flipped_to_target(self, dataset):
        from repro.attacks import TargetedLabelFlip

        report = TargetedLabelFlip(1.0, target_class=2).poison(
            dataset, None, np.random.default_rng(0)
        )
        assert np.all(report.dataset.labels[report.modified_mask] == 2)
        # already-target samples are left alone
        untouched = ~report.modified_mask
        np.testing.assert_array_equal(
            report.dataset.labels[untouched], dataset.labels[untouched]
        )

    def test_features_untouched(self, dataset):
        from repro.attacks import TargetedLabelFlip

        report = TargetedLabelFlip(0.5, target_class=1).poison(
            dataset, None, np.random.default_rng(0)
        )
        np.testing.assert_array_equal(
            report.dataset.features, dataset.features
        )

    def test_target_out_of_range(self, dataset):
        from repro.attacks import TargetedLabelFlip

        with pytest.raises(ValueError):
            TargetedLabelFlip(0.5, target_class=99).poison(
                dataset, None, np.random.default_rng(0)
            )
        with pytest.raises(ValueError):
            TargetedLabelFlip(0.5, target_class=-1)


class TestGaussianNoise:
    def test_no_oracle_needed(self, dataset):
        from repro.attacks import GaussianNoise

        report = GaussianNoise(0.2).poison(
            dataset, None, np.random.default_rng(0)
        )
        assert report.num_modified == len(dataset)
        assert report.dataset.features.min() >= 0.0
        assert report.dataset.features.max() <= 1.0

    def test_noise_magnitude_tracks_epsilon(self, dataset):
        from repro.attacks import GaussianNoise

        small = GaussianNoise(0.01).poison(dataset, None, np.random.default_rng(0))
        large = GaussianNoise(0.3).poison(dataset, None, np.random.default_rng(0))
        d_small = np.abs(small.dataset.features - dataset.features).mean()
        d_large = np.abs(large.dataset.features - dataset.features).mean()
        assert d_large > 5 * d_small

    def test_unstructured_vs_adversarial(self, model, oracle, dataset):
        """At matched epsilon, gradient-structured FGSM raises the loss far
        more than unstructured noise — the premise behind detecting
        structure rather than magnitude."""
        from repro.attacks import GaussianNoise
        from repro.nn import SparseCrossEntropyLoss

        loss = SparseCrossEntropyLoss()
        fgsm = FGSM(0.1).poison(dataset, oracle, np.random.default_rng(0))
        noise = GaussianNoise(0.1).poison(dataset, None, np.random.default_rng(0))
        fgsm_loss = loss(model.forward(fgsm.dataset.features), dataset.labels)
        noise_loss = loss(model.forward(noise.dataset.features), dataset.labels)
        assert fgsm_loss > noise_loss


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_fgsm_bound_and_box(eps, seed):
    """For any ε and data, FGSM respects both the ε-ball and the unit box."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(0, 1, size=(8, NUM_APS))
    labels = rng.integers(0, NUM_CLASSES, size=8)
    ds = FingerprintDataset(features, labels)
    model = Sequential(Linear(NUM_APS, 8, rng), ReLU(), Linear(8, NUM_CLASSES, rng))
    oracle = classifier_gradient_oracle(model, SparseCrossEntropyLoss())
    report = FGSM(eps).poison(ds, oracle, rng)
    out = report.dataset.features
    assert np.abs(out - features).max() <= eps + 1e-9
    assert out.min() >= 0.0 and out.max() <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_property_label_flip_count(eps, n, seed):
    """Label flip modifies exactly round(ε·n) rows and only labels."""
    rng = np.random.default_rng(seed)
    ds = FingerprintDataset(
        rng.uniform(0, 1, size=(n, 4)), rng.integers(0, 6, size=n)
    )
    report = LabelFlip(eps, num_classes=6).poison(ds, None, rng)
    assert report.num_modified == int(round(eps * n))
    changed = report.dataset.labels != ds.labels
    np.testing.assert_array_equal(changed, report.modified_mask)

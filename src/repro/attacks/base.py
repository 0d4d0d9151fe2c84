"""Attack interface and gradient plumbing.

The backdoor attacks of §III.A all need ``∇_X J(X, Y)`` — the gradient of
the global model's loss with respect to the local fingerprints.  Attacks
receive that as a :data:`GradientOracle` callable so they work identically
against a plain DNN baseline and against SAFELOC's fused network (each
model family provides its own oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.nn.losses import Loss
from repro.nn.module import Module

# Maps (features, labels) -> dLoss/dFeatures with matching shape.
GradientOracle = Callable[[np.ndarray, np.ndarray], np.ndarray]


def classifier_gradient_oracle(model: Module, loss: Loss) -> GradientOracle:
    """Build a :data:`GradientOracle` from a feed-forward classifier.

    The oracle runs a forward pass, evaluates ``loss`` against the labels,
    and backpropagates to the input without disturbing any accumulated
    parameter gradients (attacks probe the model; they must not train it).
    """

    def oracle(features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        logits = model.forward(features)
        loss.forward(logits, labels)
        grad = model.input_gradient(loss.backward())
        return np.asarray(grad).reshape(np.asarray(features).shape)

    return oracle


@dataclass
class PoisonReport:
    """Result of applying an attack to a local dataset.

    Attributes:
        dataset: The poisoned dataset (clean copy when ``epsilon`` is 0).
        attack: Attack name.
        epsilon: Perturbation magnitude / flip fraction used.
        modified_mask: Boolean per-sample mask of rows the attack altered.
    """

    dataset: FingerprintDataset
    attack: str
    epsilon: float
    modified_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))

    @property
    def num_modified(self) -> int:
        return int(self.modified_mask.sum())

    @property
    def fraction_modified(self) -> float:
        if self.modified_mask.size == 0:
            return 0.0
        return float(self.modified_mask.mean())


class Attack:
    """Base class for the five §III.A poisoning methods.

    Args:
        epsilon: Attack strength. For backdoor attacks this is the maximum
            perturbation in normalized feature units (the paper sweeps
            0 → 1); for label flipping it is the fraction of samples whose
            labels are flipped.
    """

    name = "attack"
    is_backdoor = True

    def __init__(self, epsilon: float):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
        self.epsilon = float(epsilon)

    def poison(
        self,
        dataset: FingerprintDataset,
        oracle: Optional[GradientOracle],
        rng: np.random.Generator,
    ) -> PoisonReport:
        """Produce a poisoned copy of ``dataset``.

        Args:
            dataset: The malicious client's clean local data.
            oracle: Gradient oracle of the current global model; required
                by the backdoor attacks, ignored by label flipping.
            rng: Randomness for sample selection / label choice.
        """
        raise NotImplementedError

    def _no_op_report(self, dataset: FingerprintDataset) -> PoisonReport:
        return PoisonReport(
            dataset=dataset.with_features(dataset.features.copy()),
            attack=self.name,
            epsilon=self.epsilon,
            modified_mask=np.zeros(len(dataset), dtype=bool),
        )

    @staticmethod
    def _clip_unit(features: np.ndarray) -> np.ndarray:
        """Respect the normalized RSS box: fingerprints live in [0, 1]."""
        return np.clip(features, 0.0, 1.0)

    @staticmethod
    def _require_oracle(oracle: Optional[GradientOracle]) -> GradientOracle:
        if oracle is None:
            raise ValueError("backdoor attacks require a gradient oracle")
        return oracle

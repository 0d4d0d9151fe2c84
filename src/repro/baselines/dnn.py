"""The three-layer DNN global model shared by FEDLOC and FEDHIL.

Both papers use "a three-layer deep neural network" as their GM (§I); this
is its :class:`~repro.fl.interfaces.LocalizationModel` wrapper around the
numpy substrate, and the building block the other baselines extend.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.attacks.base import GradientOracle, classifier_gradient_oracle
from repro.data.datasets import FingerprintDataset
from repro.fl.batched_round import ClassifierFoldProgram
from repro.fl.interfaces import LocalizationModel, StateDict
from repro.nn import Linear, ReLU, Sequential, SparseCrossEntropyLoss
from repro.utils.rng import spawn_rng


class DNNLocalizer(LocalizationModel):
    """Feed-forward RSS classifier: input → hidden layers → RP logits.

    Args:
        input_dim: Number of APs (feature dimension).
        num_classes: Number of reference points.
        hidden: Hidden layer widths; the default ``(128, 64)`` gives the
            three-weight-layer DNN of FEDLOC/FEDHIL.
        seed: Weight-init seed.
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        hidden: Tuple[int, ...] = (128, 64),
        seed: int = 0,
    ):
        if input_dim <= 0 or num_classes <= 0:
            raise ValueError("input_dim and num_classes must be positive")
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.hidden = tuple(int(h) for h in hidden)
        self.seed = int(seed)
        rng = spawn_rng(seed, "dnn-localizer")
        layers = []
        prev = self.input_dim
        for width in self.hidden:
            layers.extend([Linear(prev, width, rng), ReLU()])
            prev = width
        layers.append(Linear(prev, self.num_classes, rng))
        self.network = Sequential(*layers)
        self._loss = SparseCrossEntropyLoss()

    # -- LocalizationModel interface -------------------------------------
    def state_dict(self) -> StateDict:
        return self.network.state_dict()

    def load_state_dict(self, state: StateDict) -> None:
        self.network.load_state_dict(state)

    def logits(self, features: np.ndarray) -> np.ndarray:
        """Raw class scores (used by metrics and tests)."""
        return self.network.forward(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.logits(features).argmax(axis=1)

    def fold_batch_program(self) -> Optional[ClassifierFoldProgram]:
        """The plain classifier program — unless a subclass replaced
        :meth:`train_epochs` with its own loop."""
        if type(self).train_epochs is not LocalizationModel.train_epochs:
            return None
        return ClassifierFoldProgram(self.network)

    def gradient_oracle(self) -> GradientOracle:
        return classifier_gradient_oracle(self.network, SparseCrossEntropyLoss())

    def clone(self) -> "DNNLocalizer":
        copy = DNNLocalizer(
            self.input_dim, self.num_classes, hidden=self.hidden, seed=self.seed
        )
        copy.load_state_dict(self.state_dict())
        return copy

    def evaluate_loss(self, dataset: FingerprintDataset) -> float:
        return float(self._loss(self.logits(dataset.features), dataset.labels))

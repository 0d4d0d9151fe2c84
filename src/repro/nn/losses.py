"""Loss functions with analytic gradients.

SAFELOC trains the fused network with MSE (autoencoder branch) and sparse
categorical cross-entropy (classification branch), per §V.A of the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.functional import log_softmax


class Loss:
    """Interface: ``forward(pred, target) -> float`` then ``backward()``."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        """Gradient of the loss w.r.t. the prediction from the last forward."""
        raise NotImplementedError

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


class MSELoss(Loss):
    """Mean squared error averaged over every element of the batch."""

    def __init__(self) -> None:
        self._diff: Optional[np.ndarray] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = np.atleast_2d(np.asarray(prediction, dtype=np.float64))
        target = np.atleast_2d(np.asarray(target, dtype=np.float64))
        if prediction.shape != target.shape:
            raise ValueError(
                f"shape mismatch: prediction {prediction.shape} vs "
                f"target {target.shape}"
            )
        self._diff = prediction - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        return 2.0 * self._diff / self._diff.size


class SparseCrossEntropyLoss(Loss):
    """Softmax + cross-entropy against integer class labels.

    Matches Keras' ``sparse_categorical_crossentropy`` used by the paper:
    the prediction argument is raw logits; backward returns the gradient
    w.r.t. those logits.
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        logits = np.atleast_2d(np.asarray(prediction, dtype=np.float64))
        labels = np.asarray(target, dtype=np.int64).ravel()
        if logits.shape[0] != labels.size:
            raise ValueError(
                f"batch mismatch: {logits.shape[0]} logits vs {labels.size} labels"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
            raise ValueError(
                f"labels out of range [0, {logits.shape[1]}): "
                f"[{labels.min()}, {labels.max()}]"
            )
        logp = log_softmax(logits, axis=1)
        self._probs = np.exp(logp)
        self._labels = labels
        return float(-logp[np.arange(labels.size), labels].mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        grad[np.arange(self._labels.size), self._labels] -= 1.0
        return grad / self._labels.size

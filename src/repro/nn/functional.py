"""Stateless tensor helpers shared across the substrate."""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import default_dtype


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    logits = np.asarray(logits, dtype=default_dtype())
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

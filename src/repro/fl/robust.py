"""Classical Byzantine-robust aggregation rules.

Not part of the paper's comparison set, but the standard points of
reference for any robust-FL evaluation — the ablation benches compare
SAFELOC's saliency-map aggregation against these to show what the
localization-specific design buys over generic robustness:

* coordinate-wise median,
* coordinate-wise trimmed mean,
* update norm clipping.

All three run on the packed ``(n_clients, n_params)`` matrix (one
reduction over axis 0 each).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.packed import (
    PackedStates,
    _workspace,
    cohort_median,
    cohort_sort,
)


class CoordinateMedian(AggregationStrategy):
    """Elementwise median of the LM tensors.

    The median ignores up to half the cohort being arbitrarily corrupted,
    at the price of discarding the averaging noise reduction.
    """

    name = "coordinate-median"

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        return cohort_median(packed.matrix)


class TrimmedMean(AggregationStrategy):
    """Elementwise mean after dropping the k largest and k smallest values.

    Args:
        trim: Values removed from each end per element; clamped so at
            least one value survives.
    """

    name = "trimmed-mean"

    def __init__(self, trim: int = 1):
        if trim < 0:
            raise ValueError(f"trim must be >= 0, got {trim}")
        self.trim = int(trim)

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        matrix = packed.matrix
        n = matrix.shape[0]
        trim = min(self.trim, (n - 1) // 2)
        if trim == 0:
            return matrix.mean(axis=0)
        srt = cohort_sort(matrix)
        return srt[:, trim : n - trim].mean(axis=1)


class NormClipping(AggregationStrategy):
    """FedAvg after clipping each LM delta to a norm budget.

    Args:
        clip_norm: Maximum L2 norm of each client's delta (LM − GM);
            ``None`` clips to the median delta norm of the round
            (adaptive clipping).
    """

    name = "norm-clipping"

    def __init__(self, clip_norm: float = None):
        if clip_norm is not None and clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        self.clip_norm = clip_norm

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        matrix = packed.matrix
        deltas = np.subtract(
            matrix,
            gm_vector,
            out=_workspace("clip-delta", matrix.shape, matrix.dtype),
        )
        norms = np.linalg.norm(deltas, axis=1)
        budget = (
            self.clip_norm
            if self.clip_norm is not None
            else float(np.median(norms)) + 1e-12
        )
        scales = np.minimum(1.0, budget / (norms + 1e-12))
        # mean of scaled deltas as one BLAS matvec: (s/n) @ D
        clipped = (scales / matrix.shape[0]).astype(deltas.dtype) @ deltas
        return gm_vector + clipped

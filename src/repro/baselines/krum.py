"""KRUM (El Mhamdi et al. [22]): Byzantine-robust single-LM selection.

"Euclidean distance-based filtering to select the LM update that deviated
the least from the majority" (§II).  For each LM, the Krum score is the
sum of squared distances to its n − f − 2 nearest peers; the LM with the
lowest score becomes the new GM.  Because only one client's update
survives each round, KRUM "fails to incorporate collaborative learning
from all clients" — the heterogeneity weakness §II describes.

All pairwise distances come from one Gram matrix
(``‖x−y‖² = ‖x‖² + ‖y‖² − 2⟨x,y⟩``) instead of a materialized
``(n, n, p)`` broadcast difference tensor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.dnn import DNNLocalizer
from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.interfaces import FrameworkSpec
from repro.fl.packed import PackedStates, pairwise_sq_distances

#: KRUM used "a simple Multi-Layer Perceptron" (§II).
KRUM_HIDDEN = (64,)


def _scores_from_sq_distances(sq_dists: np.ndarray, num_byzantine: int) -> np.ndarray:
    """Krum scores from an ``(n, n)`` squared-distance matrix."""
    n = sq_dists.shape[0]
    closest = max(1, n - num_byzantine - 2)
    scored = sq_dists.copy()
    np.fill_diagonal(scored, np.inf)  # a client is not its own peer
    scored.sort(axis=1)
    return scored[:, :closest].sum(axis=1)


class KrumAggregation(AggregationStrategy):
    """Select the single LM with the lowest Krum score.

    Args:
        num_byzantine: Assumed number of malicious clients ``f``; the
            score for each LM sums its distances to the ``n − f − 2``
            closest other LMs.
    """

    name = "krum"

    def __init__(self, num_byzantine: int = 1):
        if num_byzantine < 0:
            raise ValueError("num_byzantine must be >= 0")
        self.num_byzantine = int(num_byzantine)

    def krum_scores(self, updates: Sequence[ClientUpdate]) -> np.ndarray:
        """Per-client Krum score (lower = more central)."""
        packed = PackedStates.from_updates(updates)
        return _scores_from_sq_distances(
            pairwise_sq_distances(packed.matrix), self.num_byzantine
        )

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        if packed.n_clients == 1:
            self.last_dropped_count = 0
            return packed.matrix[0].copy()
        scores = _scores_from_sq_distances(
            pairwise_sq_distances(packed.matrix), self.num_byzantine
        )
        # KRUM keeps exactly one LM: everything else is dropped
        self.last_dropped_count = packed.n_clients - 1
        return packed.matrix[int(np.argmin(scores))].copy()


def make_krum(input_dim: int, num_classes: int, seed: int = 0) -> FrameworkSpec:
    """KRUM framework bundle."""
    return FrameworkSpec(
        name="krum",
        model_factory=lambda: DNNLocalizer(
            input_dim, num_classes, hidden=KRUM_HIDDEN, seed=seed
        ),
        strategy=KrumAggregation(),
        description="KRUM: MLP + Byzantine-robust single-LM selection [22]",
    )

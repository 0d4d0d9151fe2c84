"""FEDCC (Jeong et al. [23]): cluster LM updates, keep the largest cluster.

FEDCC "employs clustering techniques to group LMs based on gradient
similarity, allowing it to detect and exclude poisoned updates from the GM
aggregation".  Here: k-means over the flattened LM deltas (LM − GM); only
the largest cluster is treated as honest and FedAvg'd.  Its known failure
mode — "may inadvertently filter out legitimate updates, particularly in
heterogeneous environments" (§II) — emerges naturally: with k > 2,
heterogeneous honest devices split into separate clusters and every
cluster but the largest is thrown away, so the GM loses device diversity
even though the poisoned update is correctly excluded.

All distance computations go through Gram-matrix identities
(``‖x−y‖² = ‖x‖² + ‖y‖² − 2⟨x,y⟩``), so clustering an ``(n, p)`` cohort
never materializes an ``(n, n, p)`` or ``(n, k, p)`` broadcast tensor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.dnn import DNNLocalizer
from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.interfaces import FrameworkSpec
from repro.fl.packed import PackedStates, pairwise_sq_distances

#: FEDCC's compact DNN per Table I (42,993 params in the paper).
FEDCC_HIDDEN = (160, 80)


def _distances_to_centroids(
    vectors: np.ndarray,
    centroids: np.ndarray,
    vector_sq_norms: np.ndarray,
) -> np.ndarray:
    """``(n, k)`` Euclidean distances via the Gram identity.

    ``vector_sq_norms`` is the precomputed ``‖v_i‖²`` row — the vectors
    never change across k-means iterations, so callers hoist it.
    """
    sq = (
        vector_sq_norms[:, None]
        + (centroids**2).sum(axis=1)[None, :]
        - 2.0 * vectors @ centroids.T
    )
    return np.sqrt(np.maximum(sq, 0.0))


def k_means(
    vectors: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator,
    num_iters: int = 25,
) -> np.ndarray:
    """K-means on row vectors; returns the cluster assignment array.

    Initialized by farthest-point traversal so the split is deterministic
    given the data (rng only re-seeds empty clusters).
    """
    n = vectors.shape[0]
    k = min(num_clusters, n)
    if k <= 1:
        return np.zeros(n, dtype=int)
    dists = np.sqrt(pairwise_sq_distances(vectors))
    if dists.max() == 0:  # all points identical
        return np.zeros(n, dtype=int)
    # farthest-point init: start from the mutually farthest pair, then add
    # the point farthest from every chosen seed
    seed_a, seed_b = np.unravel_index(np.argmax(dists), dists.shape)
    seeds = [int(seed_a), int(seed_b)]
    while len(seeds) < k:
        remaining = [i for i in range(n) if i not in seeds]
        next_seed = max(
            remaining, key=lambda i: min(dists[i, s] for s in seeds)
        )
        seeds.append(next_seed)
    centroids = vectors[seeds].copy()
    assignment = np.zeros(n, dtype=int)
    sq_norms = (vectors**2).sum(axis=1)
    for _ in range(num_iters):
        d = _distances_to_centroids(vectors, centroids, sq_norms)
        new_assignment = d.argmin(axis=1)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        for cluster in range(k):
            members = vectors[assignment == cluster]
            if len(members):
                centroids[cluster] = members.mean(axis=0)
            else:
                centroids[cluster] = vectors[rng.integers(n)]
    return assignment


def two_means(vectors: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Binary split (k = 2) — kept for ablations and tests."""
    return k_means(vectors, 2, rng)


class ClusteredAggregation(AggregationStrategy):
    """K-means over LM deltas; FedAvg of the largest cluster only.

    Args:
        num_clusters: Cluster count (FEDCC's default of 3 reproduces its
            §II heterogeneity weakness — honest devices split across
            clusters and the minority ones get discarded).
        seed: Tie-breaking seed.
    """

    name = "fedcc-cluster"

    def __init__(self, num_clusters: int = 3, seed: int = 0):
        if num_clusters < 2:
            raise ValueError("num_clusters must be >= 2")
        self.num_clusters = int(num_clusters)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def reset(self) -> None:
        # the tie-break rng advances on empty-cluster re-seeds, so a new
        # federation must restart the stream for runs to reproduce
        super().reset()
        self._rng = np.random.default_rng(self.seed)

    def _keep_cluster(self, vectors: np.ndarray) -> np.ndarray:
        """Cluster the delta vectors, return the kept clients' row mask."""
        assignment = k_means(vectors, self.num_clusters, self._rng)
        counts = np.bincount(assignment, minlength=assignment.max() + 1)
        largest = counts.max()
        candidates = np.flatnonzero(counts == largest)
        if len(candidates) > 1:
            # tie: keep the candidate cluster whose centroid is closest to
            # the GM (smallest mean delta)
            norms = [
                np.linalg.norm(vectors[assignment == c].mean(axis=0))
                for c in candidates
            ]
            keep = int(candidates[int(np.argmin(norms))])
        else:
            keep = int(candidates[0])
        return assignment == keep

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        if packed.n_clients == 1:
            self.last_dropped_count = 0
            return packed.matrix[0].copy()
        kept = self._keep_cluster(packed.deltas(gm_vector))
        self.last_dropped_count = int(packed.n_clients - kept.sum())
        weights = np.asarray(
            [max(1, u.num_samples) for u, k in zip(updates, kept) if k],
            dtype=np.float64,
        )
        weights = (weights / weights.sum()).astype(packed.matrix.dtype)
        return weights @ packed.matrix[kept]


def make_fedcc(input_dim: int, num_classes: int, seed: int = 0) -> FrameworkSpec:
    """FEDCC framework bundle."""
    return FrameworkSpec(
        name="fedcc",
        model_factory=lambda: DNNLocalizer(
            input_dim, num_classes, hidden=FEDCC_HIDDEN, seed=seed
        ),
        strategy=ClusteredAggregation(seed=seed),
        description="FEDCC: DNN + cluster-and-filter aggregation [23]",
    )

"""FEDLS (Luong et al. [24]): latent-space anomaly filtering of LM updates.

FEDLS "employs autoencoder-based latent space representations to detect
anomalous LM updates".  Each round the server summarizes every LM delta
(LM − GM) into per-tensor statistics, trains a small autoencoder on those
summaries, and drops the updates whose reconstruction error is an outlier
before FedAvg.  Training a fresh model-sized detector every round is what
makes FEDLS "resource-intensive" (§II) — its Table I footprint is the
largest of all frameworks, which the wide client DNN here reproduces.

Detection is leave-one-out (one detector per client per round).  All n
detectors train **simultaneously** as one fold stack
(:func:`repro.nn.batched.fold_stack`): the leave-one-out peer tensor is
gathered once into an ``(n, n−1, feat)`` stack and every epoch is a
handful of 3-D ``matmul`` contractions.  Fold ``k`` is an
:class:`UpdateAutoencoder` seeded for that fold, trained on its peers,
so the batched errors match the per-fold loop (kept as the test
reference) at ≤1e-10 (float64).

Two scalability modes compose on top: ``sampled_peers=k`` shrinks each
fold's peer tensor from ``n−1`` rows to ``k`` (O(n·k) data), and
``shared_encoder=True`` replaces the ``n`` independent detectors with
one encoder fitted on the pooled cohort plus per-fold batched decoder
*heads* — an O(n) program in which only the tiny heads remain per-fold
(see :meth:`LatentSpaceAggregation._shared_encoder_errors`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.baselines.dnn import DNNLocalizer
from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.interfaces import FrameworkSpec
from repro.fl.packed import PackLayout
from repro.fl.state import StateDict, state_weighted_mean
from repro.nn import (
    Adam,
    BatchedAdam,
    BatchedMSELoss,
    Linear,
    MSELoss,
    ReLU,
    Sequential,
    fold_stack,
)
from repro.nn.dtype import default_dtype
from repro.utils.rng import spawn_rng

#: FEDLS's client DNN per Table I (282,676 params in the paper — largest).
FEDLS_HIDDEN = (384, 320)

#: update-detector autoencoder schedule
DETECTOR_HIDDEN = 16
DETECTOR_LATENT = 4
DETECTOR_LR = 0.01
#: per-fold rng stream label; fold ``k`` of round ``r`` seeds its stream
#: with ``seed + 1000·r + k``
DETECTOR_STREAM = "fedls-update-ae"


class UpdateAutoencoder:
    """Small dense AE over LM-update summary features.

    Args:
        feature_dim: Summary feature width (4 stats per weight tensor).
        hidden / latent: AE widths.
        epochs / lr: Per-round training schedule.
        seed: Weight-init seed.
    """

    def __init__(
        self,
        feature_dim: int,
        hidden: int = DETECTOR_HIDDEN,
        latent: int = DETECTOR_LATENT,
        epochs: int = 150,
        lr: float = DETECTOR_LR,
        seed: int = 0,
    ):
        if feature_dim <= 0:
            raise ValueError("feature_dim must be positive")
        rng = spawn_rng(seed, DETECTOR_STREAM)
        self.network = Sequential(
            Linear(feature_dim, hidden, rng),
            ReLU(),
            Linear(hidden, latent, rng),
            ReLU(),
            Linear(latent, hidden, rng),
            ReLU(),
            Linear(hidden, feature_dim, rng),
        )
        self.epochs = int(epochs)
        self.lr = float(lr)
        self._loss = MSELoss()

    def fit(self, features: np.ndarray) -> None:
        """Self-supervised fit on this round's update summaries."""
        optimizer = Adam(self.network.trainable_parameters(), lr=self.lr)
        for _ in range(self.epochs):
            optimizer.zero_grad()
            self._loss(self.network.forward(features), features)
            self.network.backward(self._loss.backward(), input_grad=False)
            optimizer.step()

    def reconstruction_errors(self, features: np.ndarray) -> np.ndarray:
        """Per-row reconstruction RMSE."""
        recon = self.network.forward(features)
        return np.sqrt(((features - recon) ** 2).mean(axis=1))


def summarize_delta(delta: StateDict) -> np.ndarray:
    """Fixed-order per-tensor statistics: (mean|·|, std, max|·|, L2)."""
    stats: List[float] = []
    for key in sorted(delta):
        tensor = delta[key]
        stats.extend(
            [
                float(np.abs(tensor).mean()),
                float(tensor.std()),
                float(np.abs(tensor).max()),
                float(np.linalg.norm(tensor.ravel())),
            ]
        )
    return np.asarray(stats)


def summarize_packed_deltas(
    deltas: np.ndarray, layout: PackLayout
) -> np.ndarray:
    """Per-client summaries straight from a packed delta matrix.

    Same statistics as :func:`summarize_delta`, computed as grouped
    segment reductions over the flat per-tensor column spans of an
    ``(n_clients, n_params)`` delta matrix: one ``ufunc.reduceat`` per
    statistic instead of a Python loop over tensors, so the cost is a
    fixed handful of full-matrix passes regardless of how many tensors
    the architecture has.  Every pass writes into one scratch matrix, so
    the call needs one matrix of working memory beside ``deltas``.
    Each row's statistics depend on that row alone, bit for bit.
    """
    deltas = np.asarray(deltas)
    n_clients = deltas.shape[0]
    spans = [layout.slice_of(name) for name, _ in layout.spec]
    starts = np.fromiter(
        (span.start for span in spans), dtype=np.intp, count=len(spans)
    )
    # integer widths keep the mean/std denominators exact at any tensor
    # size; the small (n, T) quotients are cast back to the delta dtype
    # before touching full-width rows
    widths = np.diff(np.append(starts, layout.size))
    work = np.abs(deltas)
    mean_abs = np.add.reduceat(work, starts, axis=1) / widths
    max_abs = np.maximum.reduceat(work, starts, axis=1)
    np.multiply(work, work, out=work)  # |x|·|x| is x·x bit for bit
    l2 = np.sqrt(np.add.reduceat(work, starts, axis=1))
    # np.std's two-pass algorithm: center on the segment mean, then
    # average the squared deviations
    means = (np.add.reduceat(deltas, starts, axis=1) / widths).astype(
        deltas.dtype, copy=False
    )
    for column, span in enumerate(spans):
        np.subtract(deltas[:, span], means[:, column, None], out=work[:, span])
    np.multiply(work, work, out=work)
    std = np.sqrt(np.add.reduceat(work, starts, axis=1) / widths)
    out = np.empty((n_clients, 4 * len(spans)), dtype=deltas.dtype)
    out[:, 0::4] = mean_abs
    out[:, 1::4] = std
    out[:, 2::4] = max_abs
    out[:, 3::4] = l2
    return out


def robust_normalize(summaries: np.ndarray) -> np.ndarray:
    """Median/MAD column normalization of a summary matrix.

    Robust statistics keep an outlier from dominating the feature scale
    before the detectors ever see it; zero-spread columns pass through
    centred but unscaled.
    """
    centre = np.median(summaries, axis=0)
    spread = np.median(np.abs(summaries - centre), axis=0)
    spread[spread == 0] = 1.0
    return (summaries - centre) / spread


def leave_one_out_index(n: int) -> np.ndarray:
    """``(n, n−1)`` gather matrix: row ``i`` lists every index except ``i``.

    ``features[leave_one_out_index(n)]`` is the ``(n, n−1, feat)`` peer
    tensor — fold ``i``'s training data, identical to
    ``np.delete(features, i, axis=0)`` row for row.
    """
    if n < 2:
        raise ValueError(f"leave-one-out needs at least 2 rows, got {n}")
    grid = np.broadcast_to(np.arange(n), (n, n))
    return grid[grid != np.arange(n)[:, None]].reshape(n, n - 1)


def sampled_peer_index(
    n: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """``(n, k)`` gather matrix: row ``i`` holds ``k`` distinct peers of ``i``.

    The O(n·k) replacement for the full ``(n, n−1)`` leave-one-out
    matrix: fold ``i``'s detector trains on a seeded sample of its peers
    instead of all of them, turning the peer tensor (and the stacked
    GEMMs over it) from O(n²) to O(n·k).  Rows are drawn fold by fold in
    index order from ``rng``, so a given ``(seed, round)`` produces one
    peer assignment.
    """
    if not 2 <= k <= n - 1:
        raise ValueError(
            f"sampled peers must satisfy 2 <= k <= n-1, got k={k} for n={n}"
        )
    full = leave_one_out_index(n)
    return np.stack(
        [rng.choice(full[row], size=k, replace=False) for row in range(n)]
    )


class LatentSpaceAggregation(AggregationStrategy):
    """Drop latent-space-anomalous LM updates, FedAvg the rest.

    Detection is leave-one-out: each update's summary is scored by an
    autoencoder fitted on the *other* updates of the round.  An honest
    update reconstructs well (its peers look alike); a poisoned update is
    off-manifold for a detector that never saw it.  (Fitting a single AE
    on all updates would let it memorize the outlier — with a handful of
    clients per round the outlier even dominates the fit.)

    The round's ``n`` detectors are trained **simultaneously** on the
    fold-batched kernels.

    Args:
        outlier_factor: An update is dropped when its leave-one-out error
            exceeds ``outlier_factor ×`` the median error of the round.
        detector_epochs: AE fit budget per leave-one-out fold.
        seed: Detector-init seed.
        sampled_peers: When set, each fold's detector trains on this many
            seeded-sampled peers instead of all ``n−1`` — the O(n·k)
            scalability mode for large federations (see
            :func:`sampled_peer_index`).  ``None`` (default) keeps the
            exact full leave-one-out program.  Values ≥ ``n−1`` fall back
            to full LOO, so a fixed ``k`` is safe across cohort sizes.
        shared_encoder: Train **one** encoder on the pooled cohort and
            only per-fold batched decoder heads on the peer sets — the
            O(n) detection program past peer sampling (composes with
            ``sampled_peers``: the head tensor shrinks to ``(n, k, ·)``).
            Approximate by design.
    """

    name = "fedls-latent"

    def __init__(
        self,
        outlier_factor: float = 3.0,
        detector_epochs: int = 120,
        seed: int = 0,
        sampled_peers: Optional[int] = None,
        shared_encoder: bool = False,
    ):
        if outlier_factor <= 1.0:
            raise ValueError("outlier_factor must be > 1")
        if detector_epochs <= 0:
            raise ValueError("detector_epochs must be positive")
        if sampled_peers is not None and sampled_peers < 2:
            raise ValueError(
                f"sampled_peers must be >= 2 when set, got {sampled_peers}"
            )
        self.outlier_factor = float(outlier_factor)
        self.detector_epochs = int(detector_epochs)
        self.seed = int(seed)
        self.sampled_peers = (
            int(sampled_peers) if sampled_peers is not None else None
        )
        self.shared_encoder = bool(shared_encoder)
        self._local_round = 0

    def reset(self) -> None:
        super().reset()
        self._local_round = 0

    def _next_round_index(self) -> int:
        """The server-announced round, or a local counter when undriven."""
        if self.round_index is not None:
            return self.round_index
        self._local_round += 1
        return self._local_round

    def aggregate(
        self,
        global_state: StateDict,
        updates: Sequence[ClientUpdate],
    ) -> StateDict:
        updates = self._require_updates(updates)
        round_index = self._next_round_index()
        self.last_dropped_count = 0
        if len(updates) < 3:
            return state_weighted_mean(
                [u.state for u in updates],
                [max(1, u.num_samples) for u in updates],
            )
        normalized = self.normalized_summaries(global_state, updates)
        errors = self.leave_one_out_errors(normalized, round_index)
        threshold = self.outlier_factor * (np.median(errors) + 1e-12)
        kept = [u for u, e in zip(updates, errors) if e <= threshold]
        if not kept:  # never drop everyone
            kept = list(updates)
        self.last_dropped_count = len(updates) - len(kept)
        return state_weighted_mean(
            [u.state for u in kept], [max(1, u.num_samples) for u in kept]
        )

    @staticmethod
    def normalized_summaries(
        global_state: StateDict, updates: Sequence[ClientUpdate]
    ) -> np.ndarray:
        """Median/MAD-normalized per-client update summaries.

        Robust column normalization keeps the outlier from dominating
        the feature scale before the detectors ever see it.  The cohort
        streams through one reusable flat row, one delta ``LM − GM`` at
        a time, so the working set is two state vectors (the row and the
        summary's scratch) whatever the cohort size; per-row summaries
        make this bit-identical to summarizing the packed delta matrix.
        """
        layout = PackLayout.for_state(global_state)
        row = np.empty(layout.size, dtype=default_dtype())
        reference = [
            (layout.slice_of(name), np.asarray(global_state[name], row.dtype))
            for name, _ in layout.spec
        ]
        summaries = np.empty((len(updates), 4 * len(reference)), row.dtype)
        for index, update in enumerate(updates):
            layout.flatten(update.state, out=row)
            for span, tensor in reference:
                row[span] -= tensor.reshape(-1)
            summaries[index] = summarize_packed_deltas(row[None], layout)[0]
        return robust_normalize(summaries)

    def leave_one_out_errors(
        self, normalized: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Each row's reconstruction error under its leave-one-out detector."""
        if self.shared_encoder:
            return self._shared_encoder_errors(normalized, round_index)
        return self._loo_errors_batched(normalized, round_index)

    def _fold_seeds(self, n_folds: int, round_index: int) -> List[int]:
        return [
            self.seed + 1000 * round_index + idx for idx in range(n_folds)
        ]

    def _peer_index(self, n: int, round_index: int) -> np.ndarray:
        """The round's peer-gather matrix.

        Full ``(n, n−1)`` leave-one-out by default; ``(n, k)`` seeded
        sampling when ``sampled_peers`` is active and actually smaller
        than the full peer set.  Recomputing the sample from
        ``(seed, round)`` each call keeps repeated runs on identical peer
        assignments.
        """
        k = self.sampled_peers
        if k is None or k >= n - 1:
            return leave_one_out_index(n)
        rng = spawn_rng(
            self.seed + 1000 * round_index, "fedls-peer-sample"
        )
        return sampled_peer_index(n, k, rng)

    def _loo_errors_batched(
        self, normalized: np.ndarray, round_index: int
    ) -> np.ndarray:
        """All folds' detectors in one batched training loop.

        The peer tensor is an ``(n, n−1, feat)`` gather; each of the
        ``detector_epochs`` steps is four stacked GEMMs forward and four
        back, so the per-epoch cost no longer scales with Python-loop
        round-trips over the cohort.  Fold ``k`` stacks a fresh
        :class:`UpdateAutoencoder` seeded ``seed + 1000·round + k`` — the
        detector a per-fold loop would train.
        """
        n, feature_dim = normalized.shape
        detectors = [
            UpdateAutoencoder(feature_dim, seed=fold_seed).network
            for fold_seed in self._fold_seeds(n, round_index)
        ]
        peers = normalized[self._peer_index(n, round_index)]
        loss = BatchedMSELoss()
        with fold_stack(detectors) as network:
            optimizer = BatchedAdam(
                network.trainable_parameters(), lr=DETECTOR_LR
            )
            for _ in range(self.detector_epochs):
                optimizer.zero_grad()
                loss(network.forward(peers), peers, value=False)
                network.backward(loss.backward(), input_grad=False)
                optimizer.step()
            recon = network.forward(normalized[:, None, :])
        return np.sqrt(
            ((normalized[:, None, :] - recon) ** 2).mean(axis=2)
        )[:, 0]

    def _shared_encoder_errors(
        self, normalized: np.ndarray, round_index: int
    ) -> np.ndarray:
        """O(n) detection: one pooled encoder + per-fold batched heads.

        Phase one fits a single :class:`UpdateAutoencoder` on the whole
        cohort — seeded ``seed + 1000·round`` on the shared detector
        stream, same epoch budget as a fold detector, but O(n) rows once
        instead of n times over.  Phase two freezes its encoder half,
        encodes the cohort in one pass, and trains only per-fold decoder
        *heads* (latent → hidden → feat, every fold warm-initialized from
        the pooled decoder) on each fold's peer latents.  Leave-one-out
        survives in the heads: fold ``k``'s head never trains on row
        ``k``, so an outlier still reconstructs badly under its own head.

        The per-epoch cost is the head GEMMs over an ``(n, p, ·)`` tensor
        with the tiny latent/hidden widths — O(n) when ``sampled_peers``
        pins ``p``, and still far below full LOO's n four-layer detectors
        otherwise.  This is approximate by design: determinism and
        outlier agreement with the exact full leave-one-out detectors are
        what the tests and the benchmark gate pin, not bit-equality.
        """
        n, feature_dim = normalized.shape
        pooled = UpdateAutoencoder(
            feature_dim,
            epochs=self.detector_epochs,
            seed=self.seed + 1000 * round_index,
        )
        pooled.fit(normalized)
        layers = pooled.network.layers
        latent = normalized
        for layer in layers[:4]:  # Linear→ReLU→Linear→ReLU encoder half
            latent = layer.forward(latent)
        peer_index = self._peer_index(n, round_index)
        peer_latent = np.ascontiguousarray(latent[peer_index])
        peer_target = np.ascontiguousarray(normalized[peer_index])
        loss = BatchedMSELoss()
        # per-fold heads: n copies of the pooled decoder half, trained apart
        decoder_half = Sequential(*layers[4:])
        with fold_stack([decoder_half] * n) as heads:
            optimizer = BatchedAdam(
                heads.trainable_parameters(), lr=DETECTOR_LR
            )
            for _ in range(self.detector_epochs):
                optimizer.zero_grad()
                loss(heads.forward(peer_latent), peer_target, value=False)
                heads.backward(loss.backward(), input_grad=False)
                optimizer.step()
            recon = heads.forward(np.ascontiguousarray(latent[:, None, :]))
        return np.sqrt(
            ((normalized[:, None, :] - recon) ** 2).mean(axis=2)
        )[:, 0]


def make_fedls(
    input_dim: int,
    num_classes: int,
    seed: int = 0,
    outlier_factor: float = 3.0,
    detector_epochs: int = 120,
    sampled_peers: Optional[int] = None,
    shared_encoder: bool = False,
) -> FrameworkSpec:
    """FEDLS framework bundle.

    The detector knobs pass straight through to
    :class:`LatentSpaceAggregation`, so sweeps can switch to the O(n·k)
    ``sampled_peers`` / O(n) ``shared_encoder`` detectors per cell via
    ``framework_kwargs`` — e.g. ``{"sampled_peers": 16}`` or
    ``{"shared_encoder": True}``.
    """
    return FrameworkSpec(
        name="fedls",
        model_factory=lambda: DNNLocalizer(
            input_dim, num_classes, hidden=FEDLS_HIDDEN, seed=seed
        ),
        strategy=LatentSpaceAggregation(
            outlier_factor=outlier_factor,
            detector_epochs=detector_epochs,
            seed=seed,
            sampled_peers=sampled_peers,
            shared_encoder=shared_encoder,
        ),
        description="FEDLS: DNN + latent-space update anomaly filter [24]",
    )

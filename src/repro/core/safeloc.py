"""The SAFELOC client/server pipeline (§IV) as a federation-ready model.

:class:`SafeLocModel` wires the fused network and the RCE detector into the
:class:`~repro.fl.interfaces.LocalizationModel` interface:

* **training** (server pre-train and client local training): fingerprints
  flagged by the detector are de-noised (replaced by their reconstruction)
  before the joint MSE + cross-entropy step — the client-side backdoor
  defense of §IV.A;
* **inference**: fingerprints with RCE ≤ τ classify straight from the
  latent; flagged ones are reconstructed, re-encoded, and then classified;
* the matching server-side defense is
  :class:`~repro.core.saliency.SaliencyAggregation`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import GradientOracle, classifier_gradient_oracle
from repro.core.detection import DEFAULT_TAU, ThresholdDetector, reconstruction_errors
from repro.core.fused_network import ENCODER_WIDTHS, FusedAutoencoderClassifier
from repro.core.saliency import SaliencyAggregation
from repro.data.datasets import FingerprintDataset
from repro.fl.batched_round import (
    FoldPrep,
    FoldProgram,
    fold_mean,
    layer_shapes,
)
from repro.fl.interfaces import FrameworkSpec, LocalizationModel, StateDict
from repro.nn import SparseCrossEntropyLoss
from repro.nn.batched import (
    BatchedAdam,
    BatchedMSELoss,
    BatchedSparseCrossEntropyLoss,
    fold_stack,
    iterate_fold_batches,
)


class SafeLocModel(LocalizationModel):
    """Fused network + τ-threshold defense as one federated model.

    Args:
        input_dim: Number of APs.
        num_classes: Number of reference points.
        tau: RCE detection threshold (paper optimum 0.1, Fig. 4).
        recon_weight: Weight of the MSE branch in the joint training loss.
        seed: Weight-init seed.
        encoder_widths: Fused-network encoder widths (§V.A default).
        denoise_training_data: Client-side de-noising of flagged samples
            before local training (True per §IV; exposed for ablations).
        corruption_noise_std / corruption_dropout: De-noising-autoencoder
            corruption applied to *trusted* (server pre-training) inputs:
            Gaussian feature noise and random AP erasure.  The decoder
            learns to reconstruct the clean fingerprint from a corrupted
            one — this is what makes it the paper's "de-noising decoder"
            and what keeps heterogeneous-but-honest devices below τ while
            adversarially structured perturbations stay above it.
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        tau: float = DEFAULT_TAU,
        recon_weight: float = 5.0,
        seed: int = 0,
        encoder_widths: Tuple[int, ...] = ENCODER_WIDTHS,
        denoise_training_data: bool = True,
        corruption_noise_std: float = 0.03,
        corruption_dropout: float = 0.03,
    ):
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.tau = tau
        self.recon_weight = float(recon_weight)
        self.seed = int(seed)
        self.encoder_widths = tuple(encoder_widths)
        self.denoise_training_data = bool(denoise_training_data)
        if corruption_noise_std < 0 or not 0.0 <= corruption_dropout < 1.0:
            raise ValueError("invalid corruption parameters")
        self.corruption_noise_std = float(corruption_noise_std)
        self.corruption_dropout = float(corruption_dropout)
        self.network = FusedAutoencoderClassifier(
            input_dim, num_classes, seed=seed, encoder_widths=encoder_widths
        )
        self._ce = SparseCrossEntropyLoss()
        #: samples flagged as poisoned during the most recent train_epochs
        self.last_flagged_count = 0

    @property
    def tau(self) -> float:
        """The RCE threshold; :attr:`detector` holds the only copy."""
        return self.detector.tau

    @tau.setter
    def tau(self, tau: float) -> None:
        self.detector = ThresholdDetector(float(tau))

    # -- detection / de-noising -------------------------------------------
    def reconstruction_errors(self, features: np.ndarray) -> np.ndarray:
        """Per-sample RCE against the current autoencoder."""
        return reconstruction_errors(self.network, features)

    def denoise(self, features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Replace flagged fingerprints with their reconstruction.

        Returns ``(cleaned_features, flagged_mask)``.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        rce = self.reconstruction_errors(features)
        flagged = self.detector.flag(rce)
        if not flagged.any():
            return features.copy(), flagged
        cleaned = features.copy()
        cleaned[flagged] = self.network.reconstruct(features[flagged])
        return cleaned, flagged

    def _screen_training_data(
        self, dataset: FingerprintDataset
    ) -> Tuple[Optional[FingerprintDataset], np.ndarray]:
        """§IV.A client-side screening, the fold program's prepare phase.

        De-noises flagged fingerprints and records ``last_flagged_count``.
        Second-pass check: a successfully de-noised fingerprint lands back
        on the clean manifold (RCE ≤ τ).  Reconstructions that are *still*
        anomalous came from perturbations too large to invert — training
        on them would poison the LM, so they are dropped from the local
        update altogether.  Returns ``(screened dataset, flagged mask)``,
        or ``(None, flagged)`` when nothing trustworthy survives.
        """
        cleaned, flagged = self.denoise(dataset.features)
        self.last_flagged_count = int(flagged.sum())
        if flagged.any():
            still_bad = flagged & self.detector.flag(
                self.reconstruction_errors(cleaned)
            )
            if still_bad.any():
                keep = np.flatnonzero(~still_bad)
                if keep.size == 0:
                    return None, flagged
                cleaned = cleaned[keep]
                flagged = flagged[keep]
                dataset = dataset.subset(keep)
        return dataset.with_features(cleaned), flagged

    # -- LocalizationModel interface ----------------------------------------
    def state_dict(self) -> StateDict:
        return self.network.state_dict()

    def load_state_dict(self, state: StateDict) -> None:
        self.network.load_state_dict(state)

    def _corrupt(self, features: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """DAE input corruption: Gaussian jitter + random AP erasure."""
        corrupted = features
        if self.corruption_noise_std > 0:
            corrupted = corrupted + rng.normal(
                0.0, self.corruption_noise_std, size=features.shape
            )
        if self.corruption_dropout > 0:
            mask = rng.random(features.shape) < self.corruption_dropout
            corrupted = np.where(mask, 0.0, corrupted)
        return np.clip(corrupted, 0.0, 1.0)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """§IV.A inference: de-noise-and-re-encode fingerprints over τ."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        latent = self.network.encode(features)
        reconstruction = self.network.decode(latent)
        rce = np.sqrt(((features - reconstruction) ** 2).mean(axis=1))
        flagged = self.detector.flag(rce)
        if flagged.any():
            # reconstructed fingerprint is re-supplied to the encoder
            latent_denoised = self.network.encode(reconstruction[flagged])
            latent[flagged] = latent_denoised
        return self.network.classify_latent(latent).argmax(axis=1)

    def gradient_oracle(self) -> GradientOracle:
        """∇_X of the classification loss — what the paper's attacker uses
        (the GM's loss function, eq. 1-4)."""
        return classifier_gradient_oracle(self.network, SparseCrossEntropyLoss())

    def fold_batch_program(self) -> Optional["SafeLocFoldProgram"]:
        """SAFELOC's composite program — unless a subclass replaced
        :meth:`train_epochs` with its own loop."""
        if type(self).train_epochs is not LocalizationModel.train_epochs:
            return None
        return SafeLocFoldProgram(self)

    def clone(self) -> "SafeLocModel":
        copy = SafeLocModel(
            self.input_dim,
            self.num_classes,
            tau=self.tau,
            recon_weight=self.recon_weight,
            seed=self.seed,
            encoder_widths=self.encoder_widths,
            denoise_training_data=self.denoise_training_data,
            corruption_noise_std=self.corruption_noise_std,
            corruption_dropout=self.corruption_dropout,
        )
        copy.load_state_dict(self.state_dict())
        return copy

    def evaluate_loss(self, dataset: FingerprintDataset) -> float:
        logits = self.network.classify_latent(
            self.network.encode(dataset.features)
        )
        return float(self._ce(logits, dataset.labels))

    def inference_macs(self) -> int:
        """MACs of the §IV.A inference path: encode + decode (RCE check)
        + classify.  The decoder shares (transposed) encoder weights, so
        its MAC cost equals the encoder's even though it adds no
        parameters."""
        encoder_macs = sum(
            linear.in_features * linear.out_features
            for linear in self.network._encoder_linears
        )
        classifier_macs = self.network.latent_dim * self.num_classes
        return 2 * encoder_macs + classifier_macs


class SafeLocFoldProgram(FoldProgram):
    """Fold-batched SAFELOC local training — the §IV.A composite, stacked.

    ``prepare`` runs the screening phase (de-noise + second-pass drop)
    per fold against the broadcast weights; trusted (server-held) data
    skips it.  ``train_cohort`` stacks the folds' whole fused networks
    with :func:`~repro.nn.batched.fold_stack` — the tied decoder reads
    the stacked encoder weight, so each fold's decoder weight gradients
    accumulate into that fold's slice of it, exactly as the per-model
    tie accumulates into its encoder — and runs the joint MSE+CE step
    through the network's own ``encode``/``decode``/``classify_latent``/
    ``joint_backward`` as stacked 3-D matmuls, zeroing each fold's
    flagged rows out of the reconstruction gradient.  Trusted
    folds train as a de-noising autoencoder: their inputs are corrupted
    per batch (:meth:`SafeLocModel._corrupt`), their MSE target stays
    the clean batch.  Bit-identical at float64 to the serial loop in
    ``tests/reference/training.py``.
    """

    def __init__(self, model: SafeLocModel):
        self.model = model

    def structure_key(self) -> Tuple:
        network = self.model.network
        return (
            "safeloc",
            layer_shapes(network.encoder),
            layer_shapes(network.decoder),
            (network.latent_dim, network.num_classes),
            self.model.recon_weight,
        )

    def prepare(
        self, dataset: FingerprintDataset, trusted: bool = False
    ) -> Optional[FoldPrep]:
        model = self.model
        if trusted or not model.denoise_training_data:
            model.last_flagged_count = 0
            flagged = np.zeros(len(dataset), dtype=bool)
            return FoldPrep(dataset, aux=flagged, trusted=trusted)
        screened, flagged = model._screen_training_data(dataset)
        if screened is None:
            return None
        return FoldPrep(screened, aux=flagged)

    def train_cohort(
        self,
        programs: Sequence["SafeLocFoldProgram"],
        preps: Sequence[FoldPrep],
        config,
        rngs,
    ) -> np.ndarray:
        features = np.stack([prep.dataset.features for prep in preps])
        labels = np.stack([prep.dataset.labels for prep in preps])
        flagged = np.stack([prep.aux for prep in preps])
        corrupted = [fold for fold, prep in enumerate(preps) if prep.trusted]
        recon_weight = self.model.recon_weight
        mse = BatchedMSELoss()
        ce = BatchedSparseCrossEntropyLoss()
        fold_idx = np.arange(len(programs))[:, None]
        fold_final = np.zeros(len(programs))
        with fold_stack(
            [program.model.network for program in programs]
        ) as network:
            optimizer = BatchedAdam(
                network.trainable_parameters(), lr=config.lr
            )
            for epoch in range(config.epochs):
                # only the final epoch's losses are returned
                final = epoch == config.epochs - 1
                batch_losses = []
                for batch_features, batch_labels, idx in iterate_fold_batches(
                    features, labels, config.batch_size, rngs, with_index=True
                ):
                    optimizer.zero_grad()
                    inputs = batch_features
                    if corrupted:
                        # each trusted fold draws its corruption from its
                        # own rng, after the epoch's permutation
                        inputs = batch_features.copy()
                        for fold in corrupted:
                            inputs[fold] = programs[fold].model._corrupt(
                                batch_features[fold], rngs[fold]
                            )
                    latent = network.encode(inputs)
                    # de-noising objective: reconstruct the CLEAN fingerprint
                    mse(network.decode(latent), batch_features, final)
                    ce(network.classify_latent(latent), batch_labels, final)
                    grad_recon = recon_weight * mse.backward()
                    # flagged rows were *replaced by reconstructions*;
                    # feeding them back into the autoencoder objective
                    # would collapse the detector onto its own outputs, so
                    # only the classification branch learns from them
                    grad_recon[flagged[fold_idx, idx]] = 0.0
                    network.joint_backward(
                        grad_recon, ce.backward(), input_grad=False
                    )
                    optimizer.step()
                    if final:
                        batch_losses.append(
                            ce.fold_losses + recon_weight * mse.fold_losses
                        )
                if final:
                    fold_final = fold_mean(batch_losses)
        return fold_final


def make_safeloc(
    input_dim: int,
    num_classes: int,
    seed: int = 0,
    tau: float = DEFAULT_TAU,
    denoise_training_data: bool = True,
    **strategy_kwargs,
) -> FrameworkSpec:
    """The complete SAFELOC framework: fused model + saliency aggregation.

    ``denoise_training_data`` gates the client-side de-noising defense
    (the ablation knob).  Extra keyword arguments configure
    :class:`~repro.core.saliency.SaliencyAggregation` (``mode``,
    ``tolerance``, ``power``, ``server_mixing``, ``adjustment``).
    """
    return FrameworkSpec(
        name="safeloc",
        model_factory=lambda: SafeLocModel(
            input_dim,
            num_classes,
            tau=tau,
            seed=seed,
            denoise_training_data=denoise_training_data,
        ),
        strategy=SaliencyAggregation(**strategy_kwargs),
        description="SAFELOC: fused AE+classifier with saliency aggregation (this paper)",
    )

"""ONLAD (Tsukada et al. [25]): on-device anomaly detection + FedAvg.

ONLAD runs *two separate models* on the device — a semi-supervised
autoencoder that flags anomalous (poisoned) fingerprints, and the
localization DNN trained only on the samples that pass — which is exactly
the overhead SAFELOC's fused architecture eliminates (§II: "they employ
two separate ML models for poison detection and localization").
Aggregation is plain FedAvg, so label-flipped LMs still reach the GM —
the weakness Fig. 6 shows.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.attacks.base import GradientOracle, classifier_gradient_oracle
from repro.baselines.dnn import DNNLocalizer
from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import FedAvg
from repro.fl.batched_round import (
    FoldPrep,
    FoldProgram,
    layer_shapes,
    run_classifier_epochs,
)
from repro.fl.interfaces import FrameworkSpec, LocalizationModel, StateDict
from repro.nn import Linear, ReLU, Sequential, SparseCrossEntropyLoss
from repro.nn.batched import (
    BatchedAdam,
    BatchedMSELoss,
    fold_stack,
    iterate_fold_batches,
)
from repro.utils.rng import spawn_rng

#: ONLAD's localizer + detector pair per Table I (130,185 params).
ONLAD_HIDDEN = (224, 128)
ONLAD_DETECTOR_WIDTHS = (128, 32)


class OnDeviceAnomalyModel(LocalizationModel):
    """Localizer DNN plus an independent on-device detector autoencoder.

    Args:
        input_dim / num_classes: Problem shape.
        tau: Detector threshold on per-sample reconstruction RMSE; samples
            above it are excluded from local training.
        seed: Weight-init seed.
    """

    def __init__(
        self,
        input_dim: int,
        num_classes: int,
        tau: float = 0.1,
        seed: int = 0,
    ):
        if not np.isfinite(tau) or tau < 0:
            raise ValueError(f"tau must be finite and >= 0, got {tau}")
        self.input_dim = int(input_dim)
        self.num_classes = int(num_classes)
        self.tau = float(tau)
        self.seed = int(seed)
        self.localizer = DNNLocalizer(
            input_dim, num_classes, hidden=ONLAD_HIDDEN, seed=seed
        )
        rng = spawn_rng(seed, "onlad-detector")
        wide, narrow = ONLAD_DETECTOR_WIDTHS
        self.detector = Sequential(
            Linear(input_dim, wide, rng),
            ReLU(),
            Linear(wide, narrow, rng),
            ReLU(),
            Linear(narrow, wide, rng),
            ReLU(),
            Linear(wide, input_dim, rng),
        )
        self.last_flagged_count = 0

    # -- detector ---------------------------------------------------------
    def detector_errors(self, features: np.ndarray) -> np.ndarray:
        """Per-sample reconstruction RMSE from the detector AE."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        recon = self.detector.forward(features)
        return np.sqrt(((features - recon) ** 2).mean(axis=1))

    def flag(self, features: np.ndarray) -> np.ndarray:
        """Boolean anomaly mask (True = excluded from training)."""
        return self.detector_errors(features) > self.tau

    # -- LocalizationModel interface ---------------------------------------
    def state_dict(self) -> StateDict:
        state = {
            f"localizer.{k}": v for k, v in self.localizer.state_dict().items()
        }
        state.update(
            {f"detector.{k}": v for k, v in self.detector.state_dict().items()}
        )
        return state

    def load_state_dict(self, state: StateDict) -> None:
        self.localizer.load_state_dict(
            {
                k[len("localizer."):]: v
                for k, v in state.items()
                if k.startswith("localizer.")
            }
        )
        self.detector.load_state_dict(
            {
                k[len("detector."):]: v
                for k, v in state.items()
                if k.startswith("detector.")
            }
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Deployment inference: ONLAD always runs BOTH models on-device —
        the detector screens each fingerprint, then the localizer predicts
        — which is exactly the two-model overhead SAFELOC's fused design
        removes (§II, Table I)."""
        self.detector_errors(features)  # anomaly screen (latency-relevant)
        return self.localizer.predict(features)

    def gradient_oracle(self) -> GradientOracle:
        return classifier_gradient_oracle(
            self.localizer.network, SparseCrossEntropyLoss()
        )

    def fold_batch_program(self) -> Optional["OnladFoldProgram"]:
        """ONLAD's two-model program — unless a subclass replaced
        :meth:`train_epochs` with its own loop."""
        if type(self).train_epochs is not LocalizationModel.train_epochs:
            return None
        return OnladFoldProgram(self)

    def clone(self) -> "OnDeviceAnomalyModel":
        copy = OnDeviceAnomalyModel(
            self.input_dim, self.num_classes, tau=self.tau, seed=self.seed
        )
        copy.load_state_dict(self.state_dict())
        return copy

    def evaluate_loss(self, dataset: FingerprintDataset) -> float:
        return self.localizer.evaluate_loss(dataset)

    def inference_macs(self) -> int:
        """Deployment inference runs both networks (detector screen +
        localizer prediction) — the two-model overhead of §II."""
        from repro.metrics.macs import macs_of_state

        return macs_of_state(self.localizer.state_dict()) + macs_of_state(
            self.detector.state_dict()
        )


class OnladFoldProgram(FoldProgram):
    """Fold-batched ONLAD local training — both on-device models, stacked.

    ``prepare`` runs the detector screen per fold (flag + subset,
    recording ``last_flagged_count``) against the broadcast weights;
    trusted data is not screened.  ``train_cohort`` then runs the
    two-phase pass: the stacked localizer trains under the stock
    classifier loop, then the stacked detector autoencoders train under
    MSE, with each fold's rng stream *continuing* from phase one, one
    generator running through both models.  Bit-identical at float64 to
    the serial loop in ``tests/reference/training.py``.
    """

    def __init__(self, model: OnDeviceAnomalyModel):
        self.model = model

    def structure_key(self) -> Tuple:
        return (
            "onlad",
            layer_shapes(self.model.localizer.network),
            layer_shapes(self.model.detector),
        )

    def prepare(
        self, dataset: FingerprintDataset, trusted: bool = False
    ) -> Optional[FoldPrep]:
        model = self.model
        if trusted:
            flagged = np.zeros(len(dataset), dtype=bool)
        else:
            flagged = model.flag(dataset.features)
        model.last_flagged_count = int(flagged.sum())
        kept = dataset.subset(np.flatnonzero(~flagged))
        if len(kept) == 0:
            # everything flagged: skip the local update entirely
            return None
        return FoldPrep(kept, trusted=trusted)

    def train_cohort(
        self,
        programs: Sequence["OnladFoldProgram"],
        preps: Sequence[FoldPrep],
        config,
        rngs,
    ) -> np.ndarray:
        models = [program.model for program in programs]
        features = np.stack([prep.dataset.features for prep in preps])
        labels = np.stack([prep.dataset.labels for prep in preps])
        with fold_stack(
            [model.localizer.network for model in models]
        ) as localizer:
            fold_final = run_classifier_epochs(
                localizer,
                features,
                labels,
                config.epochs,
                config.lr,
                config.batch_size,
                rngs,
            )
        # phase two: the detector autoencoders, each fold's rng stream
        # continuing where the localizer loop left it
        with fold_stack([model.detector for model in models]) as detector:
            optimizer = BatchedAdam(
                detector.trainable_parameters(), lr=config.lr
            )
            mse = BatchedMSELoss()
            for _ in range(config.epochs):
                for batch_features, _labels in iterate_fold_batches(
                    features, labels, config.batch_size, rngs
                ):
                    detector.zero_grad()
                    mse(detector.forward(batch_features), batch_features)
                    detector.backward(mse.backward())
                    optimizer.step()
        return fold_final


def make_onlad(input_dim: int, num_classes: int, seed: int = 0) -> FrameworkSpec:
    """ONLAD framework bundle."""
    return FrameworkSpec(
        name="onlad",
        model_factory=lambda: OnDeviceAnomalyModel(
            input_dim, num_classes, seed=seed
        ),
        strategy=FedAvg(),
        description="ONLAD: separate on-device detector AE + DNN, FedAvg [25]",
    )

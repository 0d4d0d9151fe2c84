"""Reconstruction-error poison detection (§IV).

The fused network's autoencoder branch yields a per-fingerprint
reconstruction error (RCE).  During centralized training the server
establishes a threshold τ; on clients, fingerprints with RCE > τ are
flagged as backdoor-poisoned and de-noised before classification and local
training.

RCE definition: the paper computes "the MSE between the input RSS
fingerprint and the reconstructed RSS fingerprint" and sweeps τ over
0–0.5 interpreted as a percentage tolerance ("τ = 0.1, allowing a 10%
variance").  In normalized RSS units that tolerance semantics corresponds
to the root-mean-square error per feature, so ``reconstruction_errors``
returns RMSE: a τ of 0.1 tolerates an average 10%-of-scale deviation per
AP — which is also what makes the paper's 0–0.5 sweep range meaningful
(plain MSE of trained AEs lives at 1e-3 and the sweep would saturate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.fused_network import FusedAutoencoderClassifier

DEFAULT_TAU = 0.1


def reconstruction_errors(model, features: np.ndarray) -> np.ndarray:
    """Per-sample RCE (root-mean-square reconstruction error).

    Args:
        model: The fused network, or any wrapper exposing the autoencoder
            branch — either a ``reconstruct`` method or a ``network``
            attribute that has one (``SafeLocModel`` qualifies).
        features: ``(n, input_dim)`` normalized fingerprints.

    Returns:
        ``(n,)`` non-negative errors in normalized RSS units.
    """
    reconstruct = getattr(model, "reconstruct", None)
    if reconstruct is None:
        network = getattr(model, "network", None)
        reconstruct = getattr(network, "reconstruct", None)
    if reconstruct is None:
        raise TypeError(
            f"{type(model).__name__} exposes no autoencoder branch "
            "(need .reconstruct or .network.reconstruct)"
        )
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    reconstructed = reconstruct(features)
    return np.sqrt(((features - reconstructed) ** 2).mean(axis=1))


@dataclass
class ThresholdDetector:
    """Flags fingerprints whose RCE exceeds τ (RCE > τ ⇒ poisoned).

    Attributes:
        tau: Detection threshold in normalized RSS units (§V.B optimum 0.1).
    """

    tau: float = DEFAULT_TAU

    def __post_init__(self):
        # a NaN or infinite τ compares False against every RCE, which
        # would silently switch detection off
        if not np.isfinite(self.tau) or self.tau < 0:
            raise ValueError(f"tau must be finite and >= 0, got {self.tau}")

    def flag(self, rce: np.ndarray) -> np.ndarray:
        """Boolean poison mask: True where RCE strictly exceeds τ."""
        return np.asarray(rce, dtype=np.float64) > self.tau

    def detect(
        self, model: "FusedAutoencoderClassifier", features: np.ndarray
    ) -> np.ndarray:
        """Convenience: compute RCE and flag in one call."""
        return self.flag(reconstruction_errors(model, features))


def calibrate_tau(
    model: "FusedAutoencoderClassifier",
    clean_features: np.ndarray,
    quantile: float = 0.99,
    margin: float = 1.2,
) -> float:
    """Data-driven τ: a high quantile of clean-data RCE with head-room.

    The paper fixes τ = 0.1 after a sweep (Fig. 4); this helper is the
    automated alternative — pick τ just above what clean heterogeneous
    data produces, so device variation passes and perturbations do not.
    """
    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {quantile}")
    if margin < 1.0:
        raise ValueError(f"margin must be >= 1, got {margin}")
    rce = reconstruction_errors(model, clean_features)
    return float(np.quantile(rce, quantile) * margin)

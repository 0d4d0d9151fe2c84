"""SAFELOC — the paper's primary contribution (§IV).

* :mod:`repro.core.fused_network` — the fused autoencoder + classifier
  global model with gradient-frozen (weight-tied) decoder,
* :mod:`repro.core.detection` — reconstruction-error (RCE) computation and
  the τ-threshold backdoor detector,
* :mod:`repro.core.saliency` — the saliency-map aggregation strategy
  (eq. 6-9),
* :mod:`repro.core.safeloc` — the client/server pipeline tying it together
  as a :class:`~repro.fl.interfaces.LocalizationModel` plus strategy.
"""

from repro.core.fused_network import FusedAutoencoderClassifier
from repro.core.detection import (
    ThresholdDetector,
    calibrate_tau,
    reconstruction_errors,
)
from repro.core.saliency import SaliencyAggregation
from repro.core.analysis import (
    DetectionQuality,
    auc,
    detection_quality,
    roc_curve,
)
from repro.core.safeloc import SafeLocModel, make_safeloc

__all__ = [
    "FusedAutoencoderClassifier",
    "ThresholdDetector",
    "reconstruction_errors",
    "calibrate_tau",
    "SaliencyAggregation",
    "SafeLocModel",
    "make_safeloc",
    "DetectionQuality",
    "detection_quality",
    "roc_curve",
    "auc",
]

"""FEDLS leave-one-out detection as one independent autoencoder per fold.

The fold-batched detectors of
:class:`~repro.baselines.fedls.LatentSpaceAggregation` must reproduce
this loop at ≤1e-10 (float64): fold ``k`` of round ``r`` is a fresh
:class:`~repro.baselines.fedls.UpdateAutoencoder` seeded
``seed + 1000·r + k``, fitted on the fold's peer rows and scored on row
``k`` alone.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fedls import UpdateAutoencoder


def serial_loo_errors(strategy, normalized, round_index):
    """Each row's error under its own detector, one fold at a time.

    Peers come from ``strategy._peer_index`` so sampled-peer strategies
    train every fold on the same rows as the batched program.
    """
    n, feature_dim = normalized.shape
    peer_index = strategy._peer_index(n, round_index)
    errors = np.empty(n)
    for fold in range(n):
        detector = UpdateAutoencoder(
            feature_dim,
            epochs=strategy.detector_epochs,
            seed=strategy.seed + 1000 * round_index + fold,
        )
        detector.fit(normalized[peer_index[fold]])
        errors[fold] = detector.reconstruction_errors(
            normalized[fold : fold + 1]
        )[0]
    return errors


def with_serial_detectors(strategy):
    """``strategy`` with its detection swapped for :func:`serial_loo_errors`
    — the full aggregation pipeline over the reference detectors."""
    strategy.leave_one_out_errors = lambda normalized, round_index: (
        serial_loo_errors(strategy, normalized, round_index)
    )
    return strategy

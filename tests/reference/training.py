"""Per-model serial training loops: one network, one mini-batch at a time.

Every model trains in production through its fold program
(:meth:`~repro.fl.interfaces.LocalizationModel.fold_batch_program`),
whether the cohort holds one fold or many.  These loops are what the
programs must reproduce bit for bit at float64 — weights, the returned
final-epoch loss and ``last_flagged_count``:

* :func:`classifier_train_epochs` — fresh Adam + sparse cross-entropy
  over shuffled batches (the DNN baselines, ONLAD's localizer);
* :func:`safeloc_train_epochs` — SAFELOC's §IV.A client pipeline: RCE
  screen and de-noise, then the joint MSE + cross-entropy step with
  flagged rows zeroed out of the reconstruction gradient; trusted
  (server-held) data skips the screen and trains as a de-noising
  autoencoder on corrupted inputs;
* :func:`onlad_train_epochs` — ONLAD's detector flag, then the localizer
  and the detector autoencoder in turn, one rng running through both.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import iterate_batches
from repro.nn import Adam, MSELoss, SparseCrossEntropyLoss


def classifier_train_epochs(network, dataset, epochs, lr, rng, batch_size=32):
    """Train a classifier ``Sequential`` in place; final epoch's mean loss."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    loss = SparseCrossEntropyLoss()
    optimizer = Adam(network.trainable_parameters(), lr=lr)
    final = 0.0
    for _ in range(epochs):
        losses = []
        for features, labels in iterate_batches(dataset, batch_size, rng):
            network.zero_grad()
            loss_value = loss(network.forward(features), labels)
            network.backward(loss.backward())
            optimizer.step()
            losses.append(loss_value)
        final = float(np.mean(losses))
    return final


def safeloc_train_epochs(
    model, dataset, epochs, lr, rng, batch_size=32, trusted=False
):
    """Train a :class:`~repro.core.safeloc.SafeLocModel` in place."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if model.denoise_training_data and not trusted:
        screened, flagged = model._screen_training_data(dataset)
        if screened is None:
            return 0.0  # nothing trustworthy: skip the update
        dataset = screened
    else:
        flagged = np.zeros(len(dataset), dtype=bool)
        model.last_flagged_count = 0
    network = model.network
    mse_loss = MSELoss()
    ce_loss = SparseCrossEntropyLoss()
    optimizer = Adam(network.trainable_parameters(), lr=lr)
    n = len(dataset)
    final = 0.0
    for _ in range(epochs):
        losses = []
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            features = dataset.features[idx]
            labels = dataset.labels[idx]
            inputs = features
            if trusted:
                inputs = model._corrupt(features, rng)
            network.zero_grad()
            latent = network.encode(inputs)
            reconstruction = network.decode(latent)
            logits = network.classify_latent(latent)
            # de-noising objective: reconstruct the CLEAN fingerprint
            mse = mse_loss(reconstruction, features)
            ce = ce_loss(logits, labels)
            grad_recon = model.recon_weight * mse_loss.backward()
            # flagged rows were replaced by reconstructions: only the
            # classification branch learns from them
            grad_recon[flagged[idx]] = 0.0
            network.joint_backward(grad_recon, ce_loss.backward())
            optimizer.step()
            losses.append(ce + model.recon_weight * mse)
        final = float(np.mean(losses))
    return final


def onlad_train_epochs(
    model, dataset, epochs, lr, rng, batch_size=32, trusted=False
):
    """Train an :class:`~repro.baselines.onlad.OnDeviceAnomalyModel` in
    place: the localizer's loss is the one returned."""
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if trusted:
        flagged = np.zeros(len(dataset), dtype=bool)
    else:
        flagged = model.flag(dataset.features)
    model.last_flagged_count = int(flagged.sum())
    kept = dataset.subset(np.flatnonzero(~flagged))
    if len(kept) == 0:
        # everything flagged: skip the local update entirely
        return 0.0
    loss = classifier_train_epochs(
        model.localizer.network, kept, epochs, lr, rng, batch_size
    )
    mse = MSELoss()
    optimizer = Adam(model.detector.trainable_parameters(), lr=lr)
    for _ in range(epochs):
        for features, _ in iterate_batches(kept, batch_size, rng):
            model.detector.zero_grad()
            mse(model.detector.forward(features), features)
            model.detector.backward(mse.backward())
            optimizer.step()
    return loss

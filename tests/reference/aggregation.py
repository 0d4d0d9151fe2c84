"""Per-key aggregation rules written straight from their definitions.

Each function takes the GM state dict and the round's
:class:`~repro.fl.aggregation.ClientUpdate` list and returns the new GM
as a dict, looping over tensors with plain NumPy — the reference the
packed ``(n_clients, n_params)`` strategies must match within 1e-10.
FedAvg needs no entry here: :func:`repro.fl.state.state_weighted_mean`
already is its reference.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fedcc import k_means
from repro.fl.state import (
    flatten_state,
    state_distance,
    state_sub,
    state_weighted_mean,
)


def _stack(updates, key):
    return np.stack([u.state[key] for u in updates])


def coordinate_median(gm, updates):
    return {key: np.median(_stack(updates, key), axis=0) for key in gm}


def trimmed_mean(gm, updates, trim=1):
    n = len(updates)
    trim = min(trim, (n - 1) // 2)
    return {
        key: np.sort(_stack(updates, key), axis=0)[trim : n - trim].mean(
            axis=0
        )
        for key in gm
    }


def norm_clipping(gm, updates, clip_norm=None):
    deltas = [state_sub(u.state, gm) for u in updates]
    norms = [
        np.sqrt(sum(float((v**2).sum()) for v in d.values())) for d in deltas
    ]
    budget = clip_norm if clip_norm is not None else np.median(norms) + 1e-12
    scales = [min(1.0, budget / (norm + 1e-12)) for norm in norms]
    return {
        key: gm[key] + np.mean([s * d[key] for s, d in zip(scales, deltas)], 0)
        for key in gm
    }


# -- SAFELOC saliency aggregation, eq. 6-9 ------------------------------
def deviation_matrix(lm, gm):
    """Eq. 6: ``ΔW = |W_LM − W_GM|`` per tensor."""
    return {key: np.abs(lm[key] - gm[key]) for key in lm}


def saliency_matrix(deviation, sharpness=1.0):
    """Eq. 7, absolute form: ``S = 1 / (1 + k·ΔW)``."""
    return {key: 1.0 / (1.0 + sharpness * d) for key, d in deviation.items()}


def relative_saliency_matrices(deviations, tolerance=2.0, power=4.0):
    """Eq. 7, scale-free form: ``S = 1 / (1 + (ΔW / (c·median))^p)``
    with the median taken across clients per element."""
    out = [{} for _ in deviations]
    for key in deviations[0]:
        stack = np.stack([dev[key] for dev in deviations])
        relative = stack / (tolerance * np.median(stack, axis=0) + 1e-12)
        with np.errstate(over="ignore"):
            saliency = 1.0 / (1.0 + relative**power)
        for index, sal in enumerate(saliency):
            out[index][key] = sal
    return out


def adjust_weights(lm, gm, saliency, adjustment="blend"):
    """Eq. 8: ``blend`` is ``W_GM + S∘(W_LM − W_GM)``, ``scale`` is
    ``S∘W_LM``."""
    if adjustment == "scale":
        return {key: saliency[key] * lm[key] for key in lm}
    return {key: gm[key] + saliency[key] * (lm[key] - gm[key]) for key in lm}


def saliency(
    gm,
    updates,
    server_mixing=1.0,
    mode="relative",
    sharpness=1.0,
    tolerance=1.2,
    power=8.0,
    adjustment="blend",
):
    """Eq. 6-9 with the convex server step ``(1−η)·W_GM + η·mean(W_adj)``."""
    deviations = [deviation_matrix(u.state, gm) for u in updates]
    if mode == "relative":
        saliencies = relative_saliency_matrices(deviations, tolerance, power)
    else:
        saliencies = [saliency_matrix(dev, sharpness) for dev in deviations]
    adjusted = [
        adjust_weights(u.state, gm, sal, adjustment)
        for u, sal in zip(updates, saliencies)
    ]
    eta = server_mixing
    return {
        key: (1.0 - eta) * gm[key]
        + eta * np.mean([adj[key] for adj in adjusted], axis=0)
        for key in gm
    }


# -- KRUM ---------------------------------------------------------------
def krum_scores(updates, num_byzantine=1):
    """Sum of squared distances to the ``n − f − 2`` nearest peers."""
    n = len(updates)
    closest = max(1, n - num_byzantine - 2)
    scores = []
    for i in range(n):
        dists = sorted(
            state_distance(updates[i].state, updates[j].state) ** 2
            for j in range(n)
            if j != i
        )
        scores.append(sum(dists[:closest]))
    return np.asarray(scores)


def krum(gm, updates, num_byzantine=1):
    chosen = updates[0]
    if len(updates) > 1:
        chosen = updates[int(np.argmin(krum_scores(updates, num_byzantine)))]
    return {key: value.copy() for key, value in chosen.state.items()}


# -- FEDCC --------------------------------------------------------------
def fedcc(gm, updates, num_clusters=3, seed=0):
    """FedAvg of the largest k-means cluster of flattened LM deltas; a
    size tie goes to the cluster whose mean delta is smallest."""
    if len(updates) == 1:
        return {key: value.copy() for key, value in updates[0].state.items()}
    vectors = np.stack(
        [flatten_state(state_sub(u.state, gm))[0] for u in updates]
    )
    assignment = k_means(vectors, num_clusters, np.random.default_rng(seed))
    counts = np.bincount(assignment)
    candidates = np.flatnonzero(counts == counts.max())
    keep = min(
        candidates,
        key=lambda c: np.linalg.norm(vectors[assignment == c].mean(axis=0)),
    )
    kept = [u for u, c in zip(updates, assignment) if c == keep]
    return state_weighted_mean(
        [u.state for u in kept], [max(1, u.num_samples) for u in kept]
    )

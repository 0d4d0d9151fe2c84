"""Algebra over model state dicts (name → weight tensor).

Aggregation strategies manipulate whole models as vectors; these helpers
implement that vector algebra while preserving the named-tensor structure
the saliency-map aggregation needs (it works per weight tensor, eq. 6-8).

The flat layout behind :func:`flatten_state` is cached per model
architecture (see :mod:`repro.fl.packed`), and the cohort reductions
(:func:`state_mean`, :func:`state_weighted_mean`) run as one pack + one
matrix reduction instead of per-key Python loops over per-client
temporaries.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.fl.packed import PackLayout
from repro.nn.dtype import default_dtype

StateDict = Dict[str, np.ndarray]


def state_signature(state: StateDict) -> str:
    """Stable hash of a state dict's names, shapes, dtypes and raw bytes.

    The sweep engine keys pre-train artifacts on the *initial* model
    weights with it, so two factory configurations that build
    bit-identical models share one pre-train.
    """
    digest = hashlib.sha256()
    for name in sorted(state):
        tensor = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(str(tensor.shape).encode())
        digest.update(str(tensor.dtype).encode())
        digest.update(tensor.tobytes())
    return digest.hexdigest()[:16]


def _check_same_keys(states: Sequence[StateDict]) -> None:
    if not states:
        raise ValueError("need at least one state dict")
    keys = set(states[0])
    for idx, state in enumerate(states[1:], start=1):
        if set(state) != keys:
            raise ValueError(
                f"state {idx} keys differ: "
                f"{sorted(keys ^ set(state))}"
            )


def state_zeros_like(state: StateDict) -> StateDict:
    """A state dict of zeros with the same structure."""
    return {k: np.zeros_like(v) for k, v in state.items()}


def state_add(a: StateDict, b: StateDict) -> StateDict:
    """Elementwise ``a + b``."""
    _check_same_keys([a, b])
    return {k: a[k] + b[k] for k in a}


def state_sub(a: StateDict, b: StateDict) -> StateDict:
    """Elementwise ``a - b``."""
    _check_same_keys([a, b])
    return {k: a[k] - b[k] for k in a}


def state_scale(state: StateDict, factor: float) -> StateDict:
    """Elementwise ``factor * state``."""
    return {k: factor * v for k, v in state.items()}


def state_mean(states: Sequence[StateDict]) -> StateDict:
    """Unweighted elementwise mean of several states.

    Packs the cohort into one ``(n, p)`` matrix and reduces along axis 0
    — no per-key temporaries.
    """
    _check_same_keys(states)
    layout = PackLayout.for_state(states[0])
    return layout.unflatten(layout.pack(states).mean(axis=0))


def state_weighted_mean(
    states: Sequence[StateDict], weights: Sequence[float]
) -> StateDict:
    """Weighted elementwise mean (FedAvg with sample-count weights).

    One pack + one ``weights @ matrix`` matvec replaces the Python-level
    ``sum()`` of per-client scaled copies.
    """
    _check_same_keys(states)
    if len(states) != len(weights):
        raise ValueError(f"{len(states)} states but {len(weights)} weights")
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total == 0:
        raise ValueError("weights sum to zero")
    weights = weights / total
    layout = PackLayout.for_state(states[0])
    matrix = layout.pack(states)
    return layout.unflatten(weights.astype(matrix.dtype) @ matrix)


def flatten_state(state: StateDict) -> Tuple[np.ndarray, List[Tuple[str, tuple]]]:
    """Concatenate all tensors into one vector.

    Returns the vector and a spec (ordered name/shape list) that
    :func:`unflatten_state` uses to rebuild the dict.  Keys are sorted so
    the layout is canonical regardless of insertion order; the spec is
    cached per architecture, so repeated calls over the same model skip
    the spec rebuild.
    """
    layout = PackLayout.for_state(state)
    # fresh list: the layout (and its spec) are cached per architecture,
    # so callers must not receive a mutable view of the cache
    return layout.flatten(state), list(layout.spec)


def unflatten_state(vector: np.ndarray, spec: List[Tuple[str, tuple]]) -> StateDict:
    """Inverse of :func:`flatten_state`."""
    vector = np.asarray(vector, dtype=default_dtype())
    expected = sum(int(np.prod(shape)) for _, shape in spec)
    if vector.size != expected:
        raise ValueError(
            f"vector has {vector.size} elements but spec needs {expected}"
        )
    out: StateDict = {}
    offset = 0
    for name, shape in spec:
        size = int(np.prod(shape))
        out[name] = vector[offset : offset + size].reshape(shape).copy()
        offset += size
    return out


def state_norm(state: StateDict) -> float:
    """Global L2 norm across all tensors."""
    return float(np.sqrt(sum(float((v**2).sum()) for v in state.values())))


def state_distance(a: StateDict, b: StateDict) -> float:
    """L2 distance between two states (Krum's pairwise metric)."""
    return state_norm(state_sub(a, b))


def state_cosine_similarity(a: StateDict, b: StateDict) -> float:
    """Cosine similarity of the flattened states (FEDCC/FEDHIL metric).

    Accumulates the dot product and norms tensor by tensor, so neither
    state is materialized as a concatenated vector.
    """
    _check_same_keys([a, b])
    dot = norm_a = norm_b = 0.0
    for key in a:
        va = np.asarray(a[key]).ravel()
        vb = np.asarray(b[key]).ravel()
        dot += float(va @ vb)
        norm_a += float(va @ va)
        norm_b += float(vb @ vb)
    denom = np.sqrt(norm_a) * np.sqrt(norm_b)
    if denom == 0:
        return 0.0
    return float(dot / denom)

"""Configurable compute dtype for the numpy substrate.

Every tensor-producing path in the substrate (layer forward/backward,
weight init, state algebra, packed aggregation) asks this module which
float width to materialize arrays in.  The default is float64 — the
bit-for-bit reference precision every equivalence test pins — but
memory-bandwidth-bound workloads (large federations, the Fig. 7 sweeps)
can run the whole stack at float32 for roughly half the traffic:

    with compute_dtype(np.float32):
        server.run_rounds(10)

The setting is process-global, mirroring ``torch.set_default_dtype``;
the context manager restores the previous width on exit so tests can
scope a half-width region without leaking it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Literal, get_args

import numpy as np

#: Widths the substrate supports, by name; float16 accumulates too much
#: error in the optimizers to be useful on this workload.
ComputeDtype = Literal["float32", "float64"]

_default_dtype = np.float64


def _validate(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in map(np.dtype, get_args(ComputeDtype)):
        raise ValueError(
            f"unsupported compute dtype {dtype!r}; "
            f"choices: {list(get_args(ComputeDtype))}"
        )
    return resolved.type


def default_dtype():
    """The current compute dtype (float64 unless overridden)."""
    return _default_dtype


def set_default_dtype(dtype):
    """Set the process-global compute dtype, returning the previous one."""
    global _default_dtype
    previous = _default_dtype
    _default_dtype = _validate(dtype)
    return previous


@contextmanager
def compute_dtype(dtype):
    """Scope a compute dtype: ``with compute_dtype(np.float32): ...``."""
    previous = set_default_dtype(dtype)
    try:
        yield
    finally:
        set_default_dtype(previous)


def as_compute(x: np.ndarray) -> np.ndarray:
    """``np.asarray`` at the current compute dtype (no copy when it matches)."""
    return np.asarray(x, dtype=_default_dtype)

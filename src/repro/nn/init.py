"""Weight initialization for the numpy substrate.

The initializer takes an explicit ``numpy.random.Generator`` so every model
build in the reproduction is seedable end to end (the experiment presets pin
seeds for the benches).  Draws happen at float64 (so a given seed produces
the same weights regardless of compute width) and are cast to the compute
dtype on the way out.
"""

from __future__ import annotations

import numpy as np

from repro.nn.dtype import default_dtype


def glorot_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator
) -> np.ndarray:
    """Glorot/Xavier uniform initialization — the init of every dense layer."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    draw = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return draw.astype(default_dtype(), copy=False)

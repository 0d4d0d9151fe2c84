"""Deterministic random-number management.

Every stochastic component in the reproduction (weight init, propagation
shadowing, device noise, dropout, attack perturbations, client sampling)
draws from a generator spawned off one root seed, so experiments are
bit-reproducible given the preset seed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator

import numpy as np


def spawn_rng(seed: int, stream: str = "") -> np.random.Generator:
    """Create an independent generator for ``(seed, stream)``.

    The stream label is hashed into the seed sequence so differently named
    components never share a stream even under the same root seed.
    """
    entropy = [seed]
    if stream:
        entropy.extend(ord(ch) for ch in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy))


class SeedSequence:
    """Hands out named, reproducible generators from one root seed.

    Example:
        >>> seeds = SeedSequence(42)
        >>> rng_a = seeds.rng("model-init")
        >>> rng_b = seeds.rng("device-noise")

    Repeated requests for the same stream return fresh generators with the
    same state, which lets tests re-create a component's randomness.
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._issued: Dict[str, int] = {}

    def rng(self, stream: str) -> np.random.Generator:
        """Generator deterministically derived from root seed and stream."""
        return spawn_rng(self.root_seed, stream)

    def child(self, label: str) -> "SeedSequence":
        """A derived SeedSequence, e.g. one per FL client."""
        derived = int(
            np.random.SeedSequence(
                [self.root_seed] + [ord(ch) for ch in label]
            ).generate_state(1)[0]
        )
        return SeedSequence(derived)


# -- deterministic fallback for components built without an explicit rng ----
#
# np.random.default_rng() with no seed draws OS entropy, so a Linear built
# without an rng silently made the whole federation run unreproducible.
# The fallback below replaces that: generators are spawned off a
# process-global root seed with an incrementing per-call stream, so
# (a) two components built in sequence still get independent streams, and
# (b) re-running the same construction order reproduces the same weights
# bit for bit.

_FALLBACK_ROOT_SEED = 0
_FALLBACK_COUNTER: Iterator[int] = itertools.count()


def fallback_rng(component: str = "component") -> np.random.Generator:
    """A deterministic generator for a component built without an rng.

    Each call returns a fresh, independent stream derived from the
    process-global fallback seed and a call counter — reproducible by
    construction, never shared between components.
    """
    return spawn_rng(
        _FALLBACK_ROOT_SEED, f"{component}/fallback-{next(_FALLBACK_COUNTER)}"
    )


def seed_fallback_rng(seed: int = 0) -> None:
    """Reset the fallback stream (root seed and call counter).

    Call at the top of a script/test to make subsequent rng-less component
    construction reproduce exactly.
    """
    global _FALLBACK_ROOT_SEED, _FALLBACK_COUNTER
    _FALLBACK_ROOT_SEED = int(seed)
    _FALLBACK_COUNTER = itertools.count()

"""The Adam optimizer of the numpy substrate.

The paper trains both the autoencoder and the classification head with Adam
(lr 0.001 server-side, 0.0001 client-side).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.nn.module import Parameter

#: Elements per tile of :meth:`Adam.step`.  Six float64 tiles (param,
#: grad, both moments, two scratch) take 1.5 MB together, so a tile's
#: fourteen elementwise passes run out of a 2 MB per-core L2 instead of
#: streaming whole fold stacks through DRAM once per pass.
ADAM_TILE = 32_768


def _flat(array: np.ndarray) -> np.ndarray:
    """1-D view of ``array``; refuses layouts a reshape would copy."""
    if not array.flags.c_contiguous:
        raise ValueError(
            f"Adam steps tensors in place through flat views; got a "
            f"non-contiguous {array.shape} array"
        )
    return array.reshape(-1)


def _tiles(
    param: Parameter, m: np.ndarray, v: np.ndarray
) -> Iterator[Tuple[np.ndarray, ...]]:
    """``(param, grad, m, v)`` views over at most :data:`ADAM_TILE`
    elements each, covering the live ``param.data`` in order."""
    data, grad = param.data, param.grad
    if data.size <= ADAM_TILE:
        yield data, grad, m, v
        return
    flats = [_flat(array) for array in (data, grad, m, v)]
    for start in range(0, data.size, ADAM_TILE):
        yield tuple(flat[start : start + ADAM_TILE] for flat in flats)


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.parameters: List[Parameter] = [
            p for p in parameters if isinstance(p, Parameter)
        ]
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        # C-ordered whatever the parameter's layout, so flat tiles are views
        self._m = [np.zeros(p.shape, p.data.dtype) for p in self.parameters]
        self._v = [np.zeros(p.shape, p.data.dtype) for p in self.parameters]
        # two flat scratch tiles per dtype, shared by every parameter
        self._scratch: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}
        self._t = 0

    def _workspace(self, tile: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays shaped like ``tile``, at its dtype."""
        pair = self._scratch.get(tile.dtype)
        if pair is None:
            width = min(
                ADAM_TILE, max(p.data.size for p in self.parameters)
            )
            pair = (np.empty(width, tile.dtype), np.empty(width, tile.dtype))
            self._scratch[tile.dtype] = pair
        buf, num = pair
        return (
            buf[: tile.size].reshape(tile.shape),
            num[: tile.size].reshape(tile.shape),
        )

    def step(self) -> None:
        # In place and tile by tile: the textbook expression allocates ~7
        # full-size temporaries per tensor per step, and even in place a
        # fold-stacked (n_folds, …) tensor streams through DRAM once per
        # pass.  Each ADAM_TILE slice instead runs all fourteen passes
        # while it sits in cache.  Every element sees the textbook
        # expression's operations in its rounding order, so trajectories
        # are bit-identical to it (tests/reference/adam.py).
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for param, m_full, v_full in zip(self.parameters, self._m, self._v):
            if not param.trainable:
                continue
            for data, grad, m, v in _tiles(param, m_full, v_full):
                if self.weight_decay:
                    grad = grad + self.weight_decay * data
                buf, num = self._workspace(data)
                m *= self.beta1
                np.multiply(grad, 1.0 - self.beta1, out=buf)
                m += buf
                v *= self.beta2
                np.multiply(grad, grad, out=buf)
                buf *= 1.0 - self.beta2
                v += buf
                np.divide(v, bias2, out=buf)  # v_hat
                np.sqrt(buf, out=buf)
                buf += self.eps
                np.divide(m, bias1, out=num)  # m_hat
                num *= self.lr
                num /= buf
                data -= num

"""The Adam optimizer of the numpy substrate.

The paper trains both the autoencoder and the classification head with Adam
(lr 0.001 server-side, 0.0001 client-side).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Parameter

#: Elements per tile of :meth:`Adam.step`.  Six float64 tiles (param,
#: grad, both moments, two scratch) take 1.5 MB together, so a tile's
#: fourteen elementwise passes run out of a 2 MB per-core L2 instead of
#: streaming whole fold stacks through DRAM once per pass.
ADAM_TILE = 32_768


def _tiled_region(arrays: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The 1-D region of one buffer that ``arrays`` tile back to back, in
    order, or ``None`` when they do not (then Adam gathers them)."""
    base = arrays[0].base
    if not isinstance(base, np.ndarray) or not base.flags.c_contiguous:
        return None
    flat = base.reshape(-1)
    itemsize = flat.itemsize
    offset, rest = divmod(arrays[0].ctypes.data - flat.ctypes.data, itemsize)
    end = offset
    for array in arrays:
        if (
            array.base is not base
            or array.dtype != flat.dtype
            or not array.flags.c_contiguous
            or array.ctypes.data != flat.ctypes.data + end * itemsize
        ):
            return None
        end += array.size
    return None if rest else flat[offset:end]


def flat_views(flat: np.ndarray, shapes: Sequence[tuple]) -> List[np.ndarray]:
    """Consecutive views of ``flat``, one per shape."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape, dtype=np.int64))
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    **One buffer.**  The optimizer steps one flat data buffer, with one
    flat gradient buffer and one per moment beside it.  Parameters that
    already tile one buffer back to back (a
    :func:`~repro.nn.batched.fold_stack`) are stepped in place, and no
    data is copied.  Otherwise the constructor gathers the parameters
    into a new buffer and points every ``Parameter.data`` at its view.
    Every ``Parameter.grad`` likewise becomes a view of the gradient
    buffer (existing gradients are copied in).  A parameter whose
    ``data`` or ``grad`` is later rebound to another array is taken back
    into the buffers at the next :meth:`step`.  :meth:`zero_grad` zeroes
    every gradient with one ``fill``.
    """

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
        if len({id(p) for p in self.parameters}) != len(self.parameters):
            raise ValueError("optimizer received a parameter twice")
        dtypes = {p.data.dtype for p in self.parameters}
        if len(dtypes) != 1:
            raise ValueError(
                f"optimizer steps one dtype, got {sorted(map(str, dtypes))}"
            )
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

        (dtype,) = dtypes
        shapes = [p.shape for p in self.parameters]
        total = sum(p.size for p in self.parameters)
        self._data = _tiled_region([p.data for p in self.parameters])
        if self._data is None:
            self._data = np.empty(total, dtype)
            self._datas = flat_views(self._data, shapes)  # filled by _claim
        else:
            self._datas = [p.data for p in self.parameters]
        # gradient and both moments share one allocation and one lifetime
        self._grad, m, v = np.zeros((3, total), dtype)
        self._grads = flat_views(self._grad, shapes)
        # per-parameter views of the moment buffers
        self._m, self._v = flat_views(m, shapes), flat_views(v, shapes)
        width = min(ADAM_TILE, total)
        self._scratch: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {
            dtype: (np.empty(width, dtype), np.empty(width, dtype))
        }
        self._flats = (self._data, self._grad, m, v)
        for param, grad in zip(self.parameters, self._grads):
            if param.has_grad:
                grad[...] = param.grad
            param.grad = grad  # already zero otherwise: no pass over it
        self._mask: Tuple[bool, ...] = ()
        self._tiles: List[Tuple[np.ndarray, ...]] = []
        self._claim()
        self._t = 0

    def _claim(self) -> None:
        """Take rebound parameters back into the buffers, and re-tile
        when a parameter's ``trainable`` flag changed."""
        mask = []
        views = zip(self.parameters, self._datas, self._grads)
        for param, data, grad in views:
            if param.data is not data:
                if param.data.shape != data.shape:
                    raise ValueError(
                        f"parameter {param.name or '<unnamed>'} was rebound "
                        f"to shape {param.data.shape}, expected {data.shape}"
                    )
                data[...] = param.data
                param.data = data
            if param._grad is not grad:
                if param._grad is None:
                    grad.fill(0.0)
                else:
                    grad[...] = param._grad
                param.grad = grad
            mask.append(param.trainable)
        if tuple(mask) != self._mask:
            self._mask = tuple(mask)
            self._tiles = self._tile(self._mask)

    def _tile(self, mask: Sequence[bool]) -> List[Tuple[np.ndarray, ...]]:
        """``(data, grad, m, v, buf, num)`` views of at most
        :data:`ADAM_TILE` elements, covering every trainable parameter."""
        runs: List[List[int]] = []  # [start, stop) of trainable stretches
        start = 0
        for param, trainable in zip(self.parameters, mask):
            stop = start + param.size
            if trainable and runs and runs[-1][1] == start:
                runs[-1][1] = stop
            elif trainable:
                runs.append([start, stop])
            start = stop
        [(buf, num)] = self._scratch.values()
        tiles = []
        for run_start, run_stop in runs:
            for lo in range(run_start, run_stop, ADAM_TILE):
                hi = min(lo + ADAM_TILE, run_stop)
                tiles.append(
                    tuple(flat[lo:hi] for flat in self._flats)
                    + (buf[: hi - lo], num[: hi - lo])
                )
        return tiles

    def zero_grad(self) -> None:
        """Zero every parameter's gradient: one ``fill`` of the buffer.

        A gradient rebound since the last step is pointed back at its
        view, so the next backward accumulates into the zeroed buffer.
        """
        self._grad.fill(0.0)
        for param, grad in zip(self.parameters, self._grads):
            if param._grad is not grad:
                param.grad = grad

    def step(self) -> None:
        # In place and tile by tile over the flat buffers: the textbook
        # expression allocates ~7 full-size temporaries per tensor per
        # step, and even in place a fold-stacked (n_folds, …) tensor
        # streams through DRAM once per pass.  Each ADAM_TILE slice
        # instead runs all fourteen passes while it sits in cache.  Every
        # element sees the textbook expression's operations in its
        # rounding order, so trajectories are bit-identical to it
        # (tests/reference/adam.py).  Once 1 − β**t rounds to exactly
        # 1.0 (β1 = 0.9: from t = 356 on), dividing by it returns the
        # dividend bit for bit, so that divide is skipped.
        self._claim()
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for data, grad, m, v, buf, num in self._tiles:
            if self.weight_decay:
                grad = grad + self.weight_decay * data
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            m += buf
            v *= self.beta2
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - self.beta2
            v += buf
            if bias2 == 1.0:
                np.sqrt(v, out=buf)
            else:
                np.divide(v, bias2, out=buf)  # v_hat
                np.sqrt(buf, out=buf)
            buf += self.eps
            if bias1 == 1.0:
                np.multiply(m, self.lr, out=num)
            else:
                np.divide(m, bias1, out=num)  # m_hat
                num *= self.lr
            num /= buf
            data -= num

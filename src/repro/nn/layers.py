"""Dense layers and the ReLU activation with analytic forward/backward passes.

Every layer is rank-generic: a weight is ``(in, out)`` for one network
or ``(n_folds, in, out)`` for a fold stack (see
:func:`repro.nn.batched.fold_stack`), and the same expressions run both.
``np.matmul`` on a 3-D stack runs one GEMM per fold, the bias add and
the reductions stay inside each fold, so a stacked call reproduces the
per-fold 2-D calls bit for bit.

``backward(grad, input_grad=False)`` accumulates the parameter
gradients and skips the input gradient: a training step never reads
the gradient of its input batch (``grad @ W.T`` at the first layer).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.dtype import default_dtype
from repro.nn.init import glorot_uniform
from repro.nn.module import Module, Parameter
from repro.utils.rng import fallback_rng


def _as_input(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``x`` as a ``(batch, features)`` batch for a 2-D weight or a
    ``(n_folds, batch, features)`` stack for a 3-D one.  A single
    sample is promoted to a 1-row batch when the weight is 2-D."""
    x = np.asarray(x, dtype=default_dtype())
    if x.ndim == 1 and weight.ndim == 2:
        return x[None, :]
    if x.ndim != weight.ndim:
        raise ValueError(
            f"a {weight.ndim}-D weight takes {weight.ndim}-D input, "
            f"got shape {x.shape}"
        )
    if x.ndim == 3 and x.shape[0] != weight.shape[0]:
        raise ValueError(
            f"input carries {x.shape[0]} folds, layer has {weight.shape[0]}"
        )
    return x


class Linear(Module):
    """Fully connected layer: ``y = x @ W + b``.

    Weights are ``(in_features, out_features)`` (``(n_folds, in, out)``
    inside a fold stack); the layer caches its input during forward so
    backward can form the weight gradient.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"layer dims must be positive, got ({in_features}, {out_features})"
            )
        # no silent OS-entropy fallback: an omitted rng routes through the
        # deterministic fallback stream so runs reproduce by construction
        rng = rng if rng is not None else fallback_rng("linear")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            glorot_uniform(in_features, out_features, rng), "weight"
        )
        self.bias = Parameter(np.zeros(out_features), "bias")
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_input(x, self.weight.data)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected {self.in_features} features, got {x.shape[-1]}"
            )
        self._input = x
        return x @ self.weight.data + self.bias.data[..., None, :]

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = _as_input(grad_output, self.weight.data)
        if self.weight.trainable:
            self.weight.grad += self._input.swapaxes(-1, -2) @ grad_output
        if self.bias.trainable:
            self.bias.grad += grad_output.sum(axis=-2)
        if not input_grad:
            return None
        return grad_output @ self.weight.data.swapaxes(-1, -2)


class TiedLinear(Module):
    """Dense layer whose weight is the transpose of a source ``Linear``.

    Implements the fused network's decoder construction from SAFELOC §IV.A:
    the decoder mirrors the encoder "but in reverse", with no decoder
    weight matrices of its own — each decoder layer shares its encoder
    twin's weight (transposed) and owns only a bias.  This is what keeps
    the fused model's Table I parameter count far below a free decoder.
    The paper's "freeze the gradients from the encoder and propagate them
    to their corresponding layers in the decoder" maps to the shared
    tensor: by default the decoder path's weight gradient flows into the
    encoder twin (classic tied autoencoder); pass ``train_weight=False``
    for a hard-frozen view that trains only the bias.  The layer reads the
    source's weight on every call, so inside a fold stack it runs against
    the stacked encoder weight and its gradient accumulates there.
    """

    def __init__(self, source: Linear, train_weight: bool = True):
        super().__init__()
        if not isinstance(source, Linear):
            raise TypeError("TiedLinear requires a Linear source layer")
        self.source = source  # NOTE: registered as a submodule but its
        # parameters are reported by the encoder; we expose only the bias.
        self._modules.pop("source", None)  # avoid double-counting parameters
        object.__setattr__(self, "source", source)
        self.train_weight = bool(train_weight)
        self.in_features = source.out_features
        self.out_features = source.in_features
        self.bias = Parameter(np.zeros(self.out_features), "bias")
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight = self.source.weight.data
        x = _as_input(x, weight)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"TiedLinear expected {self.in_features} features, "
                f"got {x.shape[-1]}"
            )
        self._input = x
        return x @ weight.swapaxes(-1, -2) + self.bias.data[..., None, :]

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        weight = self.source.weight
        grad_output = _as_input(grad_output, weight.data)
        if self.train_weight and weight.trainable:
            # y = x W^T  ⇒  dL/dW = g^T x (accumulated into the shared tensor)
            weight.grad += grad_output.swapaxes(-1, -2) @ self._input
        if self.bias.trainable:
            self.bias.grad += grad_output.sum(axis=-2)
        if not input_grad:
            return None
        return grad_output @ weight.data


class ReLU(Module):
    """Rectified linear activation."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=default_dtype())
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> Optional[np.ndarray]:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        if not input_grad:
            return None
        return np.where(self._mask, grad_output, 0.0)

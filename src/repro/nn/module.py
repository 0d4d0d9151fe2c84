"""Module/parameter machinery for the numpy neural-network substrate.

A :class:`Module` is a node in a computation pipeline with an explicit
``forward`` and ``backward``.  ``backward`` receives the gradient of the loss
with respect to the module output and must (a) accumulate parameter
gradients and (b) return the gradient with respect to the module input.
This mirrors the contract of autograd frameworks closely enough that the
poisoning attacks (which need input gradients) and federated aggregation
(which needs named weight tensors) behave as they would under PyTorch.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.nn.dtype import default_dtype


class Parameter:
    """A named trainable tensor with an accumulated gradient.

    Attributes:
        name: Dotted path assigned when the owning module tree is built
            (e.g. ``"encoder.0.weight"``).
        data: The parameter value, a numpy array at the compute dtype
            (float64 unless :func:`repro.nn.dtype.set_default_dtype`
            lowered it).
        grad: Accumulated gradient of the same shape, zeroed by
            :meth:`zero_grad`.
        trainable: When False, optimizers skip the parameter and
            ``backward`` leaves ``grad`` untouched (used for frozen/tied
            weights in the fused network's decoder).
    """

    def __init__(self, data: np.ndarray, name: str = "", trainable: bool = True):
        self.data = np.asarray(data, dtype=default_dtype())
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.trainable = trainable

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = "" if self.trainable else ", frozen"
        return f"Parameter({self.name or '<unnamed>'}, shape={self.data.shape}{flag})"


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward` and :meth:`backward` and register
    parameters/submodules as attributes; registration is automatic via
    ``__setattr__`` the same way PyTorch does it.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    # -- attribute-based registration ------------------------------------
    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # -- forward / backward ----------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # -- parameter traversal ----------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple]:
        """Yield ``(dotted_name, Parameter)`` pairs in registration order."""
        for key, param in self._parameters.items():
            yield (f"{prefix}{key}", param)
        for key, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> List[Parameter]:
        """All parameters in the module tree (including frozen ones)."""
        return [p for _, p in self.named_parameters()]

    def trainable_parameters(self) -> List[Parameter]:
        return [p for p in self.parameters() if p.trainable]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def parameter_count(self, trainable_only: bool = False) -> int:
        """Total scalar parameter count, the paper's Table I metric."""
        params = self.trainable_parameters() if trainable_only else self.parameters()
        return sum(p.size for p in params)

    # -- state dicts --------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every named parameter tensor."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load tensors produced by :meth:`state_dict` back into the module.

        Args:
            state: Mapping of dotted parameter names to arrays.
            strict: When True, missing or unexpected keys raise ``KeyError``
                and shape mismatches raise ``ValueError``.
        """
        own = dict(self.named_parameters())
        if strict:
            missing = sorted(set(own) - set(state))
            unexpected = sorted(set(state) - set(own))
            if missing or unexpected:
                raise KeyError(
                    f"state mismatch: missing={missing}, unexpected={unexpected}"
                )
        for name, param in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=default_dtype())
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"expected {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()

    def gradient_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every accumulated parameter gradient, by dotted name."""
        return {name: p.grad.copy() for name, p in self.named_parameters()}

    # -- input gradients (attack support) -----------------------------------
    def input_gradient(self, grad_output: np.ndarray) -> np.ndarray:
        """Gradient of the loss w.r.t. the module input.

        Convenience wrapper over :meth:`backward` that restores parameter
        gradients afterwards, so attack code can probe input gradients
        without perturbing an in-progress training step.
        """
        saved = [(p, p.grad.copy()) for p in self.parameters()]
        try:
            return self.backward(grad_output)
        finally:
            for param, grad in saved:
                param.grad = grad


class Sequential(Module):
    """A pipeline of modules applied in order.

    Supports indexing (``seq[0]``), iteration, and ``len``; backward replays
    the layers in reverse.
    """

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for idx, layer in enumerate(layers):
            if not isinstance(layer, Module):
                raise TypeError(f"layer {idx} is not a Module: {layer!r}")
            self._modules[str(idx)] = layer
            self.layers.append(layer)

    def append(self, layer: Module) -> "Sequential":
        if not isinstance(layer, Module):
            raise TypeError(f"not a Module: {layer!r}")
        self._modules[str(len(self.layers))] = layer
        self.layers.append(layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, idx: int) -> Module:
        return self.layers[idx]

    def __iter__(self):
        return iter(self.layers)

"""Central-difference gradient verification.

Because the substrate implements backprop by hand, every layer's backward
pass is validated against numeric differentiation: the nn tests compare
each analytic gradient with these central differences.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.nn.module import Module


def _numeric_grad(fn: Callable[[], float], array: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of ``fn`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for idx in range(flat.size):
        original = flat[idx]
        flat[idx] = original + eps
        plus = fn()
        flat[idx] = original - eps
        minus = fn()
        flat[idx] = original
        grad_flat[idx] = (plus - minus) / (2.0 * eps)
    return grad


def check_parameter_gradients(
    module: Module,
    x: np.ndarray,
    loss_fn: Callable[[np.ndarray], float],
    loss_grad_fn: Callable[[np.ndarray], np.ndarray],
    eps: float = 1e-6,
    atol: float = 1e-5,
) -> Dict[str, float]:
    """Compare analytic parameter gradients to numeric ones.

    Args:
        module: Module under test; its forward must be deterministic.
        x: Input batch.
        loss_fn: Maps module output to a scalar loss.
        loss_grad_fn: Maps module output to dLoss/dOutput.
        eps: Finite-difference step.
        atol: Maximum tolerated absolute error; violations raise.

    Returns:
        Mapping of parameter name to max absolute analytic-vs-numeric error.
    """
    module.zero_grad()
    out = module.forward(x)
    module.backward(loss_grad_fn(out))
    errors: Dict[str, float] = {}
    for name, param in module.named_parameters():
        if not param.trainable:
            continue
        numeric = _numeric_grad(lambda: loss_fn(module.forward(x)), param.data, eps)
        error = float(np.abs(param.grad - numeric).max())
        errors[name] = error
        if error > atol:
            raise AssertionError(
                f"gradient check failed for {name}: max error {error:.3e} > {atol}"
            )
    return errors


def check_input_gradient(
    module: Module,
    x: np.ndarray,
    loss_fn: Callable[[np.ndarray], float],
    loss_grad_fn: Callable[[np.ndarray], np.ndarray],
    eps: float = 1e-6,
    atol: float = 1e-5,
) -> float:
    """Compare the analytic input gradient to a numeric one.

    Returns the max absolute error; raises ``AssertionError`` beyond
    ``atol``.
    """
    x = np.array(x, dtype=np.float64, copy=True)
    module.zero_grad()
    out = module.forward(x)
    analytic = module.backward(loss_grad_fn(out))
    analytic = np.asarray(analytic).reshape(x.shape)
    numeric = _numeric_grad(lambda: loss_fn(module.forward(x)), x, eps)
    error = float(np.abs(analytic - numeric).max())
    if error > atol:
        raise AssertionError(
            f"input gradient check failed: max error {error:.3e} > {atol}"
        )
    return error

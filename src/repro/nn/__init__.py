"""Minimal numpy deep-learning substrate used by the SAFELOC reproduction.

The paper trains its models with a PyTorch-class framework; this package
provides the equivalent machinery from scratch so the reproduction has no
dependency beyond numpy:

* :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Sequential` —
  composable layers with manual backprop,
* dense layers and the ReLU activation (:mod:`repro.nn.layers`), each
  running one network or, with a leading fold axis, a fold stack,
* losses with analytic gradients (:mod:`repro.nn.losses`),
* the Adam optimizer (:mod:`repro.nn.optim`),
* fold stacks and their per-fold losses (:mod:`repro.nn.batched`),
* input-gradient computation (``Module.input_gradient``), which the
  gradient-based poisoning attacks (FGSM/PGD/MIM/CLB) require,
* state-dict (de)serialization.
"""

from repro.nn.dtype import (
    compute_dtype,
    default_dtype,
    set_default_dtype,
)
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.batched import (
    BatchedAdam,
    BatchedMSELoss,
    BatchedSparseCrossEntropyLoss,
    fold_stack,
    iterate_fold_batches,
)
from repro.nn.layers import Linear, ReLU, TiedLinear
from repro.nn.losses import Loss, MSELoss, SparseCrossEntropyLoss
from repro.nn.optim import Adam
from repro.nn.init import glorot_uniform
from repro.nn.functional import log_softmax
from repro.nn.serialization import (
    clone_state,
    load_state,
    save_state,
    state_allclose,
)

__all__ = [
    "compute_dtype",
    "default_dtype",
    "set_default_dtype",
    "Module",
    "Parameter",
    "Sequential",
    "fold_stack",
    "BatchedMSELoss",
    "BatchedSparseCrossEntropyLoss",
    "BatchedAdam",
    "iterate_fold_batches",
    "Linear",
    "TiedLinear",
    "ReLU",
    "Loss",
    "MSELoss",
    "SparseCrossEntropyLoss",
    "Adam",
    "glorot_uniform",
    "log_softmax",
    "save_state",
    "load_state",
    "clone_state",
    "state_allclose",
]

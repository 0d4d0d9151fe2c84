"""Fold stacks: train N structurally identical networks as one program.

Leave-one-out detection (FEDLS), a round's client updates and similar
schemes train *n* networks that differ only in their weights and data.
Looping over them in Python costs one interpreter round-trip per fold
per batch; a fold stack puts all folds on a leading axis instead, so
one training step is a handful of 3-D ``np.matmul`` contractions
regardless of the fold count.  The layers of :mod:`repro.nn.layers` are
rank-generic, so a stack is an ordinary network whose parameters carry
the fold axis:

* :func:`fold_stack` — a context manager that stacks the parameters of
  ``n`` networks into the first one for the duration of a block (ties
  included) and hands every network its own fold back on exit;
* :class:`BatchedMSELoss` — per-fold mean-squared error whose gradient
  matches :class:`~repro.nn.losses.MSELoss` fold by fold;
* :class:`BatchedSparseCrossEntropyLoss` — per-fold softmax
  cross-entropy whose gradient matches
  :class:`~repro.nn.losses.SparseCrossEntropyLoss` fold by fold (the
  kernel behind the batched federated-client engine);
* :class:`BatchedAdam` — Adam over the stacked parameters: one tiled
  in-place sweep per tensor updates every fold;
* :func:`iterate_fold_batches` — per-fold shuffled mini-batch slicing,
  each fold consuming its own generator exactly as
  :func:`~repro.data.datasets.iterate_batches` would.

**Equivalence contract.**  ``np.matmul`` on a 3-D stack runs the same
GEMM per fold that the serial loop runs per network, and every other op
(bias add, activations, loss gradient, Adam) is elementwise along the
fold axis — so given fold-identical initialization and data, the
stacked step reproduces the serial per-fold step bit for bit at
float64 (``tests/test_fold_programs.py`` pins every fold program
against the serial loops of ``tests/reference/training.py``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.nn.functional import log_softmax
from repro.nn.module import Module
from repro.nn.optim import Adam


@contextmanager
def fold_stack(modules: Sequence[Module]) -> Iterator[Module]:
    """Run structurally identical networks as one fold stack.

    Inside the block, ``modules[0]``'s parameters hold every module's
    tensors stacked on a leading fold axis (fold ``k`` is
    ``modules[k]``), each with a fresh zero gradient, and ``modules[0]``
    runs the stack: its rank-generic layers contract every fold in one
    3-D ``np.matmul``.  The structure is ``modules[0]``'s, so ties hold
    by construction — a :class:`~repro.nn.layers.TiedLinear` reads its
    source's parameter, i.e. the stacked encoder weight, and accumulates
    its gradient there.

    On exit, also when the block raises, every module gets its own fold
    back as a copy, with a zero gradient.  All stacks are built before
    any parameter is replaced, so a structure mismatch raises with
    ``modules[0]`` untouched; stacking runs no initializer and draws no
    rng.  Passing one module ``n`` times stacks ``n`` copies of it, and
    the module leaves the block holding the last fold.
    """
    if not modules:
        raise ValueError("need at least one module to stack")
    named = [list(module.named_parameters()) for module in modules]
    layout = [(name, param.shape) for name, param in named[0]]
    for index, params in enumerate(named):
        found = [(name, param.shape) for name, param in params]
        if found != layout:
            raise ValueError(
                f"module {index} does not match module 0: parameters "
                f"{found} vs {layout}"
            )
    # slot i: parameter i of every module, in fold order
    slots = list(zip(*([param for _, param in params] for params in named)))
    stacks = [np.stack([param.data for param in slot]) for slot in slots]
    for slot, stack in zip(slots, stacks):
        slot[0].data = stack
        slot[0].grad = np.zeros_like(stack)
    try:
        yield modules[0]
    finally:
        for slot in slots:
            stack = slot[0].data
            for fold, param in enumerate(slot):
                param.data = stack[fold].copy()
                param.grad = np.zeros_like(param.data)


class BatchedMSELoss:
    """Per-fold mean squared error over ``(n_folds, batch, feat)`` stacks.

    ``forward`` returns the mean of the per-fold losses (diagnostic; the
    per-fold values stay in :attr:`fold_losses`).  ``backward`` returns
    ``2·(pred−target)/(batch·feat)`` — each fold's slice is exactly the
    gradient :class:`~repro.nn.losses.MSELoss` produces for that fold
    alone, which is what makes batched training bit-match the serial
    loop.  Mirrors ``MSELoss``'s float64 internal accumulation.
    """

    def __init__(self) -> None:
        self._diff: Optional[np.ndarray] = None
        self.fold_losses: Optional[np.ndarray] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        prediction = np.asarray(prediction, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if prediction.ndim != 3 or prediction.shape != target.shape:
            raise ValueError(
                f"expected matching (n_folds, batch, feat) stacks, got "
                f"{prediction.shape} vs {target.shape}"
            )
        self._diff = prediction - target
        self.fold_losses = (self._diff**2).mean(axis=(1, 2))
        return float(self.fold_losses.mean())

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise RuntimeError("backward called before forward")
        per_fold_size = self._diff.shape[1] * self._diff.shape[2]
        return 2.0 * self._diff / per_fold_size

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


class BatchedSparseCrossEntropyLoss:
    """Per-fold softmax cross-entropy over ``(n_folds, batch, classes)``.

    Each fold's slice reproduces
    :class:`~repro.nn.losses.SparseCrossEntropyLoss` exactly: logits are
    promoted to float64 before the log-softmax, the per-fold loss is the
    mean negative log-likelihood over that fold's batch, and ``backward``
    returns ``(softmax − onehot) / batch`` per fold — the batch (not the
    fold count) is the divisor, so fold ``k``'s gradient is bit-identical
    to what the serial loss hands fold ``k`` alone.  ``forward`` returns
    the mean of the per-fold losses (diagnostic; the per-fold values stay
    in :attr:`fold_losses`).
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self.fold_losses: Optional[np.ndarray] = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        logits = np.asarray(prediction, dtype=np.float64)
        labels = np.asarray(target, dtype=np.int64)
        if logits.ndim != 3:
            raise ValueError(
                f"expected (n_folds, batch, classes) logits, got {logits.shape}"
            )
        if labels.shape != logits.shape[:2]:
            raise ValueError(
                f"labels shape {labels.shape} does not match logit stack "
                f"{logits.shape[:2]}"
            )
        if labels.size and (
            labels.min() < 0 or labels.max() >= logits.shape[2]
        ):
            raise ValueError(
                f"labels out of range [0, {logits.shape[2]}): "
                f"[{labels.min()}, {labels.max()}]"
            )
        logp = log_softmax(logits, axis=-1)
        self._probs = np.exp(logp)
        self._labels = labels
        gathered = np.take_along_axis(logp, labels[:, :, None], axis=2)
        self.fold_losses = -gathered[:, :, 0].mean(axis=1)
        return float(self.fold_losses.mean())

    def backward(self) -> np.ndarray:
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        n_folds, batch = self._labels.shape
        grad[
            np.arange(n_folds)[:, None],
            np.arange(batch)[None, :],
            self._labels,
        ] -= 1.0
        return grad / batch

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


def iterate_fold_batches(
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
    with_index: bool = False,
) -> Iterator[Tuple[np.ndarray, ...]]:
    """Yield per-fold shuffled ``(features, labels)`` mini-batch stacks.

    The fold axis leads: ``features`` is ``(n_folds, n, feat)``,
    ``labels`` ``(n_folds, n)``.  Each fold draws **one** permutation from
    its own generator per call — the same single ``rng.permutation(n)``
    that :func:`~repro.data.datasets.iterate_batches` draws per epoch —
    then every fold is sliced at the same offsets (the serial loop's
    batch boundaries depend only on ``n`` and ``batch_size``, never on
    the data).  Fold ``k``'s sequence of batches is therefore exactly the
    sequence the serial loop would feed network ``k``, including the
    final partial batch.

    With ``with_index=True`` each step yields ``(features, labels,
    index)`` where ``index`` is the ``(n_folds, batch)`` positions into
    each fold's sample axis — the batched analogue of the serial loop's
    permutation slice, for slicing per-fold sample masks (e.g. SAFELOC's
    flagged rows) alongside the data.
    """
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    features = np.asarray(features)
    labels = np.asarray(labels)
    if features.ndim != 3 or labels.shape != features.shape[:2]:
        raise ValueError(
            f"expected (n_folds, n, feat) features with (n_folds, n) labels, "
            f"got {features.shape} / {labels.shape}"
        )
    n_folds, n = labels.shape
    if len(rngs) != n_folds:
        raise ValueError(
            f"need one rng per fold: got {len(rngs)} for {n_folds} folds"
        )
    order = np.stack([rng.permutation(n) for rng in rngs])
    fold_idx = np.arange(n_folds)[:, None]
    for start in range(0, n, batch_size):
        idx = order[:, start : start + batch_size]
        if with_index:
            yield features[fold_idx, idx], labels[fold_idx, idx], idx
        else:
            yield features[fold_idx, idx], labels[fold_idx, idx]


class BatchedAdam(Adam):
    """Adam over fold-stacked parameters — the fold-aware optimizer.

    Because every moment update and the parameter step are elementwise,
    Adam advances **all** folds of a stacked ``(n_folds, …)`` parameter
    in one sweep per tensor: a 4-layer stack steps 8 arrays per epoch
    regardless of the fold count, where the serial loop steps ``8·n``
    Python-level parameters.  A stack larger than
    :data:`~repro.nn.optim.ADAM_TILE` elements is swept tile by tile,
    each cache-sized slice running all of the step's elementwise passes
    before the next is loaded — the fold stacks are what make Adam's
    passes DRAM-bound.  Since the math is elementwise along the fold
    axis, each fold's trajectory is bit-identical to a serial per-fold
    Adam given identical init and gradients (pinned by
    ``tests/test_nn_batched.py``).  This subclass names that contract;
    it adds no behavior.
    """

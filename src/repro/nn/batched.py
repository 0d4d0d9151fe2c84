"""Fold-batched kernels: train N identical tiny networks as one program.

Leave-one-out detection (FEDLS), per-client probes and similar schemes
train *n* structurally identical small networks that differ only in their
weights and data.  Looping over them in Python costs one interpreter
round-trip per fold per epoch; this module stacks all folds onto a
leading axis instead, so one training step is a handful of 3-D
``np.matmul`` contractions regardless of the fold count:

* :class:`BatchedLinear` — parameters ``(n_folds, in, out)`` /
  ``(n_folds, out)`` over inputs ``(n_folds, batch, in)``;
* :class:`BatchedTiedLinear` — the fold-batched
  :class:`~repro.nn.layers.TiedLinear`: per-fold transposed views onto a
  stacked source's weights, owning only a bias stack;
* :class:`BatchedSequential` — a :class:`~repro.nn.module.Sequential`
  that validates the shared fold axis and can extract any single fold as
  a plain per-fold network;
* :class:`CompositeStacker` — stacks *multi-stage* per-fold networks
  (encoder / tied decoder / classifier head) while preserving
  cross-stage weight tying, the piece that lets SAFELOC's fused model
  fold-batch;
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
fold axis — so given fold-identical initialization and data, the batched
step reproduces the serial per-fold step bit for bit at float64.  The
FEDLS equivalence tests pin this at ≤1e-10.

The elementwise activation (:class:`~repro.nn.layers.ReLU`) is
shape-agnostic and slots into a :class:`BatchedSequential` unchanged.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.dtype import default_dtype
from repro.nn.functional import log_softmax
from repro.nn.init import glorot_uniform
from repro.nn.layers import Linear, TiedLinear
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import Adam
from repro.utils.rng import fallback_rng


def _as_fold_stack(x: np.ndarray, n_folds: int) -> np.ndarray:
    """Promote to a ``(n_folds, batch, features)`` stack and validate."""
    x = np.asarray(x, dtype=default_dtype())
    if x.ndim == 2:  # one sample per fold
        x = x[:, None, :]
    if x.ndim != 3:
        raise ValueError(
            f"expected (n_folds, batch, features) input, got shape {x.shape}"
        )
    if x.shape[0] != n_folds:
        raise ValueError(
            f"input carries {x.shape[0]} folds, layer has {n_folds}"
        )
    return x


class BatchedLinear(Module):
    """``n_folds`` independent dense layers as one stacked contraction.

    ``y[k] = x[k] @ W[k] + b[k]`` for every fold ``k`` in one broadcast
    ``np.matmul``: weights are ``(n_folds, in_features, out_features)``,
    biases ``(n_folds, out_features)``, inputs ``(n_folds, batch,
    in_features)``.  Fold ``k``'s output and gradients depend only on
    fold ``k``'s input — the folds never mix.

    Args:
        n_folds: Number of stacked independent layers.
        in_features / out_features: Per-fold layer shape.
        rngs: One generator **per fold**, drawn in fold order — pass each
            fold's own stream to reproduce that fold's serial
            :class:`~repro.nn.layers.Linear` init bit for bit.  ``None``
            spawns deterministic fallback streams.
    """

    def __init__(
        self,
        n_folds: int,
        in_features: int,
        out_features: int,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ):
        super().__init__()
        if n_folds <= 0:
            raise ValueError(f"n_folds must be positive, got {n_folds}")
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"layer dims must be positive, got ({in_features}, {out_features})"
            )
        if rngs is None:
            rngs = [fallback_rng("batched-linear") for _ in range(n_folds)]
        if len(rngs) != n_folds:
            raise ValueError(
                f"need one rng per fold: got {len(rngs)} for {n_folds} folds"
            )
        self._set_stacks(
            np.stack(
                [
                    glorot_uniform(in_features, out_features, rng)
                    for rng in rngs
                ]
            ),
            np.zeros((n_folds, out_features)),
        )

    def _set_stacks(self, weight: np.ndarray, bias: np.ndarray) -> None:
        self.n_folds, self.in_features, self.out_features = weight.shape
        self.weight = Parameter(weight, "weight")
        self.bias = Parameter(bias, "bias")
        self._input: Optional[np.ndarray] = None

    @classmethod
    def from_linears(cls, layers: Sequence[Linear]) -> "BatchedLinear":
        """Stack existing per-fold :class:`Linear` layers (copied weights).

        The stacks are built straight from the sources: no initializer
        runs and no :func:`~repro.utils.rng.fallback_rng` stream is drawn.
        """
        if not layers:
            raise ValueError("need at least one Linear to stack")
        first = layers[0]
        if any(
            layer.in_features != first.in_features
            or layer.out_features != first.out_features
            for layer in layers
        ):
            raise ValueError("all folds must share one layer shape")
        batched = cls.__new__(cls)
        Module.__init__(batched)
        batched._set_stacks(
            np.stack([layer.weight.data for layer in layers]),
            np.stack([layer.bias.data for layer in layers]),
        )
        return batched

    def _as_folded(self, x: np.ndarray) -> np.ndarray:
        return _as_fold_stack(x, self.n_folds)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self._as_folded(x)
        if x.shape[2] != self.in_features:
            raise ValueError(
                f"BatchedLinear expected {self.in_features} features, "
                f"got {x.shape[2]}"
            )
        self._input = x
        return x @ self.weight.data + self.bias.data[:, None, :]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = self._as_folded(grad_output)
        if self.weight.trainable:
            # per fold: dW[k] = x[k].T @ g[k], one stacked GEMM
            self.weight.grad += self._input.transpose(0, 2, 1) @ grad_output
        if self.bias.trainable:
            self.bias.grad += grad_output.sum(axis=1)
        return grad_output @ self.weight.data.transpose(0, 2, 1)


class BatchedTiedLinear(Module):
    """``n_folds`` tied dense layers over one stacked source's weights.

    The fold-batched :class:`~repro.nn.layers.TiedLinear`: fold ``k``
    computes ``y[k] = x[k] @ W[k].T + b[k]`` against fold ``k`` of the
    source :class:`BatchedLinear`'s weight stack, owns only its bias
    stack, and (unless ``train_weight=False``) accumulates the tied
    weight gradient ``g[k].T @ x[k]`` into the source — the same shared
    tensor the serial tie writes, so each fold's gradient flow is
    bit-identical to its per-fold twin.  Mirroring ``TiedLinear``, the
    source is deliberately *not* registered as a submodule: parameter
    walks report the shared weights exactly once, via the source's own
    stage.
    """

    def __init__(self, source: BatchedLinear, train_weight: bool = True):
        super().__init__()
        if not isinstance(source, BatchedLinear):
            raise TypeError("BatchedTiedLinear requires a BatchedLinear source")
        self.source = source
        self._modules.pop("source", None)  # avoid double-counting parameters
        object.__setattr__(self, "source", source)
        self.train_weight = bool(train_weight)
        self.n_folds = source.n_folds
        self.in_features = source.out_features
        self.out_features = source.in_features
        self.bias = Parameter(
            np.zeros((source.n_folds, self.out_features)), "bias"
        )
        self._input: Optional[np.ndarray] = None

    @classmethod
    def from_tied(
        cls, layers: Sequence[TiedLinear], source: BatchedLinear
    ) -> "BatchedTiedLinear":
        """Stack per-fold tied layers against an already-stacked source."""
        if not layers:
            raise ValueError("need at least one TiedLinear to stack")
        first = layers[0]
        if any(
            layer.in_features != first.in_features
            or layer.out_features != first.out_features
            or layer.train_weight != first.train_weight
            for layer in layers
        ):
            raise ValueError("all folds must share one tied-layer shape")
        if len(layers) != source.n_folds:
            raise ValueError(
                f"{len(layers)} tied folds against a {source.n_folds}-fold "
                "source"
            )
        if (
            first.in_features != source.out_features
            or first.out_features != source.in_features
        ):
            raise ValueError(
                f"tied shape ({first.in_features}, {first.out_features}) "
                f"does not mirror source ({source.in_features}, "
                f"{source.out_features})"
            )
        batched = cls(source, train_weight=first.train_weight)
        batched.bias.data = np.stack([layer.bias.data for layer in layers])
        return batched

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = _as_fold_stack(x, self.n_folds)
        if x.shape[2] != self.in_features:
            raise ValueError(
                f"BatchedTiedLinear expected {self.in_features} features, "
                f"got {x.shape[2]}"
            )
        self._input = x
        return (
            x @ self.source.weight.data.transpose(0, 2, 1)
            + self.bias.data[:, None, :]
        )

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        grad_output = _as_fold_stack(grad_output, self.n_folds)
        if self.train_weight and self.source.weight.trainable:
            # per fold: dW[k] += g[k].T @ x[k], into the shared stack
            self.source.weight.grad += (
                grad_output.transpose(0, 2, 1) @ self._input
            )
        if self.bias.trainable:
            self.bias.grad += grad_output.sum(axis=1)
        return grad_output @ self.source.weight.data


class BatchedSequential(Sequential):
    """A :class:`Sequential` of fold-batched layers sharing one fold axis.

    Validates that every :class:`BatchedLinear` carries the same
    ``n_folds`` (elementwise activations are fold-agnostic and pass
    through unchecked) and adds per-fold extraction for equivalence
    tests and warm-start bookkeeping.
    """

    def __init__(self, *layers: Module):
        super().__init__(*layers)
        folds = {
            layer.n_folds
            for layer in self.layers
            if isinstance(layer, (BatchedLinear, BatchedTiedLinear))
        }
        if len(folds) > 1:
            raise ValueError(f"inconsistent fold counts: {sorted(folds)}")
        self.n_folds = folds.pop() if folds else 0

    @classmethod
    def from_modules(
        cls,
        modules: Sequence[Sequential],
        stacker: Optional["CompositeStacker"] = None,
    ) -> "BatchedSequential":
        """Stack structurally identical per-fold networks (copied weights).

        Every module must be a :class:`Sequential` with the same layer
        sequence: :class:`~repro.nn.layers.Linear` layers are stacked via
        :meth:`BatchedLinear.from_linears`, parameter-free layers
        (activations) are re-instantiated, and
        :class:`~repro.nn.layers.TiedLinear` layers become
        :class:`BatchedTiedLinear` views — their source must have been
        stacked already, either earlier in the same module or in a
        previous stage of the ``stacker`` passed in (see
        :class:`CompositeStacker`).  Fold ``k`` of the result holds an
        exact copy of ``modules[k]``'s weights, so batched training
        starting from the stack bit-matches serial training starting from
        the originals.
        """
        return (stacker or CompositeStacker()).stack(modules, cls=cls)

    def scatter_fold(self, fold: int, target: Sequential) -> None:
        """Copy fold ``k``'s weights back into a per-fold network in place.

        The inverse of :meth:`from_modules` for one fold: ``target`` must
        be structurally identical to the networks the stack was built
        from.  Used by the batched client engine to hand each client its
        trained weights without rebuilding the client's model object.
        """
        if not 0 <= fold < max(self.n_folds, 1):
            raise IndexError(f"fold {fold} out of range [0, {self.n_folds})")
        if len(target.layers) != len(self.layers):
            raise ValueError(
                f"target has {len(target.layers)} layers, stack has "
                f"{len(self.layers)}"
            )
        for position, (batched, single) in enumerate(
            zip(self.layers, target.layers)
        ):
            if isinstance(batched, BatchedTiedLinear):
                # the tied weight lives in (and scatters via) the source
                # stage; only the bias is this layer's own
                if not isinstance(single, TiedLinear):
                    raise TypeError(
                        f"layer {position}: expected TiedLinear, got "
                        f"{type(single).__name__}"
                    )
                single.bias.data = batched.bias.data[fold].copy()
            elif isinstance(batched, BatchedLinear):
                if not isinstance(single, Linear):
                    raise TypeError(
                        f"layer {position}: expected Linear, got "
                        f"{type(single).__name__}"
                    )
                single.weight.data = batched.weight.data[fold].copy()
                single.bias.data = batched.bias.data[fold].copy()

    def unstack_fold(self, fold: int) -> Sequential:
        """Fold ``k``'s network as a plain per-fold :class:`Sequential`.

        :class:`BatchedLinear` layers become :class:`Linear` layers
        carrying copies of the fold's weights; parameter-free layers
        (activations) are re-instantiated.
        """
        if not 0 <= fold < max(self.n_folds, 1):
            raise IndexError(f"fold {fold} out of range [0, {self.n_folds})")
        extracted: List[Module] = []
        for layer in self.layers:
            if isinstance(layer, BatchedLinear):
                single = Linear(
                    layer.in_features,
                    layer.out_features,
                    rng=fallback_rng("unstack-fold"),
                )
                single.weight.data = layer.weight.data[fold].copy()
                single.bias.data = layer.bias.data[fold].copy()
                extracted.append(single)
            elif layer.parameters():
                raise TypeError(
                    f"cannot unstack parametered layer {type(layer).__name__}"
                )
            else:
                extracted.append(type(layer)())
        return Sequential(*extracted)


class CompositeStacker:
    """Stacks the stages of per-fold *composite* networks, preserving
    cross-stage weight tying.

    SAFELOC's fused model is not one ``Sequential`` — it is an encoder,
    a decoder of :class:`~repro.nn.layers.TiedLinear` views onto the
    encoder's weights, and a classifier head.  Stacking each stage
    independently would break the tying: every fold's decoder must share
    its weight tensor with *that fold's slice* of the stacked encoder.
    A stacker remembers, for every per-fold ``Linear`` it has stacked,
    which :class:`BatchedLinear` and fold index now hold its weights;
    when a later stage presents a ``TiedLinear``, the tie is re-created
    against the already-stacked source — one :class:`BatchedTiedLinear`
    whose weight gradient accumulates into the stacked encoder exactly
    as each serial tie accumulates into its per-fold encoder.

    One stacker per cohort, :meth:`stack` called once per stage in
    dependency order (sources before ties)::

        stacker = CompositeStacker()
        enc = stacker.stack([m.encoder for m in models])
        dec = stacker.stack([m.decoder for m in models])   # ties resolve
        clf = stacker.stack([m.classifier for m in models])
    """

    def __init__(self) -> None:
        # id(per-fold Linear) -> (stacked layer, fold index)
        self._stacked: dict = {}

    @staticmethod
    def _validate_structure(modules: Sequence[Sequential]) -> None:
        first = modules[0]
        for idx, module in enumerate(modules):
            if not isinstance(module, Sequential):
                raise TypeError(
                    f"fold {idx} is not a Sequential: {type(module).__name__}"
                )
            if len(module.layers) != len(first.layers):
                raise ValueError(
                    f"fold {idx} has {len(module.layers)} layers, "
                    f"fold 0 has {len(first.layers)}"
                )
            for position, (layer, ref) in enumerate(
                zip(module.layers, first.layers)
            ):
                if type(layer) is not type(ref):
                    raise TypeError(
                        f"layer {position} differs across folds: "
                        f"{type(ref).__name__} vs {type(layer).__name__}"
                    )

    def _resolve_tie(
        self, position: int, ties: Sequence[TiedLinear]
    ) -> BatchedTiedLinear:
        """Re-create per-fold ties against the already-stacked source."""
        resolved = self._stacked.get(id(ties[0].source))
        if resolved is None:
            raise ValueError(
                f"layer {position}: TiedLinear source was not stacked by "
                "this stacker — stack the source stage first (one "
                "CompositeStacker per cohort, stages in dependency order)"
            )
        source, _ = resolved
        for fold, tie in enumerate(ties):
            entry = self._stacked.get(id(tie.source))
            if entry is None or entry[0] is not source or entry[1] != fold:
                raise ValueError(
                    f"layer {position}: fold {fold}'s tied source does not "
                    f"map to fold {fold} of the stacked source stage — "
                    "folds must be passed in the same order for every stage"
                )
        return BatchedTiedLinear.from_tied(ties, source)

    def stack(
        self,
        modules: Sequence[Sequential],
        cls: Optional[type] = None,
    ) -> "BatchedSequential":
        """Stack one stage of structurally identical per-fold networks.

        ``Linear`` layers are stacked via
        :meth:`BatchedLinear.from_linears` and recorded so later stages
        can tie against them; ``TiedLinear`` layers resolve through the
        record; parameter-free layers are re-instantiated.
        """
        if not modules:
            raise ValueError("need at least one module to stack")
        self._validate_structure(modules)
        first = modules[0]
        stacked: List[Module] = []
        for position, layer in enumerate(first.layers):
            folds = [module.layers[position] for module in modules]
            if isinstance(layer, TiedLinear):
                stacked.append(self._resolve_tie(position, folds))
            elif isinstance(layer, Linear):
                batched = BatchedLinear.from_linears(folds)
                for fold, single in enumerate(folds):
                    self._stacked[id(single)] = (batched, fold)
                stacked.append(batched)
            elif layer.parameters():
                raise TypeError(
                    f"cannot stack parametered layer {type(layer).__name__}"
                )
            else:
                stacked.append(type(layer)())
        return (cls or BatchedSequential)(*stacked)


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

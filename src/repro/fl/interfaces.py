"""Model interface shared by every localization framework.

Each framework (SAFELOC's fused network, the baselines' plain DNNs, ONLAD's
model pair) wraps its networks in a :class:`LocalizationModel` so the FL
client/server machinery and the experiment drivers treat them uniformly.
A framework = model family + aggregation strategy, captured by
:class:`FrameworkSpec`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.fl.aggregation import AggregationStrategy
    from repro.fl.batched_round import FoldProgram

from repro.attacks.base import GradientOracle
from repro.data.datasets import FingerprintDataset

StateDict = Dict[str, np.ndarray]


class LocalizationModel(ABC):
    """A trainable RSS-to-RP model participating in federation.

    Concrete implementations own their networks and any client-side
    defense logic (SAFELOC's RCE check happens inside its
    fold program's screening phase and its :meth:`predict`).
    """

    #: feature dimension (number of APs) — set by implementations
    input_dim: int
    #: number of RP classes — set by implementations
    num_classes: int

    @abstractmethod
    def state_dict(self) -> StateDict:
        """Named weight tensors of the global/local model."""

    @abstractmethod
    def load_state_dict(self, state: StateDict) -> None:
        """Replace weights with ``state`` (deep copy, no aliasing)."""

    @abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted RP indices for a feature batch."""

    @abstractmethod
    def gradient_oracle(self) -> GradientOracle:
        """∇_X loss oracle for gradient-based poisoning attacks."""

    @abstractmethod
    def clone(self) -> "LocalizationModel":
        """A structurally identical copy carrying the same weights."""

    def parameter_count(self) -> int:
        """Total scalar parameters (Table I metric)."""
        return int(sum(v.size for v in self.state_dict().values()))

    def fold_batch_program(self) -> Optional["FoldProgram"]:
        """The model's training program, or ``None`` when it has none.

        A :class:`~repro.fl.batched_round.FoldProgram` owns the model's
        client-side screening (SAFELOC's RCE de-noise, ONLAD's detector
        flag) and its stacked training loop.  :meth:`train_epochs` runs it
        on a cohort of one fold; the batched client engine runs it on
        many.  A model returning ``None`` must override
        :meth:`train_epochs`, and the batched engine trains it client by
        client through that override.
        """
        return None

    def train_epochs(
        self,
        dataset: FingerprintDataset,
        epochs: int,
        lr: float,
        rng: np.random.Generator,
        batch_size: int = 32,
        trusted: bool = False,
    ) -> float:
        """Train in place and return the final epoch's mean loss.

        Runs :meth:`fold_batch_program` on a cohort of one fold.
        ``trusted=True`` marks server-held data (centralized pre-training,
        §IV): the program skips client-side poison screening for it.  A
        screen that keeps nothing skips the update and returns ``0.0``.
        """
        from repro.fl.client import ClientConfig

        # raises ValueError unless epochs, lr and batch_size are positive
        config = ClientConfig(epochs=epochs, lr=lr, batch_size=batch_size)
        program = self.fold_batch_program()
        if program is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no fold program: it must "
                "implement train_epochs itself, without delegating to "
                "LocalizationModel.train_epochs"
            )
        prep = program.prepare(dataset, trusted)
        if prep is None:
            return 0.0
        return float(program.train_cohort([program], [prep], config, [rng])[0])

    def evaluate_loss(self, dataset: FingerprintDataset) -> Optional[float]:
        """Optional hook: classification loss on a dataset (None when the
        implementation does not expose one)."""
        return None


@dataclass
class FrameworkSpec:
    """One comparable framework: a model family plus its aggregation.

    Attributes:
        name: Framework name as used in the paper ("safeloc", "fedloc", …).
        model_factory: Builds a fresh model (GM or a client's local copy).
        strategy: Server-side aggregation strategy instance.
        description: One-line provenance note.
    """

    name: str
    model_factory: Callable[[], LocalizationModel]
    strategy: "AggregationStrategy"
    description: str = ""

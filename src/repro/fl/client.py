"""Federated client: local training, optionally behind a poisoning attack.

Mirrors Fig. 2 of the paper: the client receives the GM, (if malicious)
poisons its local data using gradients of the received GM, retrains
locally at the client-side hyperparameters (§V.A: lr 0.0001, 5 epochs),
and returns the LM weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.attacks.base import Attack
from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import ClientUpdate
from repro.fl.interfaces import LocalizationModel, StateDict
from repro.utils.rng import SeedSequence


def round_stream(kind: str, round_index: int) -> str:
    """Name of the per-round rng stream for ``kind`` ("attack"/"train").

    Both client engines derive their randomness through this single
    helper, so a (client, round) pair maps to one stream label no matter
    which engine runs the round — the invariant behind the bit-exact
    serial/batched equivalence.
    """
    return f"{kind}-round-{round_index}"


def client_round_rng(
    seeds: SeedSequence, kind: str, round_index: int
) -> np.random.Generator:
    """The generator a client uses for ``kind`` in round ``round_index``."""
    return seeds.rng(round_stream(kind, round_index))


@dataclass
class ClientConfig:
    """Client-side training hyperparameters (§V.A defaults)."""

    epochs: int = 5
    lr: float = 0.0001
    batch_size: int = 32

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")


class FederatedClient:
    """One mobile device participating in federation.

    Args:
        name: Client identifier.
        model: The client's local copy of the framework model (weights are
            overwritten by the broadcast GM each round).
        dataset: The client's local fingerprints (clean; the attack is
            applied fresh each round, against the current GM, as in §III).
        config: Local training hyperparameters.
        attack: When set, the client is malicious and poisons its data
            before every local training pass.
        seeds: Per-client seed sequence (attack randomness, shuffling).
        self_labeling: §III's client loop — devices have no ground-truth
            position, so local training labels are the *GM's own
            predictions* on the local fingerprints ("The predicted label
            and local RSS data are then used to re-train the GM copy").
            This pseudo-label feedback is what lets poisoned GM updates
            compound across rounds (Fig. 1).  Set False for an
            oracle-labeled ablation.
    """

    def __init__(
        self,
        name: str,
        model: LocalizationModel,
        dataset: FingerprintDataset,
        config: Optional[ClientConfig] = None,
        attack: Optional[Attack] = None,
        seeds: Optional[SeedSequence] = None,
        self_labeling: bool = True,
    ):
        if len(dataset) == 0:
            raise ValueError(f"client {name!r} has no local data")
        self.name = name
        self.model = model
        self.dataset = dataset
        self.config = config or ClientConfig()
        self.attack = attack
        # repro: allow[REP501] standalone-construction fallback; the engine always threads spec-derived seeds
        self.seeds = seeds or SeedSequence(0)
        self.self_labeling = bool(self_labeling)

    @property
    def is_malicious(self) -> bool:
        return self.attack is not None

    def resolve_round(self, round_index: int) -> int:
        """Validate the server-announced 1-based ``round_index``.

        Both engines call this first.  The round index alone keys every
        per-round rng stream, so both engines draw bit-identical
        randomness for round ``r``.
        """
        if round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {round_index}")
        return int(round_index)

    def begin_local_round(
        self, global_state: StateDict, round_index: int
    ) -> FingerprintDataset:
        """Everything before local training: broadcast, self-label, poison.

        Loads the GM into the client's model, replaces labels with the
        GM's own predictions (§III self-labeling), and — for malicious
        clients — re-applies the attack against the *current* GM's
        gradients, matching the paper's threat model where the attacker
        owns the device and adapts to each broadcast model.  Returns the
        dataset local training should consume.
        """
        self.model.load_state_dict(global_state)
        dataset = self.dataset
        if self.self_labeling:
            dataset = dataset.with_labels(self.model.predict(dataset.features))
        if self.attack is not None:
            rng = client_round_rng(self.seeds, "attack", round_index)
            oracle = (
                self.model.gradient_oracle() if self.attack.is_backdoor else None
            )
            report = self.attack.poison(dataset, oracle, rng)
            dataset = report.dataset
        return dataset

    def build_update(
        self, dataset: FingerprintDataset, loss: float
    ) -> ClientUpdate:
        """Package the model's current weights as this round's LM update."""
        return ClientUpdate(
            client_name=self.name,
            state=self.model.state_dict(),
            num_samples=len(dataset),
            train_loss=float(loss),
            flagged_poisoned=int(getattr(self.model, "last_flagged_count", 0)),
            is_malicious=self.is_malicious,
        )

    def local_update(
        self, global_state: StateDict, round_index: int
    ) -> ClientUpdate:
        """Run one round of local training and return the LM.

        The serial client engine.  Training runs the model's fold
        program on a cohort of one (``train_epochs``); the batched engine
        (:class:`~repro.fl.batched_round.ClientCohort`) replays exactly
        these phases — :meth:`begin_local_round`, training seeded by
        :func:`client_round_rng`, :meth:`build_update` — with many
        clients stacked in one run of the same program, so the two stay
        bit-identical at float64.
        """
        round_index = self.resolve_round(round_index)
        dataset = self.begin_local_round(global_state, round_index)
        train_rng = client_round_rng(self.seeds, "train", round_index)
        loss = self.model.train_epochs(
            dataset,
            epochs=self.config.epochs,
            lr=self.config.lr,
            rng=train_rng,
            batch_size=self.config.batch_size,
        )
        return self.build_update(dataset, loss)

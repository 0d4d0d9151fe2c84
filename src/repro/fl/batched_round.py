"""Fold programs: each model's one training loop, run on a cohort of folds.

A :class:`FoldProgram` holds a model family's local training: its
client-side screening (:meth:`FoldProgram.prepare`) and its stacked loop
(:meth:`FoldProgram.train_cohort`).
:meth:`~repro.fl.interfaces.LocalizationModel.train_epochs` (the serial
client engine, the server pre-train) runs it on a cohort of one fold.
Every honest client trains the *same architecture* (its copy of the
broadcast GM) on its own data with the same schedule, so the batched
engine's :class:`ClientCohort` groups schedule-uniform clients, runs
their local training as stacked 3-D matmuls, and unstacks the folds into
the same :class:`~repro.fl.aggregation.ClientUpdate` objects.

**Equivalence contract.**  A fold's weights and loss do not depend on
which other folds share its cohort, so ``client_engine="batched"``
reproduces ``"serial"`` bit for bit at float64:

* broadcast / self-labeling / poisoning run *per client on the client's
  own model* (:meth:`~repro.fl.client.FederatedClient.begin_local_round`),
  so pseudo-label forwards and attack gradients see the exact serial
  batch shapes and rng streams;
* client-side defenses that screen the data *before* any gradient step
  (SAFELOC's RCE denoise, ONLAD's detector flag) run per fold in
  :meth:`FoldProgram.prepare` — deterministic forward passes, no rng;
* training randomness comes from the shared
  :func:`~repro.fl.client.client_round_rng` helper — fold ``k`` draws one
  ``permutation`` per epoch from its own ``train-round-r`` stream;
* the stacked step is 3-D matmul + elementwise ops along the fold axis
  (see :mod:`repro.nn.batched`), so fold ``k``'s trajectory does not
  depend on the fold count.

The per-model serial loops the programs must match live in
``tests/reference/training.py``.  Programs exist for the plain-classifier
family
(:class:`ClassifierFoldProgram`), SAFELOC's fused denoiser+localizer
pipeline (:class:`~repro.core.safeloc.SafeLocFoldProgram`) and ONLAD's
localizer/detector pair (:class:`~repro.baselines.onlad.OnladFoldProgram`).
Clients whose model has no program
(:meth:`~repro.fl.interfaces.LocalizationModel.fold_batch_program`
returns ``None`` — e.g. a subclass overriding ``train_epochs``) train
through that method inside the cohort, so ``client_engine="batched"`` is
safe for every framework.

Cohorts partition on the training schedule ``(epochs, lr, batch_size,
effective samples, program structure)``; malicious clients train under
the attacker schedule and thus batch as their own cohort after
poisoning, exactly as the paper's threat model separates them.  Clients
whose screening kept a different number of samples land in different
cohorts too (folds share batch boundaries), and clients whose screening
dropped *everything* skip the round: they keep the broadcast weights and
report zero loss.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import ClientUpdate
from repro.fl.client import ClientConfig, FederatedClient, client_round_rng
from repro.fl.interfaces import StateDict
from repro.nn.batched import (
    BatchedAdam,
    BatchedSparseCrossEntropyLoss,
    fold_stack,
    iterate_fold_batches,
)
from repro.nn.module import Sequential


@dataclass
class FoldPrep:
    """One fold's screened training state.

    Produced by :meth:`FoldProgram.prepare`: ``dataset`` is the
    *effective* training set (post client-side screening), ``aux``
    carries program-private state the stacked loop needs alongside it
    (e.g. SAFELOC's flagged-row mask), and ``trusted`` marks server-held
    data that skipped screening (SAFELOC corrupts its inputs instead).
    """

    dataset: FingerprintDataset
    aux: object = None
    trusted: bool = False


class FoldProgram(ABC):
    """How one model family trains, as a cohort of one or more folds.

    A program is bound to one model and is that model's only training
    loop: :meth:`~repro.fl.interfaces.LocalizationModel.train_epochs`
    runs it on one fold, :class:`ClientCohort` on many.  It supplies a
    :meth:`structure_key` so only structurally identical folds stack, a
    per-fold :meth:`prepare` for the defense/screening phase, and
    :meth:`train_cohort`, the stacked training loop itself.  ``prepare``
    returning ``None`` means nothing trustworthy survived screening: the
    fold skips the round, keeping its broadcast weights, with zero loss.
    """

    @abstractmethod
    def structure_key(self) -> Tuple:
        """Everything beyond the schedule that folds must share to stack."""

    def prepare(
        self, dataset: FingerprintDataset, trusted: bool = False
    ) -> Optional[FoldPrep]:
        """Per-fold screening phase; runs after ``begin_local_round``.

        ``trusted=True`` marks server-held data, which skips client-side
        screening.  Must be deterministic given the model's (broadcast)
        weights and the dataset, and must not consume the training rng.
        """
        return FoldPrep(dataset, trusted=trusted)

    @abstractmethod
    def train_cohort(
        self,
        programs: Sequence["FoldProgram"],
        preps: Sequence[FoldPrep],
        config: ClientConfig,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Train every fold's model in place as one stacked program.

        ``programs[k]`` / ``preps[k]`` / ``rngs[k]`` belong to fold
        ``k``; returns the per-fold final-epoch mean loss.  Fold ``k``'s
        weights and loss do not depend on the other folds: a cohort of
        one is ``train_epochs``.
        """


def layer_shapes(network: Sequential) -> Tuple:
    """Structural signature of a ``Sequential`` for cohort partitioning."""
    return tuple(
        (
            type(layer).__name__,
            getattr(layer, "in_features", None),
            getattr(layer, "out_features", None),
        )
        for layer in network.layers
    )


def fold_mean(batch_losses: Sequence[np.ndarray]) -> np.ndarray:
    """Per-fold mean of one epoch's ``(n_folds,)`` batch losses.

    Each fold's losses are laid out contiguously, so numpy sums them
    pairwise exactly as ``np.mean`` sums one model's 1-D list of batch
    losses.  A mean down axis 0 of the stacked rows sums them in plain
    order instead, and from 8 batches on can differ in the last bit.
    """
    return np.stack(batch_losses, axis=1).mean(axis=1)


def run_classifier_epochs(
    network: Sequential,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    rngs: Sequence[np.random.Generator],
) -> np.ndarray:
    """The stock stacked loop: fresh Adam + sparse CE over shuffled batches.

    ``network`` is a fold stack (see :func:`~repro.nn.batched.fold_stack`)
    with one fold per rng.  Returns the per-fold mean loss of the final
    epoch.
    """
    loss = BatchedSparseCrossEntropyLoss()
    optimizer = BatchedAdam(network.trainable_parameters(), lr=lr)
    fold_final = np.zeros(len(rngs))
    for epoch in range(epochs):
        # only the final epoch's losses are returned
        final = epoch == epochs - 1
        batch_losses: List[np.ndarray] = []
        for batch_features, batch_labels in iterate_fold_batches(
            features, labels, batch_size, rngs
        ):
            optimizer.zero_grad()
            loss(network.forward(batch_features), batch_labels, final)
            network.backward(loss.backward(), input_grad=False)
            optimizer.step()
            if final:
                batch_losses.append(loss.fold_losses)
        if final:
            fold_final = fold_mean(batch_losses)
    return fold_final


class ClassifierFoldProgram(FoldProgram):
    """The plain mini-batch classifier family (DNN baselines).

    Wraps the model's classifier ``Sequential``; no screening phase, and
    trusted data trains like any other.
    """

    def __init__(self, network: Sequential):
        self.network = network

    def structure_key(self) -> Tuple:
        return ("classifier", layer_shapes(self.network))

    def train_cohort(
        self,
        programs: Sequence["ClassifierFoldProgram"],
        preps: Sequence[FoldPrep],
        config: ClientConfig,
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        features = np.stack([prep.dataset.features for prep in preps])
        labels = np.stack([prep.dataset.labels for prep in preps])
        with fold_stack([program.network for program in programs]) as stacked:
            return run_classifier_epochs(
                stacked,
                features,
                labels,
                config.epochs,
                config.lr,
                config.batch_size,
                rngs,
            )


class ClientCohort:
    """Runs one federation round's client updates as fold-batched programs.

    Owned by the :class:`~repro.fl.server.FederatedServer` when
    ``client_engine="batched"``; :meth:`collect_updates` is a drop-in
    replacement for the serial per-client loop and returns the same
    updates in the same client order.

    Args:
        clients: The federation's clients, in server order.
    """

    def __init__(self, clients: Sequence[FederatedClient]):
        if not clients:
            raise ValueError("cohort needs at least one client")
        self.clients = list(clients)

    def collect_updates(
        self, global_state: StateDict, round_index: int
    ) -> List[ClientUpdate]:
        """All client updates for one round, in client order."""
        pending = list(range(len(self.clients)))
        for client in self.clients:
            client.resolve_round(round_index)

        # broadcast + self-label + poison per client, on the client's own
        # model — identical batch shapes and rng draws to the serial engine
        prepared: Dict[int, FingerprintDataset] = {
            index: self.clients[index].begin_local_round(
                global_state, round_index
            )
            for index in pending
        }

        finished: Dict[int, ClientUpdate] = {}
        programs: Dict[int, FoldProgram] = {}
        preps: Dict[int, Optional[FoldPrep]] = {}
        for indices in self._partition(pending, prepared, programs, preps):
            first = indices[0]
            if first not in programs:
                finished[first] = self._train_serial(
                    first, prepared[first], round_index
                )
            elif preps[first] is None:
                # nothing trustworthy survived screening: skip the round,
                # keeping the broadcast weights, with zero loss
                finished[first] = self.clients[first].build_update(
                    prepared[first], 0.0
                )
            else:
                finished.update(
                    self._train_group(
                        indices, prepared, programs, preps, round_index
                    )
                )

        return [finished[index] for index in pending]

    # -- cohort partitioning ----------------------------------------------
    def _partition(
        self,
        pending: List[int],
        prepared: Dict[int, FingerprintDataset],
        programs: Dict[int, FoldProgram],
        preps: Dict[int, Optional[FoldPrep]],
    ) -> List[List[int]]:
        """Group clients into fold-stackable cohorts.

        The key is everything the stacked program shares across folds:
        the training schedule, the effective (post-screening) sample
        count (folds share batch boundaries) and the program's structure
        key.  Clients whose model has no program, or whose screening
        phase kept nothing (``None`` prep), get singleton groups.
        ``programs`` / ``preps`` are populated as a side effect for the
        training phase.
        """
        groups: Dict[Tuple, List[int]] = {}
        for index in pending:
            client = self.clients[index]
            program = client.model.fold_batch_program()
            if program is None:
                groups[("serial", index)] = [index]
                continue
            programs[index] = program
            prep = preps[index] = program.prepare(prepared[index])
            if prep is None:
                groups[("skip", index)] = [index]
                continue
            key = (
                "batched",
                client.config.epochs,
                client.config.lr,
                client.config.batch_size,
                len(prep.dataset),
                program.structure_key(),
            )
            groups.setdefault(key, []).append(index)
        return list(groups.values())

    # -- training paths ----------------------------------------------------
    def _train_serial(
        self, index: int, dataset: FingerprintDataset, round_index: int
    ) -> ClientUpdate:
        """``local_update``'s training tail for a client whose model has
        no fold program: the model's own ``train_epochs``."""
        client = self.clients[index]
        train_rng = client_round_rng(client.seeds, "train", round_index)
        loss = client.model.train_epochs(
            dataset,
            epochs=client.config.epochs,
            lr=client.config.lr,
            rng=train_rng,
            batch_size=client.config.batch_size,
        )
        return client.build_update(dataset, loss)

    def _train_group(
        self,
        indices: List[int],
        prepared: Dict[int, FingerprintDataset],
        programs: Dict[int, FoldProgram],
        preps: Dict[int, Optional[FoldPrep]],
        round_index: int,
    ) -> Dict[int, ClientUpdate]:
        """One stacked training program for a schedule-uniform cohort."""
        clients = [self.clients[index] for index in indices]
        config = clients[0].config
        rngs = [
            client_round_rng(client.seeds, "train", round_index)
            for client in clients
        ]
        fold_losses = programs[indices[0]].train_cohort(
            [programs[index] for index in indices],
            [preps[index] for index in indices],
            config,
            rngs,
        )
        return {
            index: self.clients[index].build_update(
                prepared[index], float(fold_losses[fold])
            )
            for fold, index in enumerate(indices)
        }

"""Federated server: pre-training, round orchestration, history.

The server owns the GM, optionally pre-trains it centrally (SAFELOC §IV:
"training the fused neural network on a centralized server using a subset
of RSS fingerprints"), then repeatedly broadcasts to clients and folds
their LMs back through the configured aggregation strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Literal, Optional, Sequence, get_args

import numpy as np

from repro.data.datasets import FingerprintDataset
from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.batched_round import ClientCohort
from repro.fl.client import FederatedClient
from repro.fl.interfaces import LocalizationModel, StateDict
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequence

logger = get_logger("fl.server")

#: recognized client execution engines (see :class:`FederatedServer`)
ClientEngine = Literal["serial", "batched"]
CLIENT_ENGINES = get_args(ClientEngine)


@dataclass
class RoundRecord:
    """Bookkeeping for one federation round."""

    round_index: int
    updates: List[ClientUpdate]
    mean_client_loss: float
    num_malicious: int
    num_flagged: int
    #: updates the server-side filter excluded during aggregation —
    #: the only visibility into defenses (FEDLS, FEDCC, KRUM) that drop
    #: whole updates after local training rather than flagging samples
    #: client-side like ``num_flagged`` counts
    num_dropped: int = 0


class FederatedServer:
    """Synchronous single-server federation (Fig. 2).

    Args:
        model: The global model (GM).
        strategy: Aggregation strategy folding LMs into the GM.
        clients: Participating clients (honest and malicious alike; the
            server does not know which is which).
        seeds: Server-side seed sequence (pre-training shuffles).
        client_engine: ``"serial"`` (the default) walks clients one by
            one, each training through its model's fold program on a
            cohort of one; ``"batched"`` hands each round to a
            :class:`~repro.fl.batched_round.ClientCohort`, which
            fold-stacks schedule-uniform clients into one 3-D matmul run
            of the same program.  Both engines share per-(client, round)
            rng streams, so they produce bit-identical updates at
            float64.
    """

    def __init__(
        self,
        model: LocalizationModel,
        strategy: AggregationStrategy,
        clients: Sequence[FederatedClient],
        seeds: Optional[SeedSequence] = None,
        client_engine: str = "serial",
    ):
        if not clients:
            raise ValueError("federation needs at least one client")
        if client_engine not in CLIENT_ENGINES:
            raise ValueError(
                f"unknown client_engine {client_engine!r}; "
                f"expected one of {CLIENT_ENGINES}"
            )
        self.model = model
        self.strategy = strategy
        # a strategy instance may be reused across federations (shared
        # FrameworkSpec); drop any per-federation state it carries so two
        # runs of the same scenario start identically
        self.strategy.reset()
        self.clients = list(clients)
        # repro: allow[REP501] standalone-construction fallback; the engine always threads spec-derived seeds
        self.seeds = seeds or SeedSequence(1)
        self.client_engine = client_engine
        self._cohort: Optional[ClientCohort] = None
        #: one record per finished round, each ``ClientUpdate.state``
        #: emptied — :meth:`run_round` returns the full record
        self.history: List[RoundRecord] = []

    def pretrain(
        self,
        dataset: FingerprintDataset,
        epochs: int,
        lr: float = 0.001,
        batch_size: int = 32,
    ) -> float:
        """Centralized warm-up of the GM on server-held fingerprints."""
        rng = self.seeds.rng("pretrain")
        loss = self.model.train_epochs(
            dataset, epochs=epochs, lr=lr, rng=rng, batch_size=batch_size,
            trusted=True,
        )
        logger.info("pretrain finished, loss=%.4f", loss)
        return float(loss)

    def _collect_updates(
        self, global_state: StateDict, round_index: int
    ) -> List[ClientUpdate]:
        """All client updates for one round, in client order."""
        if self.client_engine == "batched":
            if self._cohort is None:
                self._cohort = ClientCohort(self.clients)
            return self._cohort.collect_updates(global_state, round_index)
        return [
            client.local_update(global_state, round_index=round_index)
            for client in self.clients
        ]

    def run_round(self) -> RoundRecord:
        """One synchronous round: broadcast → local updates → aggregate."""
        global_state = self.model.state_dict()
        updates = self._collect_updates(global_state, len(self.history) + 1)
        self.strategy.begin_round(len(self.history) + 1)
        new_state = self.strategy.aggregate(global_state, updates)
        self.model.load_state_dict(new_state)
        record = RoundRecord(
            round_index=len(self.history) + 1,
            updates=updates,
            mean_client_loss=float(np.mean([u.train_loss for u in updates])),
            num_malicious=sum(u.is_malicious for u in updates),
            num_flagged=sum(u.flagged_poisoned for u in updates),
            num_dropped=int(self.strategy.last_dropped_count),
        )
        # the history keeps the round's bookkeeping, not every client's
        # weights (~1 MB per FEDLS update, every round, for the run)
        self.history.append(
            replace(
                record,
                updates=[replace(u, state={}) for u in updates],
            )
        )
        logger.info(
            "round %d: mean client loss %.4f (%d malicious, %d flagged, "
            "%d dropped)",
            record.round_index,
            record.mean_client_loss,
            record.num_malicious,
            record.num_flagged,
            record.num_dropped,
        )
        return record

    def run_rounds(self, num_rounds: int) -> List[RoundRecord]:
        """Run several rounds, returning their records."""
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        return [self.run_round() for _ in range(num_rounds)]

"""Aggregation strategies: how the server folds LM updates into the GM.

The strategy is the locus of every defense compared in the paper: FedAvg
(FEDLOC), selective tensors (FEDHIL), clustering (FEDCC), latent-space
filtering (FEDLS), Krum selection, and SAFELOC's saliency-map aggregation —
all implement :class:`AggregationStrategy`.

Strategies run on the **packed path**: the cohort is flattened once into
a ``(n_clients, n_params)`` matrix (:mod:`repro.fl.packed`) and the
defense becomes a handful of vectorized ops over axis 0.  The per-key
reference implementations the packed path must match live with the
tests (``tests/reference/aggregation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.fl.packed import PackedStates
from repro.fl.state import StateDict


@dataclass
class ClientUpdate:
    """One client's contribution to a federation round.

    Attributes:
        client_name: Reporting client.
        state: The locally trained model weights (LM).
        num_samples: Local dataset size (FedAvg weighting).
        train_loss: Final local training loss (diagnostic).
        flagged_poisoned: Number of local samples the client-side defense
            flagged as backdoor-poisoned (0 for frameworks without one).
        is_malicious: Ground-truth attacker flag — carried for experiment
            bookkeeping only; aggregation strategies MUST NOT read it.
    """

    client_name: str
    state: StateDict
    num_samples: int
    train_loss: float = 0.0
    flagged_poisoned: int = 0
    is_malicious: bool = False


class AggregationStrategy:
    """Interface: combine the GM with this round's LM updates."""

    name = "strategy"

    #: Round index the server announced via :meth:`begin_round` (1-based),
    #: or ``None`` when the strategy is driven outside a server loop.
    round_index: Optional[int] = None

    #: Updates the server-side filter excluded from the most recent
    #: ``aggregate`` call.  Client-side ``flagged_poisoned`` counts never
    #: see these drops (the filter runs after local training), so this is
    #: the only place FEDLS-style defenses become observable; strategies
    #: that never drop leave it at 0.
    last_dropped_count: int = 0

    def begin_round(self, round_index: int) -> None:
        """Announce the upcoming round's 1-based index.

        :class:`~repro.fl.server.FederatedServer` calls this before every
        ``aggregate`` so round-dependent strategy state (e.g. FEDLS's
        per-round detector seeds) derives from the federation's actual
        round counter instead of a hidden call counter — re-running a
        cell or reusing a strategy instance then reproduces bit for bit.
        """
        self.round_index = int(round_index)

    def reset(self) -> None:
        """Forget per-federation state; called when a server adopts the
        strategy, so one instance can serve several federations without
        leaking round counters or caches between them."""
        self.round_index = None
        self.last_dropped_count = 0

    def aggregate(
        self,
        global_state: StateDict,
        updates: Sequence[ClientUpdate],
    ) -> StateDict:
        """Return the new global state.

        Implementations must not mutate ``global_state`` or the update
        states in place.  The default packs the cohort once and delegates
        to :meth:`packed_aggregate`; strategies without a packed form
        override this method directly.
        """
        updates = self._require_updates(updates)
        # scratch pack: the matrix lives only for this call, so it reuses
        # the thread-local workspace instead of a fresh multi-MB allocation
        packed = PackedStates.from_updates(updates, scratch=True)
        gm_vector = packed.layout.flatten(global_state)
        new_vector = self.packed_aggregate(gm_vector, packed, updates)
        return packed.layout.unflatten(new_vector)

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        """Vectorized form: flat GM + packed cohort → new flat GM."""
        raise NotImplementedError

    @staticmethod
    def _require_updates(updates: Sequence[ClientUpdate]) -> Sequence[ClientUpdate]:
        if not updates:
            raise ValueError("aggregation requires at least one client update")
        return updates

    @staticmethod
    def _sample_weights(updates: Sequence[ClientUpdate]) -> np.ndarray:
        """Normalized FedAvg weights from local sample counts."""
        weights = np.asarray(
            [max(1, u.num_samples) for u in updates], dtype=np.float64
        )
        return weights / weights.sum()


class FedAvg(AggregationStrategy):
    """Federated averaging (McMahan et al.), the paper's eq.-less baseline.

    LM states are averaged weighted by local sample counts; the GM is
    replaced by the average.  ``server_momentum`` optionally blends the
    previous GM in (0 = pure FedAvg).
    """

    name = "fedavg"

    def __init__(self, server_momentum: float = 0.0):
        if not 0.0 <= server_momentum < 1.0:
            raise ValueError(
                f"server_momentum must be in [0, 1), got {server_momentum}"
            )
        self.server_momentum = float(server_momentum)

    def packed_aggregate(
        self,
        gm_vector: np.ndarray,
        packed: PackedStates,
        updates: Sequence[ClientUpdate],
    ) -> np.ndarray:
        weights = self._sample_weights(updates).astype(packed.matrix.dtype)
        averaged = weights @ packed.matrix
        if self.server_momentum == 0.0:
            return averaged
        m = self.server_momentum
        return m * gm_vector + (1.0 - m) * averaged

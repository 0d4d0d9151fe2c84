"""FEDHIL (Gufran et al. [9]): selective weight-tensor aggregation.

FEDHIL's "domain-specific aggregation strategy that selectively
incorporates relevant weight tensors from LMs ... to mitigate bias from
individual clients" (§I/§II): for every weight-tensor element the server
drops the single most GM-deviant client contribution (the presumed
device-bias outlier), averages the rest, and blends the result with the
retained GM.  This is a heterogeneity-bias damper, not a poisoning
defense: one trimmed contributor per element clips the extreme components
of a backdoored LM (mild resilience, Fig. 1's 3.25× vs FEDLOC's 6.5×),
while a label-flipped LM's broadly distributed deviations pass mostly
untrimmed — and the GM blending slows honest recovery, which is why the
SAFELOC paper measures FEDHIL slightly *worse* than FEDLOC under label
flipping.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.baselines.dnn import DNNLocalizer
from repro.fl.aggregation import AggregationStrategy, ClientUpdate
from repro.fl.interfaces import FrameworkSpec
from repro.fl.state import StateDict

#: FEDHIL's DNN scale per Table I (97,341 params in the paper).
FEDHIL_HIDDEN = (224, 192)


def _layer_depth(key: str) -> int:
    """Layer index from a Sequential state-dict key like ``"4.weight"``.

    Keys without a leading integer (custom models) sort as depth 0.
    """
    head = key.split(".", 1)[0]
    try:
        return int(head)
    except ValueError:
        return 0


class SelectiveAggregation(AggregationStrategy):
    """Depth-selective tensor aggregation.

    FEDHIL's heuristic: early layers encode device-specific RSS structure
    and averaging them across heterogeneous clients injects bias, so only
    the deeper tensors — the location-semantic part of the network — are
    FedAvg'd; shallow tensors keep their GM values.  All clients contribute
    to the selected tensors (no client filtering), which is why poisoned
    LMs still reach the GM through the aggregated layers.

    Args:
        aggregate_fraction: Fraction of the layer-depth range (deepest
            first) whose tensors are averaged.
        server_mixing: Blend factor between the GM tensor and the client
            average on the selected tensors.
    """

    name = "fedhil-selective"

    def __init__(self, aggregate_fraction: float = 0.5, server_mixing: float = 1.0):
        if not 0.0 < aggregate_fraction <= 1.0:
            raise ValueError(
                f"aggregate_fraction must be in (0, 1], got {aggregate_fraction}"
            )
        if not 0.0 < server_mixing <= 1.0:
            raise ValueError(
                f"server_mixing must be in (0, 1], got {server_mixing}"
            )
        self.aggregate_fraction = float(aggregate_fraction)
        self.server_mixing = float(server_mixing)

    def selected_keys(self, global_state: StateDict) -> List[str]:
        """The tensor names that get aggregated (deepest layers first)."""
        depths = sorted({_layer_depth(key) for key in global_state})
        num_selected = max(1, int(round(self.aggregate_fraction * len(depths))))
        selected_depths = set(depths[-num_selected:])
        return [
            key for key in global_state if _layer_depth(key) in selected_depths
        ]

    def aggregate(
        self,
        global_state: StateDict,
        updates: Sequence[ClientUpdate],
    ) -> StateDict:
        """Average the selected tensors; unselected ones keep the GM.

        Works per key rather than on the packed cohort: only the selected
        tensors are touched, so packing the whole state would be pure
        overhead.
        """
        updates = self._require_updates(updates)
        eta = self.server_mixing
        selected = set(self.selected_keys(global_state))
        new_state: StateDict = {}
        for key, gm_tensor in global_state.items():
            if key in selected:
                mean = np.mean([u.state[key] for u in updates], axis=0)
                new_state[key] = (1.0 - eta) * gm_tensor + eta * mean
            else:
                new_state[key] = gm_tensor.copy()
        return new_state


def make_fedhil(input_dim: int, num_classes: int, seed: int = 0) -> FrameworkSpec:
    """FEDHIL framework bundle."""
    return FrameworkSpec(
        name="fedhil",
        model_factory=lambda: DNNLocalizer(
            input_dim, num_classes, hidden=FEDHIL_HIDDEN, seed=seed
        ),
        strategy=SelectiveAggregation(),
        description="FEDHIL: DNN + selective weight-tensor aggregation [9]",
    )

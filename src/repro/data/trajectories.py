"""User-trajectory simulation over a building's reference-point graph.

The paper's data protocol samples fingerprints per RP independently; real
deployments (and the AR/VR / navigation use cases of §I) observe
*sequences* of fingerprints along walking paths.  This module builds the
RP adjacency graph (networkx), plans waypoint-to-waypoint walks, and
emits time-correlated fingerprint sequences — the substrate for tracking
examples and for trajectory-aware extensions of the framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.data.buildings import Building
from repro.data.datasets import FingerprintDataset
from repro.data.devices import DeviceProfile
from repro.data.fingerprints import FingerprintCollector

# networkx is imported where a graph is built or walked, so importing
# repro.data (every process does) does not load it
if TYPE_CHECKING:
    import networkx as nx


def build_rp_graph(building: Building, max_edge_m: float = 1.5) -> nx.Graph:
    """Adjacency graph of the building's reference points.

    Two RPs are connected when they are at most ``max_edge_m`` apart —
    with the serpentine survey paths this links consecutive corridor
    points.  Row ends are additionally linked to the nearest RP of the
    next row so the graph is connected (walkable corridors).
    """
    import networkx as nx

    if max_edge_m <= 0:
        raise ValueError("max_edge_m must be positive")
    graph = nx.Graph()
    graph.add_nodes_from(range(building.num_rps))
    dist = building.rp_distance_matrix()
    for i in range(building.num_rps):
        for j in range(i + 1, building.num_rps):
            if dist[i, j] <= max_edge_m:
                graph.add_edge(i, j, weight=float(dist[i, j]))
    # stitch disconnected components through their mutually closest RPs
    components = list(nx.connected_components(graph))
    while len(components) > 1:
        base = components[0]
        best: Optional[Tuple[int, int]] = None
        best_d = np.inf
        for other in components[1:]:
            for i in base:
                for j in other:
                    if dist[i, j] < best_d:
                        best_d = dist[i, j]
                        best = (i, j)
        assert best is not None
        graph.add_edge(*best, weight=float(best_d))
        components = list(nx.connected_components(graph))
    return graph


@dataclass
class Trajectory:
    """One simulated walk: visited RP indices and their fingerprints.

    Attributes:
        rp_sequence: ``(t,)`` RP index at each step.
        fingerprints: ``(t, num_aps)`` normalized RSS observed at each step.
        device: Device the walk was recorded with.
    """

    rp_sequence: np.ndarray
    fingerprints: np.ndarray
    device: str

    def __len__(self) -> int:
        return int(self.rp_sequence.shape[0])

    def as_dataset(self, building_name: str = "") -> FingerprintDataset:
        """Flatten the walk into a labelled dataset."""
        return FingerprintDataset(
            self.fingerprints,
            self.rp_sequence,
            building=building_name,
            device=self.device,
        )


class TrajectorySimulator:
    """Random-waypoint walks with per-step fingerprint observation.

    Args:
        collector: Fingerprint source for the building (owns the frozen
            shadowing field, so trajectories are consistent with the
            training surveys).
        max_edge_m: RP graph connectivity radius.
    """

    def __init__(self, collector: FingerprintCollector, max_edge_m: float = 1.5):
        self.collector = collector
        self.building = collector.building
        self.graph = build_rp_graph(self.building, max_edge_m)

    def plan_walk(
        self,
        num_waypoints: int,
        rng: np.random.Generator,
        start: Optional[int] = None,
    ) -> List[int]:
        """Random-waypoint RP sequence: shortest paths between random
        waypoints, concatenated."""
        import networkx as nx

        if num_waypoints <= 0:
            raise ValueError("num_waypoints must be positive")
        current = int(rng.integers(self.building.num_rps)) if start is None else int(start)
        if not 0 <= current < self.building.num_rps:
            raise ValueError(f"start RP {current} out of range")
        path: List[int] = [current]
        for _ in range(num_waypoints):
            target = int(rng.integers(self.building.num_rps))
            hop = nx.shortest_path(self.graph, current, target, weight="weight")
            path.extend(int(n) for n in hop[1:])
            current = target
        return path

    def observe(
        self,
        rp_sequence: List[int],
        device: DeviceProfile,
        rng: np.random.Generator,
    ) -> Trajectory:
        """Record the fingerprints a device would see along a walk.

        Each step re-samples multipath and device noise (a fresh scan) on
        the building's frozen shadowing field.
        """
        if not rp_sequence:
            raise ValueError("empty rp_sequence")
        survey = self.collector.collect(device, 1)
        true_rows = survey.features  # one fingerprint per RP, same walls
        steps = []
        for rp in rp_sequence:
            base = true_rows[rp]
            jitter = rng.normal(0.0, 0.01, size=base.shape)
            steps.append(np.clip(base + jitter, 0.0, 1.0))
        return Trajectory(
            rp_sequence=np.asarray(rp_sequence, dtype=np.int64),
            fingerprints=np.stack(steps),
            device=device.name,
        )

    def simulate(
        self,
        device: DeviceProfile,
        num_waypoints: int,
        rng: np.random.Generator,
    ) -> Trajectory:
        """Plan and observe one walk."""
        walk = self.plan_walk(num_waypoints, rng)
        return self.observe(walk, device, rng)


def tracking_error(
    predictions: np.ndarray, trajectory: Trajectory, building: Building
) -> np.ndarray:
    """Per-step metre error of a predicted RP sequence along a walk."""
    predictions = np.asarray(predictions, dtype=np.int64)
    if predictions.shape != trajectory.rp_sequence.shape:
        raise ValueError(
            f"prediction length {predictions.shape} != trajectory "
            f"{trajectory.rp_sequence.shape}"
        )
    dist = building.rp_distance_matrix()
    return dist[predictions, trajectory.rp_sequence]

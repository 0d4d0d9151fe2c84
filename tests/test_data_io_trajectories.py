"""Tests for CSV import/export and trajectory simulation."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import repro
from repro.data import (
    FingerprintCollector,
    FingerprintDataset,
    TrajectorySimulator,
    build_rp_graph,
    load_csv,
    save_csv,
    scaled_building,
    tracking_error,
)
from repro.data.devices import paper_devices
from repro.data.io import UJI_NOT_DETECTED
from repro.utils.rng import SeedSequence


@pytest.fixture(scope="module")
def building():
    return scaled_building("building5", 0.2, 0.25)


@pytest.fixture()
def dataset(building):
    rng = np.random.default_rng(0)
    n = 20
    return FingerprintDataset(
        rng.uniform(0, 1, size=(n, building.num_aps)),
        rng.integers(0, building.num_rps, size=n),
        building="building5",
        device="HTC U11",
    )


def test_importing_the_package_leaves_networkx_unloaded():
    """Only the trajectory graph needs networkx; importing the data and
    experiment packages must not load it."""
    code = (
        "import sys, repro.data, repro.experiments.engine\n"
        "print('networkx' in sys.modules)\n"
    )
    src = Path(repro.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "False"


class TestCsvRoundTrip:
    def test_round_trip_features_and_labels(self, dataset, tmp_path):
        path = save_csv(dataset, str(tmp_path / "fp.csv"))
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.labels, dataset.labels)
        np.testing.assert_allclose(
            loaded.features, dataset.features, atol=0.005
        )  # dBm written at 2 decimals → ≤0.005 in unit scale

    def test_metadata_preserved(self, dataset, tmp_path):
        path = save_csv(dataset, str(tmp_path / "fp.csv"))
        loaded = load_csv(path)
        assert loaded.building == "building5"
        assert loaded.device == "HTC U11"

    def test_floor_written_as_uji_sentinel(self, building, tmp_path):
        ds = FingerprintDataset(
            np.zeros((2, building.num_aps)),  # all at the floor
            np.zeros(2, dtype=int),
        )
        path = save_csv(ds, str(tmp_path / "floor.csv"))
        with open(path) as handle:
            handle.readline()
            row = handle.readline().split(",")
        assert float(row[0]) == UJI_NOT_DETECTED
        loaded = load_csv(path)
        np.testing.assert_allclose(loaded.features, 0.0)

    def test_header_validation(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("A,B\n1,2\n")
        with pytest.raises(ValueError, match="WAP"):
            load_csv(str(bad))
        bad.write_text("WAP001,NOPE\n1,2\n")
        with pytest.raises(ValueError, match="LABEL"):
            load_csv(str(bad))

    def test_malformed_row(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("WAP001,LABEL\nnot-a-number,0\n")
        with pytest.raises(ValueError, match="malformed"):
            load_csv(str(bad))

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(str(empty))

    def test_no_rows(self, tmp_path):
        head = tmp_path / "head.csv"
        head.write_text("WAP001,LABEL\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(str(head))


class TestRpGraph:
    def test_graph_connected(self, building):
        graph = build_rp_graph(building)
        assert nx.is_connected(graph)
        assert graph.number_of_nodes() == building.num_rps

    def test_adjacent_rps_linked(self, building):
        graph = build_rp_graph(building)
        assert graph.has_edge(0, 1)

    def test_edge_weights_are_distances(self, building):
        graph = build_rp_graph(building)
        dist = building.rp_distance_matrix()
        for i, j, data in graph.edges(data=True):
            assert data["weight"] == pytest.approx(dist[i, j])

    def test_invalid_radius(self, building):
        with pytest.raises(ValueError):
            build_rp_graph(building, max_edge_m=0.0)


class TestTrajectorySimulator:
    @pytest.fixture(scope="class")
    def simulator(self, building):
        collector = FingerprintCollector(building, seeds=SeedSequence(5))
        return TrajectorySimulator(collector)

    def test_walk_steps_are_graph_edges(self, simulator):
        walk = simulator.plan_walk(4, np.random.default_rng(0))
        for a, b in zip(walk, walk[1:]):
            assert simulator.graph.has_edge(a, b) or a == b

    def test_walk_contains_waypoints(self, simulator):
        walk = simulator.plan_walk(6, np.random.default_rng(1))
        assert len(walk) >= 2

    def test_observe_matches_walk_length(self, simulator):
        rng = np.random.default_rng(2)
        device = paper_devices()["HTC U11"]
        walk = simulator.plan_walk(3, rng)
        traj = simulator.observe(walk, device, rng)
        assert len(traj) == len(walk)
        assert traj.fingerprints.shape == (
            len(walk), simulator.building.num_aps
        )
        assert traj.device == "HTC U11"

    def test_fingerprints_in_unit_box(self, simulator):
        traj = simulator.simulate(
            paper_devices()["LG V20"], 5, np.random.default_rng(3)
        )
        assert traj.fingerprints.min() >= 0.0
        assert traj.fingerprints.max() <= 1.0

    def test_as_dataset(self, simulator):
        traj = simulator.simulate(
            paper_devices()["OnePlus 3"], 4, np.random.default_rng(4)
        )
        ds = traj.as_dataset("building5")
        assert len(ds) == len(traj)
        assert ds.building == "building5"

    def test_validation(self, simulator):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulator.plan_walk(0, rng)
        with pytest.raises(ValueError):
            simulator.plan_walk(2, rng, start=10_000)
        with pytest.raises(ValueError):
            simulator.observe([], paper_devices()["HTC U11"], rng)

    def test_tracking_error(self, simulator, building):
        traj = simulator.simulate(
            paper_devices()["HTC U11"], 3, np.random.default_rng(5)
        )
        perfect = tracking_error(traj.rp_sequence, traj, building)
        np.testing.assert_allclose(perfect, 0.0)
        with pytest.raises(ValueError):
            tracking_error(traj.rp_sequence[:-1], traj, building)

    def test_trained_model_tracks_walk(self, simulator, building):
        """A trained localizer follows a trajectory with low error."""
        from repro.baselines import DNNLocalizer

        collector = simulator.collector
        train = collector.collect(paper_devices()["Motorola Z2"], 4)
        model = DNNLocalizer(building.num_aps, building.num_rps,
                             hidden=(48,), seed=0)
        model.train_epochs(train, epochs=60, lr=0.005,
                           rng=np.random.default_rng(0))
        traj = simulator.simulate(
            paper_devices()["HTC U11"], 4, np.random.default_rng(6)
        )
        preds = model.predict(traj.fingerprints)
        errors = tracking_error(preds, traj, building)
        assert errors.mean() < 3.0

"""Trajectory tracking: following a walking user through a building.

The §I use cases (indoor navigation, AR/VR) localize *moving* users.
This example plans random-waypoint walks over the reference-point graph,
records the fingerprint stream a phone would observe, and compares
SAFELOC's per-step tracking error against an undefended DNN — with and
without an FGSM backdoor perturbing the stream mid-walk.

Run:  python examples/trajectory_tracking.py
"""

import numpy as np

from repro.attacks import FGSM
from repro.baselines import DNNLocalizer
from repro.core import SafeLocModel
from repro.data import (
    FingerprintCollector,
    FingerprintDataset,
    TrajectorySimulator,
    scaled_building,
    tracking_error,
)
from repro.data.devices import paper_devices
from repro.utils.rng import SeedSequence, spawn_rng
from repro.utils.tables import format_table


def main() -> None:
    building = scaled_building("building5", rp_fraction=0.4, ap_fraction=0.5)
    collector = FingerprintCollector(building, seeds=SeedSequence(3))
    simulator = TrajectorySimulator(collector)
    devices = paper_devices()

    # central training data (paper protocol device)
    train = collector.collect(devices["Motorola Z2"], 5)
    rng = np.random.default_rng(3)

    safeloc = SafeLocModel(building.num_aps, building.num_rps, seed=3)
    safeloc.train_epochs(train, epochs=250, lr=0.003, rng=rng, trusted=True)
    dnn = DNNLocalizer(building.num_aps, building.num_rps, seed=3)
    dnn.train_epochs(train, epochs=120, lr=0.005, rng=rng)

    # one walk per test device
    rows = []
    for name in ("Samsung Galaxy S7", "LG V20", "HTC U11"):
        walk_rng = spawn_rng(3, f"walk/{name}")
        trajectory = simulator.simulate(devices[name], 6, walk_rng)

        clean_safeloc = tracking_error(
            safeloc.predict(trajectory.fingerprints), trajectory, building
        ).mean()
        clean_dnn = tracking_error(
            dnn.predict(trajectory.fingerprints), trajectory, building
        ).mean()

        # FGSM-perturb the second half of the walk (attacker hijacks the
        # stream mid-session)
        half = len(trajectory) // 2
        as_dataset = FingerprintDataset(
            trajectory.fingerprints[half:], trajectory.rp_sequence[half:]
        )
        report = FGSM(0.3).poison(
            as_dataset, safeloc.gradient_oracle(), walk_rng
        )
        poisoned_stream = trajectory.fingerprints.copy()
        poisoned_stream[half:] = report.dataset.features

        pois_safeloc = tracking_error(
            safeloc.predict(poisoned_stream), trajectory, building
        ).mean()
        pois_dnn = tracking_error(
            dnn.predict(poisoned_stream), trajectory, building
        ).mean()
        rows.append(
            (name, len(trajectory), clean_safeloc, clean_dnn,
             pois_safeloc, pois_dnn)
        )

    print(format_table(
        ["device", "steps", "SAFELOC clean", "DNN clean",
         "SAFELOC poisoned", "DNN poisoned"],
        rows,
        title="Per-step tracking error (m) along random walks",
    ))


if __name__ == "__main__":
    main()

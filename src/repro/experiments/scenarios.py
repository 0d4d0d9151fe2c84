"""Experiment presets.

Three scales, identical code paths:

* ``tiny``  — seconds; used by the integration tests,
* ``fast``  — minutes; used by the benchmark harness (``benchmarks/``),
* ``paper`` — the paper's §V.A configuration (700 pre-train epochs, all
  five buildings at full size, full ε grids); hours of CPU, runnable from
  the example scripts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

from repro.data.buildings import Building, get_building, scaled_building
from repro.fl.server import ClientEngine
from repro.fl.simulation import FederationConfig
from repro.nn.dtype import ComputeDtype
from repro.registry import registry
from repro.utils.records import from_json, to_json


@dataclass(frozen=True)
class Preset:
    """Everything an experiment driver needs to size a run.

    Attributes:
        name: Preset label (appears in reports).
        seed: Root seed for data, models, attacks and client sampling.
        buildings: Building names evaluated.
        rp_fraction / ap_fraction: Building down-scaling (1.0 = paper size).
        num_clients / num_malicious: Federation shape (paper: 6 / 1).
        num_rounds: Federation rounds after pre-training.
        client_epochs / client_lr: Honest-client schedule.
        malicious_epochs / malicious_lr: Attacker schedule (threat model:
            the adversary trains to convergence).
        client_fingerprints_per_rp: Local data volume.
        pretrain_epochs / pretrain_lr: Centralized warm-up (paper: 700 at
            1e-3).
        epsilon_grid: ε values for the Fig. 5 sweep.
        tau_grid: τ values for the Fig. 4 sweep.
        attacks: Attack names exercised (all five of §III.A).
        default_epsilon: ε used where a single attack strength is needed
            (Fig. 1 / Fig. 6 / Fig. 7).
        scalability_grid: (total, poisoned) client pairs for Fig. 7.
        latency_repeats: Timing repetitions for Table I.
    """

    name: str
    seed: int = 42
    buildings: Tuple[str, ...] = ("building5",)
    rp_fraction: float = 0.3
    ap_fraction: float = 0.4
    num_clients: int = 6
    num_malicious: int = 1
    num_rounds: int = 6
    client_epochs: int = 10
    client_lr: float = 0.003
    malicious_epochs: int = 40
    malicious_lr: float = 0.01
    client_fingerprints_per_rp: int = 2
    pretrain_epochs: int = 350
    pretrain_lr: float = 0.003
    epsilon_grid: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.2, 0.5, 1.0)
    tau_grid: Tuple[float, ...] = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5)
    attacks: Tuple[str, ...] = ("clb", "fgsm", "pgd", "mim", "label_flip")
    default_epsilon: float = 0.5
    scalability_grid: Tuple[Tuple[int, int], ...] = ((6, 1), (12, 3), (18, 6), (24, 12))
    latency_repeats: int = 30
    #: client execution engine: "serial" (clients train one at a time) or
    #: "batched" (fold-stacked cohort training); both run each model's
    #: one training program, identical at float64 — see
    #: :mod:`repro.fl.batched_round`
    client_engine: ClientEngine = "serial"
    #: numpy float width the whole stack computes at ("float64" is the
    #: bit-for-bit reference; "float32" halves state memory/bandwidth —
    #: see the ``fast32`` preset)
    compute_dtype: ComputeDtype = "float64"

    def building(self, name: str) -> Building:
        """Materialize one of the preset's buildings at the preset scale."""
        if self.rp_fraction >= 1.0 and self.ap_fraction >= 1.0:
            return get_building(name, seed=self.seed)
        return scaled_building(
            name, self.rp_fraction, self.ap_fraction, seed=self.seed
        )

    def federation_config(
        self,
        num_malicious: int = None,
        num_clients: int = None,
    ) -> FederationConfig:
        """The preset's federation shape, optionally overridden."""
        return FederationConfig(
            num_clients=self.num_clients if num_clients is None else num_clients,
            num_malicious=(
                self.num_malicious if num_malicious is None else num_malicious
            ),
            client_fingerprints_per_rp=self.client_fingerprints_per_rp,
            client_epochs=self.client_epochs,
            client_lr=self.client_lr,
            malicious_epochs=self.malicious_epochs,
            malicious_lr=self.malicious_lr,
            num_rounds=self.num_rounds,
            pretrain_epochs=self.pretrain_epochs,
            pretrain_lr=self.pretrain_lr,
            client_engine=self.client_engine,
        )

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-native payload (tuples as lists) losslessly describing
        this preset; :meth:`from_dict` inverts it exactly."""
        return to_json(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Preset":
        """Rebuild a preset from :meth:`to_dict` output (or a hand-written
        spec file): an integer in a float field reads as a float, and an
        unknown field raises with a did-you-mean hint."""
        return from_json(cls, payload)


def tiny_preset(seed: int = 42) -> Preset:
    """Seconds-scale preset for tests: one small building, few rounds."""
    return Preset(
        name="tiny",
        seed=seed,
        buildings=("building5",),
        rp_fraction=0.2,
        ap_fraction=0.3,
        num_rounds=2,
        client_epochs=4,
        malicious_epochs=15,
        pretrain_epochs=150,
        epsilon_grid=(0.1, 0.5),
        tau_grid=(0.05, 0.1, 0.3),
        scalability_grid=((4, 1), (8, 2)),
        latency_repeats=5,
    )


def fast_preset(seed: int = 42) -> Preset:
    """Minutes-scale preset used by the benchmark harness."""
    return Preset(name="fast", seed=seed)


def fast32_preset(seed: int = 42) -> Preset:
    """The ``fast`` preset on the float32 compute path.

    Exercises the half-width substrate end-to-end (layers, optimizers,
    state algebra, packed aggregation).  Expect small accuracy drift vs
    ``fast`` — localization predictions are discrete, so most cells
    match float64 exactly; the drift tolerance is pinned by
    ``tests/test_sweep_engine.py::TestFast32Preset``.
    """
    return replace(fast_preset(seed), name="fast32", compute_dtype="float32")


def paper_preset(seed: int = 42) -> Preset:
    """The paper's §V.A configuration — hours of CPU."""
    return Preset(
        name="paper",
        seed=seed,
        buildings=(
            "building1",
            "building2",
            "building3",
            "building4",
            "building5",
        ),
        rp_fraction=1.0,
        ap_fraction=1.0,
        num_rounds=10,
        client_epochs=5,
        client_lr=0.0001,
        malicious_epochs=50,
        malicious_lr=0.001,
        client_fingerprints_per_rp=2,
        pretrain_epochs=700,
        pretrain_lr=0.001,
        epsilon_grid=(
            0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09,
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
        ),
        tau_grid=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5),
        scalability_grid=((6, 1), (12, 3), (18, 6), (24, 12)),
        latency_repeats=100,
    )


for _name, _factory, _paper, _doc in (
    ("tiny", tiny_preset, False,
     "Seconds-scale preset for tests: one small building, few rounds"),
    ("fast", fast_preset, False,
     "Minutes-scale preset used by the benchmark harness"),
    ("fast32", fast32_preset, False,
     "The fast preset on the float32 compute path"),
    ("paper", paper_preset, True,
     "The paper's §V.A configuration — hours of CPU"),
):
    registry.add("presets", _name, _factory, paper=_paper, doc=_doc)


def get_preset(name: str, seed: int = 42) -> Preset:
    """Preset lookup by name (did-you-mean on unknown names)."""
    return registry.create("presets", name, seed)

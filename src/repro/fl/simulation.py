"""Federation assembly: client datasets, attacker placement, server wiring.

Implements the paper's deployment picture: each FL client is a mobile
device surveying the building with its own hardware profile.  With six
clients the device mapping is one-to-one with the paper's phones; larger
federations (the Fig. 7 scalability sweep) cycle through the profiles.
Malicious clients always use the attacker device (HTC U11, §V.B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


from repro.attacks.base import Attack
from repro.data.buildings import Building
from repro.data.datasets import FingerprintDataset
from repro.data.devices import ATTACKER_DEVICE, TRAIN_DEVICE, paper_devices
from repro.data.fingerprints import FingerprintCollector
from repro.fl.aggregation import AggregationStrategy
from repro.fl.client import ClientConfig, FederatedClient
from repro.fl.interfaces import LocalizationModel
from repro.fl.server import CLIENT_ENGINES, FederatedServer
from repro.utils.rng import SeedSequence


@dataclass
class FederationConfig:
    """Shape of one federated experiment.

    Attributes:
        num_clients: Total clients (paper default 6).
        num_malicious: How many clients attack (paper default 1).
        client_fingerprints_per_rp: Local data volume per client.
        client_epochs / client_lr / batch_size: Honest client training
            hyperparameters (§V.A: 5 epochs at a reduced learning rate).
        malicious_epochs / malicious_lr: Attacker training schedule.  The
            threat model gives the adversary full control of their device,
            so they train their poisoned LM to convergence instead of the
            light honest schedule; ``None`` falls back to the honest
            values (protocol-compliant-attacker ablation).
        num_rounds: Federation rounds to run.
        pretrain_epochs / pretrain_lr: Server warm-up schedule (the paper
            uses 700 Adam epochs at 1e-3; fast presets shrink this).
        client_engine: ``"serial"`` (per-client Python loop, the bit-exact
            reference) or ``"batched"`` (fold-stacked cohort training, one
            3-D matmul program per round — see
            :mod:`repro.fl.batched_round`).  Bit-identical at float64.
    """

    num_clients: int = 6
    num_malicious: int = 1
    client_fingerprints_per_rp: int = 2
    client_epochs: int = 5
    client_lr: float = 0.0001
    malicious_epochs: Optional[int] = None
    malicious_lr: Optional[float] = None
    batch_size: int = 32
    num_rounds: int = 3
    pretrain_epochs: int = 60
    pretrain_lr: float = 0.001
    client_engine: str = "serial"

    def __post_init__(self):
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if self.client_engine not in CLIENT_ENGINES:
            raise ValueError(
                f"unknown client_engine {self.client_engine!r}; "
                f"expected one of {CLIENT_ENGINES}"
            )
        if not 0 <= self.num_malicious <= self.num_clients:
            raise ValueError(
                "num_malicious must be between 0 and num_clients, got "
                f"{self.num_malicious}/{self.num_clients}"
            )

    @property
    def attacker_epochs(self) -> int:
        return self.malicious_epochs if self.malicious_epochs is not None else self.client_epochs

    @property
    def attacker_lr(self) -> float:
        return self.malicious_lr if self.malicious_lr is not None else self.client_lr


def build_client_datasets(
    building: Building,
    config: FederationConfig,
    seeds: SeedSequence,
) -> List[Tuple[str, str, FingerprintDataset]]:
    """Collect one local dataset per client.

    Returns ``(client_name, device_name, dataset)`` triples.  The first
    ``num_malicious`` clients are the attackers and survey with the HTC U11
    (§V.B); honest clients cycle through the remaining profiles, skipping
    the server's training device so the federation exercises heterogeneity.
    """
    devices = paper_devices()
    honest_names = [
        name for name in devices
        if name not in (ATTACKER_DEVICE, TRAIN_DEVICE)
    ]
    collector = FingerprintCollector(building, seeds=seeds.child("collection"))
    out: List[Tuple[str, str, FingerprintDataset]] = []
    for idx in range(config.num_clients):
        if idx < config.num_malicious:
            device_name = ATTACKER_DEVICE
        else:
            device_name = honest_names[(idx - config.num_malicious) % len(honest_names)]
        dataset = collector.collect(
            devices[device_name], config.client_fingerprints_per_rp
        )
        out.append((f"client-{idx}", device_name, dataset))
    return out


def build_federation(
    building: Building,
    model_factory: Callable[[], LocalizationModel],
    strategy: AggregationStrategy,
    config: FederationConfig,
    seeds: SeedSequence,
    attack_factory: Optional[Callable[[], Attack]] = None,
) -> FederatedServer:
    """Wire a complete federation for one building.

    Args:
        building: Floorplan under evaluation.
        model_factory: Builds one fresh framework model; called once for
            the GM and once per client (clients own local copies).
        strategy: Server aggregation strategy.
        config: Federation shape.
        seeds: Root seed sequence for the whole experiment.
        attack_factory: Builds the attack instance for each malicious
            client; required when ``config.num_malicious > 0``.
    """
    if config.num_malicious > 0 and attack_factory is None:
        raise ValueError("num_malicious > 0 requires an attack_factory")
    honest_config = ClientConfig(
        epochs=config.client_epochs,
        lr=config.client_lr,
        batch_size=config.batch_size,
    )
    malicious_config = ClientConfig(
        epochs=config.attacker_epochs,
        lr=config.attacker_lr,
        batch_size=config.batch_size,
    )
    clients: List[FederatedClient] = []
    for idx, (name, device_name, dataset) in enumerate(
        build_client_datasets(building, config, seeds)
    ):
        malicious = idx < config.num_malicious
        clients.append(
            FederatedClient(
                name=name,
                model=model_factory(),
                dataset=dataset,
                config=malicious_config if malicious else honest_config,
                attack=attack_factory() if malicious else None,
                seeds=seeds.child(f"client-{idx}"),
            )
        )
    return FederatedServer(
        model=model_factory(),
        strategy=strategy,
        clients=clients,
        seeds=seeds.child("server"),
        client_engine=config.client_engine,
    )

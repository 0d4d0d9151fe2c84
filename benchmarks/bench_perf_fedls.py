"""Fold-batched vs serial FEDLS detection benchmarks (perf trajectory).

FEDLS trains one leave-one-out autoencoder per client per round — the
dominant cost of any FEDLS sweep.  This suite times the fold-batched
detectors (all folds in one stacked training loop) against the per-fold
reference loop in ``tests/reference/fedls.py`` on identical inputs,
**re-asserting equivalence on every run**:

* ``detector_fit`` — the round's full leave-one-out detection at
  8/32/128 clients, serial vs batched, max |error diff| pinned ≤1e-10;
* ``client_round`` — one full federation round, the serial per-client
  loop vs the fold-batched client engine (``client_engine="batched"``)
  at 8/32/128/512 clients, with every update state compared bit for bit;
* ``composite_round`` — the same serial-vs-batched federation round for
  the *composite* models the paper's headline stack runs on: SAFELOC's
  denoiser+classifier pipeline and ONLAD's detector+localizer pair,
  fold-stacked through the composite stackers, bit-identity asserted;
* ``sampled_peers`` — FEDLS detection with the O(n·k) seeded peer
  sampling vs the full O(n²) leave-one-out program, plus the agreement
  of the batched sampled path with the reference loop (≤1e-10, the
  exact contract);
* ``shared_encoder`` — the O(n) shared-encoder detector (one pooled
  encoder, per-fold batched decoder heads) vs the full per-fold
  leave-one-out fit at 64/256 clients.  Approximate by design, so the
  gate is decision-level: the kept set must match the exact detector's;
* ``train_step`` — µs per phase (zero, forward, loss, backward, Adam)
  of one paper-shape SAFELOC pre-train step and one 32-fold DNN cohort
  step, plus whether a run of pre-train epochs equals the serial
  reference loop of ``tests/reference/training.py`` bit for bit (an
  equivalence gate);
* ``aggregate_memory`` — the ``tracemalloc`` peak of one FEDLS
  aggregate (summaries, leave-one-out detection, weighted mean) over a
  cohort of FEDLS-width client states at 8/32/128 clients, above its
  inputs.  ``client_round`` cells likewise record each engine's round
  peak.  Peaks come from one extra untimed call, since tracing slows
  every allocation.

``scripts/run_benchmarks.py --suite fedls`` runs it and writes
``BENCH_fedls.json`` at the repo root; any equivalence failure makes the
runner exit non-zero, so bench runs double as a correctness gate.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
import tracemalloc
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.baselines.dnn import DNNLocalizer
from repro.baselines.fedls import (
    FEDLS_HIDDEN,
    LatentSpaceAggregation,
    robust_normalize,
)
from repro.data import FingerprintDataset
from repro.fl import ClientUpdate, FedAvg, FederatedClient, FederatedServer
from repro.fl.client import ClientConfig
from repro.utils.rng import SeedSequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
JSON_PATH = os.path.join(REPO_ROOT, "BENCH_fedls.json")

sys.path.insert(0, os.path.join(REPO_ROOT, "tests"))
from reference.fedls import serial_loo_errors  # noqa: E402

#: the acceptance cell: batched must beat serial ≥ 3× here
HEADLINE_CLIENTS = 32
CLIENT_COUNTS = (8, 32, 128)

#: summary width of the real FEDLS client DNN (4 stats × 6 tensors)
FEATURE_DIM = 24
OUTLIER_FACTOR = 3.0


def _normalized_summaries(n_clients: int, seed: int) -> np.ndarray:
    """Synthetic round summaries: honest cluster + one strong outlier,
    already median/MAD normalized like the aggregation pipeline's."""
    rng = np.random.default_rng(seed)
    summaries = rng.normal(size=(n_clients, FEATURE_DIM))
    summaries[-1] += rng.normal(loc=8.0, scale=1.0, size=FEATURE_DIM)
    return robust_normalize(summaries)


def _kept_mask(errors: np.ndarray) -> np.ndarray:
    return errors <= OUTLIER_FACTOR * (np.median(errors) + 1e-12)


def _traced_peak_mb(call: Callable[[], object]) -> float:
    """``call()``'s ``tracemalloc`` peak in MB above the memory traced
    when it started."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round((peak - start) / 2**20, 2)


def bench_detector_fit(
    client_counts: Sequence[int] = CLIENT_COUNTS,
    epochs: int = 120,
    repeats: int = 3,
) -> Dict[str, dict]:
    """Reference per-fold loop vs batched leave-one-out detection on
    identical summaries."""
    cells: Dict[str, dict] = {}
    for n_clients in client_counts:
        normalized = _normalized_summaries(n_clients, seed=n_clients)
        strategy = LatentSpaceAggregation(detector_epochs=epochs, seed=0)
        serial_best = batched_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            serial_errors = serial_loo_errors(strategy, normalized, 1)
            serial_best = min(serial_best, time.perf_counter() - start)
            start = time.perf_counter()
            batched_errors = strategy.leave_one_out_errors(normalized, 1)
            batched_best = min(batched_best, time.perf_counter() - start)
        max_diff = float(np.abs(serial_errors - batched_errors).max())
        cells[str(n_clients)] = {
            "epochs": epochs,
            "serial_ms": round(serial_best * 1e3, 2),
            "batched_ms": round(batched_best * 1e3, 2),
            "speedup": round(serial_best / batched_best, 2),
            "max_abs_error_diff": max_diff,
            "same_kept_set": bool(
                np.array_equal(
                    _kept_mask(serial_errors), _kept_mask(batched_errors)
                )
            ),
            "equivalence_ok": bool(max_diff < 1e-10),
        }
    return cells


#: client-round suite shape (synthetic cohort, DNN clients)
ROUND_FEATURES, ROUND_CLASSES = 14, 6
ROUND_SAMPLES, ROUND_EPOCHS, ROUND_BATCH = 48, 5, 8
ROUND_CLIENT_COUNTS = (8, 32, 128, 512)


def _dnn_model(seed: int):
    return DNNLocalizer(ROUND_FEATURES, ROUND_CLASSES, hidden=(32,), seed=seed)


def _safeloc_model(seed: int):
    from repro.core.safeloc import SafeLocModel

    # tau=5.0: the denoiser screen keeps every sample, so all folds share
    # one dataset length and the cohort stacks as a single group.  At the
    # paper tau the untrained denoiser flags random subsets on round 1,
    # fragmenting the cohort into same-kept-count groups (still correct —
    # the serial-tail fallback covers singletons — but it measures the
    # fallback, not the stacking)
    return SafeLocModel(
        ROUND_FEATURES, ROUND_CLASSES, seed=seed, encoder_widths=(16, 8),
        tau=5.0,
    )


def _onlad_model(seed: int):
    from repro.baselines.onlad import OnDeviceAnomalyModel

    # tau=0.9: nothing is screened out, so every fold keeps its whole
    # dataset and the cohort groups into one stacked program (lower taus
    # leave each fold a different kept count → singleton serial groups)
    return OnDeviceAnomalyModel(ROUND_FEATURES, ROUND_CLASSES, tau=0.9, seed=seed)


#: the composite models the paper's headline stack federates
COMPOSITE_MODELS = {"safeloc": _safeloc_model, "onlad": _onlad_model}


def _round_cohort(n_clients: int, model_factory=_dnn_model) -> List[FederatedClient]:
    """n honest clients on private synthetic surveys (fresh models)."""
    clients = []
    for i in range(n_clients):
        rng = np.random.default_rng(10_000 + i)
        dataset = FingerprintDataset(
            rng.uniform(0, 1, size=(ROUND_SAMPLES, ROUND_FEATURES)),
            rng.integers(0, ROUND_CLASSES, size=ROUND_SAMPLES),
        )
        clients.append(
            FederatedClient(
                f"c{i}",
                model_factory(i),
                dataset,
                ClientConfig(epochs=ROUND_EPOCHS, lr=0.01, batch_size=ROUND_BATCH),
                seeds=SeedSequence(100 + i),
            )
        )
    return clients


def _engine_server(engine: str, n_clients: int, model_factory=_dnn_model):
    """A fresh FedAvg federation over the synthetic cohort."""
    return FederatedServer(
        model_factory(999),
        FedAvg(),
        _round_cohort(n_clients, model_factory),
        seeds=SeedSequence(7),
        client_engine=engine,
    )


def _run_engine_round(engine: str, n_clients: int, model_factory=_dnn_model):
    """One federation round under one client engine; returns (seconds,
    update list, final GM state)."""
    server = _engine_server(engine, n_clients, model_factory)
    start = time.perf_counter()
    record = server.run_round()
    elapsed = time.perf_counter() - start
    return elapsed, record.updates, server.model.state_dict()


def _updates_identical(a, b) -> bool:
    if len(a) != len(b):
        return False
    for u_a, u_b in zip(a, b):
        if u_a.train_loss != u_b.train_loss:
            return False
        for key in u_a.state:
            if not np.array_equal(u_a.state[key], u_b.state[key]):
                return False
    return True


def bench_client_round(
    client_counts: Sequence[int] = ROUND_CLIENT_COUNTS,
    repeats: int = 3,
) -> Dict[str, dict]:
    """Serial per-client loop vs the fold-batched client engine, one full
    federation round (broadcast, self-label, train, aggregate) on
    identical cohorts; every client update compared bit for bit.  Each
    engine's round peak is traced on one more fresh federation."""
    cells: Dict[str, dict] = {}
    for n_clients in client_counts:
        serial_best = batched_best = float("inf")
        for _ in range(repeats):
            serial_s, serial_updates, serial_gm = _run_engine_round(
                "serial", n_clients
            )
            batched_s, batched_updates, batched_gm = _run_engine_round(
                "batched", n_clients
            )
            serial_best = min(serial_best, serial_s)
            batched_best = min(batched_best, batched_s)
        identical = _updates_identical(serial_updates, batched_updates) and all(
            np.array_equal(serial_gm[key], batched_gm[key])
            for key in serial_gm
        )
        peaks = {
            engine: _traced_peak_mb(_engine_server(engine, n_clients).run_round)
            for engine in ("serial", "batched")
        }
        cells[str(n_clients)] = {
            "epochs": ROUND_EPOCHS,
            "serial_ms": round(serial_best * 1e3, 2),
            "batched_ms": round(batched_best * 1e3, 2),
            "speedup": round(serial_best / batched_best, 2),
            "bit_identical_updates": bool(identical),
            "serial_peak_mb": peaks["serial"],
            "batched_peak_mb": peaks["batched"],
        }
    return cells


#: aggregate-memory suite: FEDLS's client DNN on a small synthetic survey
AGGREGATE_FEATURES, AGGREGATE_CLASSES = 20, 20
AGGREGATE_CLIENT_COUNTS = (8, 32, 128)


def bench_aggregate_memory(
    client_counts: Sequence[int] = AGGREGATE_CLIENT_COUNTS,
    epochs: int = 40,
) -> Dict[str, dict]:
    """Traced peak of one FEDLS aggregate above its inputs.

    The cohort is the global state plus seeded noise at FEDLS's client
    width, one attacker scaled up.  ``peak_state_vectors`` divides the
    peak by one state's bytes: the summaries stream one delta at a time,
    so what grows with the cohort is the weighted mean's packed matrix
    of kept states.
    """
    model = DNNLocalizer(
        AGGREGATE_FEATURES, AGGREGATE_CLASSES, hidden=FEDLS_HIDDEN, seed=0
    )
    global_state = model.state_dict()
    state_bytes = sum(tensor.nbytes for tensor in global_state.values())
    cells: Dict[str, dict] = {}
    for n_clients in client_counts:
        rng = np.random.default_rng(n_clients)
        updates = [
            ClientUpdate(
                client_name=f"c{i}",
                state={
                    name: tensor
                    + rng.normal(size=tensor.shape)
                    * (0.5 if i == n_clients - 1 else 0.01)
                    for name, tensor in global_state.items()
                },
                num_samples=48,
            )
            for i in range(n_clients)
        ]
        strategy = LatentSpaceAggregation(detector_epochs=epochs, seed=0)
        summaries_mb = _traced_peak_mb(
            lambda: strategy.normalized_summaries(global_state, updates)
        )
        aggregate_mb = _traced_peak_mb(
            lambda: strategy.aggregate(global_state, updates)
        )
        cells[str(n_clients)] = {
            "epochs": epochs,
            "state_mb": round(state_bytes / 2**20, 2),
            "summaries_peak_mb": summaries_mb,
            "aggregate_peak_mb": aggregate_mb,
            "peak_state_vectors": round(
                aggregate_mb * 2**20 / state_bytes, 1
            ),
            "dropped": strategy.last_dropped_count,
        }
    return cells


#: composite-round suite: the acceptance cell is 32 clients, ≥3×
COMPOSITE_CLIENT_COUNTS = (8, 32, 128)


def bench_composite_round(
    client_counts: Sequence[int] = COMPOSITE_CLIENT_COUNTS,
    repeats: int = 3,
) -> Dict[str, dict]:
    """Serial vs batched federation rounds for the composite models.

    SAFELOC (denoiser+classifier joint network) and ONLAD (detector AE +
    localizer DNN trained in one program) fold-stack through the
    composite stackers; one round per engine on identical cohorts, every
    update state and the aggregated GM compared bit for bit.

    SAFELOC's small fused network is Python-overhead-bound serially, so
    stacking wins big — it carries the ≥3× acceptance cell at 32
    clients.  ONLAD's paper-width two-model stack (~130k parameters
    against 48-sample client datasets) is parameter-traffic-bound:
    weight gradients and Adam moments dominate each step in *both*
    engines, and the serial loop's per-client arrays stay cache-resident
    where the fold stack spills to DRAM — the stacked win is honest but
    modest, recorded for the trajectory and gated on bit-identity only.
    """
    suites: Dict[str, dict] = {}
    for framework, model_factory in COMPOSITE_MODELS.items():
        cells: Dict[str, dict] = {}
        for n_clients in client_counts:
            serial_best = batched_best = float("inf")
            for _ in range(repeats):
                serial_s, serial_updates, serial_gm = _run_engine_round(
                    "serial", n_clients, model_factory
                )
                batched_s, batched_updates, batched_gm = _run_engine_round(
                    "batched", n_clients, model_factory
                )
                serial_best = min(serial_best, serial_s)
                batched_best = min(batched_best, batched_s)
            identical = _updates_identical(
                serial_updates, batched_updates
            ) and all(
                np.array_equal(serial_gm[key], batched_gm[key])
                for key in serial_gm
            )
            cells[str(n_clients)] = {
                "epochs": ROUND_EPOCHS,
                "serial_ms": round(serial_best * 1e3, 2),
                "batched_ms": round(batched_best * 1e3, 2),
                "speedup": round(serial_best / batched_best, 2),
                "bit_identical_updates": bool(identical),
            }
        suites[framework] = cells
    return suites


def bench_shared_encoder(
    client_counts: Sequence[int] = (64, 256),
    epochs: int = 120,
    repeats: int = 3,
) -> Dict[str, dict]:
    """The O(n) shared-encoder detector vs the full per-fold LOO fit.

    One pooled encoder plus per-fold batched decoder heads instead of n
    independent detector fits.  Approximate by design (each head shares
    the cohort-trained encoder), so the gate is the *decision*: the
    shared-encoder kept set must match the exact batched-LOO detector's
    on the planted-outlier summaries.
    """
    cells: Dict[str, dict] = {}
    for n_clients in client_counts:
        normalized = _normalized_summaries(n_clients, seed=n_clients)
        full = LatentSpaceAggregation(detector_epochs=epochs, seed=0)
        shared = LatentSpaceAggregation(
            detector_epochs=epochs, seed=0, shared_encoder=True
        )
        full_best = shared_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            full_errors = full.leave_one_out_errors(normalized, 1)
            full_best = min(full_best, time.perf_counter() - start)
            start = time.perf_counter()
            shared_errors = shared.leave_one_out_errors(normalized, 1)
            shared_best = min(shared_best, time.perf_counter() - start)
        cells[str(n_clients)] = {
            "epochs": epochs,
            "full_loo_ms": round(full_best * 1e3, 2),
            "shared_ms": round(shared_best * 1e3, 2),
            "speedup": round(full_best / shared_best, 2),
            "same_kept_set": bool(
                np.array_equal(
                    _kept_mask(full_errors), _kept_mask(shared_errors)
                )
            ),
        }
    return cells


def bench_sampled_peers(
    n_clients: int = 128,
    k: int = 8,
    epochs: int = 120,
    repeats: int = 3,
) -> Dict[str, object]:
    """The O(n·k) sampled-peers detector vs the full O(n²) LOO program.

    Sampling is approximate vs full LOO by design (the kept-set overlap
    is recorded), but the batched detectors must match the reference loop
    on the *sampled* path at ≤1e-10 — that exactness is the gated
    contract.
    """
    normalized = _normalized_summaries(n_clients, seed=n_clients)
    full = LatentSpaceAggregation(detector_epochs=epochs, seed=0)
    sampled = LatentSpaceAggregation(
        detector_epochs=epochs, seed=0, sampled_peers=k
    )
    full_best = sampled_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        full_errors = full.leave_one_out_errors(normalized, 1)
        full_best = min(full_best, time.perf_counter() - start)
        start = time.perf_counter()
        sampled_errors = sampled.leave_one_out_errors(normalized, 1)
        sampled_best = min(sampled_best, time.perf_counter() - start)
    serial_sampled = serial_loo_errors(sampled, normalized, 1)
    engine_diff = float(np.abs(sampled_errors - serial_sampled).max())
    return {
        "n_clients": n_clients,
        "sampled_peers": k,
        "epochs": epochs,
        "full_loo_ms": round(full_best * 1e3, 2),
        "sampled_ms": round(sampled_best * 1e3, 2),
        "speedup": round(full_best / sampled_best, 2),
        "kept_set_overlap": float(
            (_kept_mask(full_errors) == _kept_mask(sampled_errors)).mean()
        ),
        "engine_max_abs_diff": engine_diff,
        "engine_agreement_ok": bool(engine_diff < 1e-10),
    }


#: train-step suite shape: building1 (203 APs, 60 RPs), the paper batch
STEP_APS, STEP_RPS, STEP_BATCH = 203, 60, 32
#: the central pre-train's server survey (10 batches an epoch)
STEP_SAMPLES = 300
STEP_COHORT = 32
STEP_PHASES = ("zero", "forward", "loss", "backward", "adam")
#: the first Adam step whose bias correction 1 − 0.9**t is exactly 1.0
STEP_BIAS_SHORTCUT_T = 356


def _safeloc_step(model, batch, labels):
    """One pre-train step of ``model``'s network (a fold stack of one),
    as ``SafeLocFoldProgram.train_cohort`` runs it, split by phase.

    Yields once per phase boundary, so the caller times each phase.
    """
    from repro.nn import Adam, BatchedMSELoss, BatchedSparseCrossEntropyLoss

    network = model.network
    optimizer = Adam(network.trainable_parameters(), lr=0.001)
    mse, ce = BatchedMSELoss(), BatchedSparseCrossEntropyLoss()
    while True:
        optimizer.zero_grad()
        yield
        latent = network.encode(batch)
        reconstruction = network.decode(latent)
        logits = network.classify_latent(latent)
        yield
        mse(reconstruction, batch, value=False)
        ce(logits, labels, value=False)
        grad_recon = model.recon_weight * mse.backward()
        grad_logits = ce.backward()
        yield
        network.joint_backward(grad_recon, grad_logits, input_grad=False)
        yield
        optimizer.step()
        yield


def _classifier_step(network, batch, labels):
    """One step of ``run_classifier_epochs`` on a fold stack, by phase."""
    from repro.nn import Adam, BatchedSparseCrossEntropyLoss

    optimizer = Adam(network.trainable_parameters(), lr=0.001)
    loss = BatchedSparseCrossEntropyLoss()
    while True:
        optimizer.zero_grad()
        yield
        logits = network.forward(batch)
        yield
        loss(logits, labels, value=False)
        grad = loss.backward()
        yield
        network.backward(grad, input_grad=False)
        yield
        optimizer.step()
        yield


def _phase_us(step, steps: int) -> Dict[str, float]:
    """Median µs per phase over ``steps`` steps of a phase generator."""
    samples = np.empty((steps, len(STEP_PHASES)))
    for row in range(steps):
        for col in range(len(STEP_PHASES)):
            start = time.perf_counter()
            next(step)
            samples[row, col] = time.perf_counter() - start
    medians = np.median(samples, axis=0) * 1e6
    phases = {
        name: round(float(us), 1) for name, us in zip(STEP_PHASES, medians)
    }
    phases["step"] = round(float(np.median(samples.sum(axis=1)) * 1e6), 1)
    return phases


def _step_data(rng, folds: int):
    batch = rng.uniform(0, 1, size=(folds, STEP_BATCH, STEP_APS))
    labels = rng.integers(0, STEP_RPS, size=(folds, STEP_BATCH))
    return batch, labels


def _pretrain_matches_reference(epochs: int) -> bool:
    """``epochs`` of the central pre-train (trusted data, paper shape)
    through the fold program vs the serial reference loop: weights and
    returned loss bit for bit."""
    from reference.training import safeloc_train_epochs
    from repro.core.safeloc import SafeLocModel

    rng = np.random.default_rng(7)
    survey = FingerprintDataset(
        rng.uniform(0, 1, size=(STEP_SAMPLES, STEP_APS)),
        rng.integers(0, STEP_RPS, size=STEP_SAMPLES),
    )
    program = SafeLocModel(STEP_APS, STEP_RPS, seed=3)
    serial = SafeLocModel(STEP_APS, STEP_RPS, seed=3)
    loss = program.train_epochs(
        survey, epochs, 0.001, np.random.default_rng(11), trusted=True
    )
    expected = safeloc_train_epochs(
        serial, survey, epochs, 0.001, np.random.default_rng(11),
        trusted=True,
    )
    reference = serial.state_dict()
    return loss == expected and all(
        np.array_equal(value, reference[key])
        for key, value in program.state_dict().items()
    )


def bench_train_step(steps: int = 200, epochs: int = 40) -> Dict[str, dict]:
    """µs per phase of one training step, at the paper's shape.

    ``safeloc_pretrain``: one step of the central pre-train (one fold,
    batch 32 × 203 APs, the fused network); ``dnn_cohort``: one step of
    a 32-fold DNN client cohort.  Median per phase over ``steps`` steps.
    The pre-train step is timed past t = 356, as almost all of the
    700-epoch pre-train runs; the cohort step after ``steps // 10``
    warm-up steps, as a few-epoch client round runs.
    ``pretrain_bit_identical``
    checks that ``epochs`` pre-train epochs (40 × 10 steps cross
    t = 356, where Adam's bias shortcut starts) equal the serial
    reference loop bit for bit.
    """
    from repro.core.safeloc import SafeLocModel
    from repro.nn import fold_stack

    rng = np.random.default_rng(5)
    cells: Dict[str, dict] = {}
    model = SafeLocModel(STEP_APS, STEP_RPS, seed=1)
    with fold_stack([model.network]):
        step = _safeloc_step(model, *_step_data(rng, 1))
        # 6,645 of the pre-train's 7,000 steps run past t = 356
        _phase_us(step, STEP_BIAS_SHORTCUT_T)
        cells["safeloc_pretrain"] = {"folds": 1, **_phase_us(step, steps)}
    networks = [
        DNNLocalizer(STEP_APS, STEP_RPS, seed=seed).network
        for seed in range(STEP_COHORT)
    ]
    with fold_stack(networks) as stacked:
        step = _classifier_step(stacked, *_step_data(rng, STEP_COHORT))
        _phase_us(step, steps // 10)
        cells["dnn_cohort"] = {"folds": STEP_COHORT, **_phase_us(step, steps)}
    cells["safeloc_pretrain"]["pretrain_epochs_checked"] = epochs
    cells["safeloc_pretrain"]["pretrain_bit_identical"] = (
        _pretrain_matches_reference(epochs)
    )
    return cells


def run_all(quick: bool = False) -> Dict[str, object]:
    """Full benchmark → result dict (shape of ``BENCH_fedls.json``)."""
    client_counts = (8, 32) if quick else CLIENT_COUNTS
    epochs = 40 if quick else 120
    fit = bench_detector_fit(client_counts=client_counts, epochs=epochs,
                             repeats=2 if quick else 3)
    round_counts = (8, 32) if quick else ROUND_CLIENT_COUNTS
    client_round = bench_client_round(
        client_counts=round_counts, repeats=2 if quick else 3
    )
    composite_round = bench_composite_round(
        client_counts=(8, 32) if quick else COMPOSITE_CLIENT_COUNTS,
        repeats=2 if quick else 3,
    )
    peers = bench_sampled_peers(
        n_clients=32 if quick else 128,
        epochs=epochs,
        repeats=2 if quick else 3,
    )
    shared = bench_shared_encoder(
        client_counts=(32,) if quick else (64, 256),
        epochs=epochs,
        repeats=2 if quick else 3,
    )
    aggregate_memory = bench_aggregate_memory(
        client_counts=(8, 32) if quick else AGGREGATE_CLIENT_COUNTS,
    )
    train_step = bench_train_step(
        steps=50 if quick else 200, epochs=36 if quick else 40
    )
    headline = fit[str(HEADLINE_CLIENTS)]
    return {
        "meta": {
            "benchmark": "fold-batched vs serial FEDLS leave-one-out detection",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "protocol": "min wall time over repeats, identical summaries, "
            "same process; equivalence re-asserted each run; memory is "
            "the tracemalloc peak above the call's start, from one extra "
            "untimed call",
        },
        "headline": {
            "cell": (
                f"leave-one-out detector fit, {HEADLINE_CLIENTS} clients, "
                f"{epochs} epochs"
            ),
            **headline,
        },
        "detector_fit": fit,
        "client_round": client_round,
        "composite_round": composite_round,
        "sampled_peers": peers,
        "shared_encoder": shared,
        "aggregate_memory": aggregate_memory,
        "train_step": train_step,
    }


def equivalence_failures(results: Dict[str, object]) -> List[str]:
    """Every exactness assertion the run re-checked — the single gate
    definition shared by the pytest entry and ``run_benchmarks.py``."""
    failures: List[str] = []
    for n_clients, cell in results["detector_fit"].items():
        if not (cell["equivalence_ok"] and cell["same_kept_set"]):
            failures.append(
                f"batched/serial detection disagreement at {n_clients} "
                f"clients (max|err diff| {cell['max_abs_error_diff']:.2e}, "
                f"kept-set match {cell['same_kept_set']})"
            )
    for n_clients, cell in results["client_round"].items():
        if not cell["bit_identical_updates"]:
            failures.append(
                f"batched client engine diverged from the serial loop at "
                f"{n_clients} clients"
            )
    for framework, cells in results["composite_round"].items():
        for n_clients, cell in cells.items():
            if not cell["bit_identical_updates"]:
                failures.append(
                    f"batched {framework} cohort diverged from the serial "
                    f"loop at {n_clients} clients"
                )
    if not results["sampled_peers"]["engine_agreement_ok"]:
        failures.append(
            "sampled-peers detection disagrees with the reference loop "
            f"(max|err diff| "
            f"{results['sampled_peers']['engine_max_abs_diff']:.2e})"
        )
    for n_clients, cell in results["shared_encoder"].items():
        if not cell["same_kept_set"]:
            failures.append(
                f"shared-encoder detector changed the kept set at "
                f"{n_clients} clients"
            )
    if not results["train_step"]["safeloc_pretrain"]["pretrain_bit_identical"]:
        failures.append(
            "the SAFELOC pre-train program diverged from the serial "
            "reference loop"
        )
    return failures


def equivalence_ok(results: Dict[str, object]) -> bool:
    return not equivalence_failures(results)


def format_report(results: Dict[str, object]) -> str:
    lines = ["fold-batched FEDLS detection — speedup vs serial loop", ""]
    head = results["headline"]
    lines.append(
        f"HEADLINE  {head['cell']}: {head['speedup']}x "
        f"(serial {head['serial_ms']} ms -> batched {head['batched_ms']} ms, "
        f"max|err diff| {head['max_abs_error_diff']:.2e})"
    )
    lines.append("\ndetector fit (serial -> batched):")
    for n_clients, cell in results["detector_fit"].items():
        lines.append(
            f"  {n_clients:>4s} clients  {cell['speedup']:6.2f}x  "
            f"({cell['serial_ms']:9.2f} -> {cell['batched_ms']:8.2f} ms, "
            f"diff {cell['max_abs_error_diff']:.1e}, "
            f"kept-set match {cell['same_kept_set']})"
        )
    lines.append("\nclient round, serial loop -> batched client engine:")
    for n_clients, cell in results["client_round"].items():
        lines.append(
            f"  {n_clients:>4s} clients  {cell['speedup']:6.2f}x  "
            f"({cell['serial_ms']:9.2f} -> {cell['batched_ms']:8.2f} ms, "
            f"bit-identical {cell['bit_identical_updates']}, peak "
            f"{cell['serial_peak_mb']} -> {cell['batched_peak_mb']} MB)"
        )
    for framework, cells in results["composite_round"].items():
        lines.append(
            f"\n{framework} composite round, serial loop -> batched "
            "client engine:"
        )
        for n_clients, cell in cells.items():
            lines.append(
                f"  {n_clients:>4s} clients  {cell['speedup']:6.2f}x  "
                f"({cell['serial_ms']:9.2f} -> {cell['batched_ms']:8.2f} ms, "
                f"bit-identical {cell['bit_identical_updates']})"
            )
    peers = results["sampled_peers"]
    lines.append(
        f"\nsampled peers (n={peers['n_clients']}, k="
        f"{peers['sampled_peers']}): full LOO {peers['full_loo_ms']} ms -> "
        f"sampled {peers['sampled_ms']} ms ({peers['speedup']}x, kept-set "
        f"overlap {peers['kept_set_overlap']:.2f}, engine diff "
        f"{peers['engine_max_abs_diff']:.1e})"
    )
    lines.append("\nshared-encoder detector (full per-fold LOO -> pooled):")
    for n_clients, cell in results["shared_encoder"].items():
        lines.append(
            f"  {n_clients:>4s} clients  {cell['speedup']:6.2f}x  "
            f"({cell['full_loo_ms']:9.2f} -> {cell['shared_ms']:8.2f} ms, "
            f"kept-set match {cell['same_kept_set']})"
        )
    lines.append("\nFEDLS aggregate, tracemalloc peak above its inputs:")
    for n_clients, cell in results["aggregate_memory"].items():
        lines.append(
            f"  {n_clients:>4s} clients  {cell['aggregate_peak_mb']:8.2f} MB "
            f"({cell['peak_state_vectors']} state vectors of "
            f"{cell['state_mb']} MB; summaries {cell['summaries_peak_mb']} MB)"
        )
    lines.append("\ntraining step, median µs per phase:")
    for name, cell in results["train_step"].items():
        phases = ", ".join(f"{p} {cell[p]}" for p in STEP_PHASES)
        lines.append(
            f"  {name:<16s} ({cell['folds']:>2d} folds)  step "
            f"{cell['step']:8.1f}  ({phases})"
        )
    pretrain = results["train_step"]["safeloc_pretrain"]
    lines.append(
        f"  {pretrain['pretrain_epochs_checked']} pre-train epochs equal "
        f"the serial reference: {pretrain['pretrain_bit_identical']}"
    )
    return "\n".join(lines)


def write_json(results: Dict[str, object], path: str = JSON_PATH) -> str:
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def test_perf_fedls(save_report):
    """Reduced sweep for the pytest bench harness (text report only)."""
    results = run_all(quick=True)
    save_report("perf_fedls", format_report(results))
    assert equivalence_ok(results)
    assert results["headline"]["speedup"] > 1.0
    assert results["client_round"]["32"]["speedup"] > 1.0
    # ONLAD's composite round is parameter-traffic-bound (see
    # bench_composite_round) — only bit-identity is load-bearing there
    assert results["composite_round"]["safeloc"]["32"]["speedup"] > 1.0
    assert results["shared_encoder"]["32"]["speedup"] > 1.0

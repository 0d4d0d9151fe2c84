"""Every model's fold program against its serial reference loop.

A model trains only through its fold program:
:meth:`~repro.fl.interfaces.LocalizationModel.train_epochs` runs it on a
cohort of one fold, and the batched client engine runs it on many.  The
per-model serial loops in ``tests/reference/training.py`` are what both
must reproduce bit for bit at float64 — weights, final-epoch loss and
``last_flagged_count`` — for trusted and untrusted data alike.  Without
this property the serial-vs-batched engine tests would only compare a
program with itself.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.training import (
    classifier_train_epochs,
    onlad_train_epochs,
    safeloc_train_epochs,
)
from repro.baselines.dnn import DNNLocalizer
from repro.baselines.onlad import OnDeviceAnomalyModel
from repro.core.safeloc import SafeLocModel
from repro.data import FingerprintDataset
from repro.fl.client import ClientConfig

NUM_APS = 8
NUM_RPS = 5
LR = 0.01


def _classifier_reference(
    model, dataset, epochs, lr, rng, batch_size, trusted
):
    del trusted  # the plain classifier has no screen to skip
    return classifier_train_epochs(
        model.network, dataset, epochs, lr, rng, batch_size
    )


#: family -> (model factory (seed, tau), reference loop)
FAMILIES = {
    "classifier": (
        lambda seed, tau: DNNLocalizer(
            NUM_APS, NUM_RPS, hidden=(12,), seed=seed
        ),
        _classifier_reference,
    ),
    "safeloc": (
        lambda seed, tau: SafeLocModel(
            NUM_APS, NUM_RPS, tau=tau, seed=seed, encoder_widths=(12, 6)
        ),
        safeloc_train_epochs,
    ),
    "onlad": (
        lambda seed, tau: OnDeviceAnomalyModel(
            NUM_APS, NUM_RPS, tau=tau, seed=seed
        ),
        onlad_train_epochs,
    ),
}


def _dataset(seed, n):
    rng = np.random.default_rng(seed)
    return FingerprintDataset(
        rng.uniform(0, 1, size=(n, NUM_APS)),
        rng.integers(0, NUM_RPS, size=n),
        building="b",
        device="d",
    )


def _assert_same(model, loss, expected_model, expected_loss):
    assert loss == expected_loss
    assert getattr(model, "last_flagged_count", 0) == getattr(
        expected_model, "last_flagged_count", 0
    )
    expected_state = expected_model.state_dict()
    state = model.state_dict()
    assert state.keys() == expected_state.keys()
    for key in state:
        np.testing.assert_array_equal(state[key], expected_state[key])


# tau: 0 flags every sample (the screen keeps nothing), 0.5 / 0.6 flag
# some of them at these shapes, 10 none
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    n_samples=st.integers(1, 48),
    batch_size=st.integers(1, 8),
    epochs=st.integers(1, 3),
    trusted=st.booleans(),
    n_folds=st.integers(1, 3),
    tau=st.sampled_from((0.0, 0.5, 0.6, 10.0)),
    seed=st.integers(0, 2**16),
)
def test_property_programs_match_reference(
    family, n_samples, batch_size, epochs, trusted, n_folds, tau, seed
):
    make, reference = FAMILIES[family]
    seeds = [seed + fold for fold in range(n_folds)]
    datasets = [_dataset(s, n_samples) for s in seeds]

    expected = []
    for s, dataset in zip(seeds, datasets):
        model = make(s, tau)
        loss = reference(
            model, dataset, epochs, LR, np.random.default_rng(s),
            batch_size, trusted,
        )
        expected.append((model, loss))

    # train_epochs: a cohort of one fold
    for s, dataset, (expected_model, expected_loss) in zip(
        seeds, datasets, expected
    ):
        model = make(s, tau)
        loss = model.train_epochs(
            dataset, epochs, LR, np.random.default_rng(s),
            batch_size=batch_size, trusted=trusted,
        )
        _assert_same(model, loss, expected_model, expected_loss)

    # train_cohort: folds whose screens kept equally many samples stack,
    # as the batched engine partitions them
    models = [make(s, tau) for s in seeds]
    programs = [model.fold_batch_program() for model in models]
    preps = [
        program.prepare(dataset, trusted)
        for program, dataset in zip(programs, datasets)
    ]
    groups = {}
    for fold, prep in enumerate(preps):
        if prep is None:  # skipped round: broadcast weights, zero loss
            _assert_same(models[fold], 0.0, *expected[fold])
        else:
            groups.setdefault(len(prep.dataset), []).append(fold)
    config = ClientConfig(epochs=epochs, lr=LR, batch_size=batch_size)
    for folds in groups.values():
        losses = programs[folds[0]].train_cohort(
            [programs[fold] for fold in folds],
            [preps[fold] for fold in folds],
            config,
            [np.random.default_rng(seeds[fold]) for fold in folds],
        )
        for fold, loss in zip(folds, losses):
            _assert_same(models[fold], float(loss), *expected[fold])

"""Generative invariants of the artifact cache's ``content_key`` and
of the resume ledger's cell keys built on it.

Hypothesis drives the key discipline through randomized cell
identities instead of a handful of hand-picked cases.  Four properties
pin the contract every cached stage rests on:

* **field-order independence** — a key is a pure function of the
  payload's *content*; dict insertion order (spec field reordering,
  ``to_dict`` implementation changes) must never move a key;
* **field sensitivity** — changing any field's serialized value moves
  the key (no stale hits across configurations);
* **cell-neutral fields** — preset fields that cannot change a cell's
  numbers (display name, client engine, latency repeats) never move a
  cell key, so a sweep resumes across them;
* **cell binding** — the seed and the attack ε always move it.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.experiments.artifacts import content_key  # noqa: E402
from repro.experiments.engine import (  # noqa: E402
    SweepEngine,
    SweepPlan,
    scenario,
)
from repro.experiments.scenarios import tiny_preset  # noqa: E402

#: a plausible cell-identity payload: JSON-native scalars under short
#: string field names, like the engine's stage key payloads
_SCALARS = st.one_of(
    st.integers(-(2**31), 2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)
_PAYLOADS = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
    ),
    _SCALARS,
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(payload=_PAYLOADS, order=st.randoms(use_true_random=False))
def test_content_key_stable_under_field_reordering(payload, order):
    items = list(payload.items())
    order.shuffle(items)
    assert content_key(dict(items)) == content_key(payload)


@settings(max_examples=60, deadline=None)
@given(
    payload=_PAYLOADS,
    field=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=10
    ),
    value=st.integers(),
)
def test_content_key_sensitive_to_any_field_change(payload, field, value):
    changed = dict(payload)
    changed[field] = value
    # dict equality is too coarse a notion of "same content" here
    # (True == 1, -0.0 == 0.0 but they serialize differently), so
    # compare the canonical serialized forms instead.
    canonical = json.dumps(payload, sort_keys=True)
    if json.dumps(changed, sort_keys=True) == canonical:
        assert content_key(changed) == content_key(payload)
    else:
        assert content_key(changed) != content_key(payload)


def _cell_key(preset, epsilon: float) -> str:
    """The resume-ledger key of one fgsm cell under ``preset``."""
    spec = scenario("safeloc", attack="fgsm", epsilon=epsilon)
    plan = SweepPlan(name="keys", preset=preset, cells=(spec,))
    return SweepEngine()._cell_key(plan, spec)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    name=st.text(max_size=12),
    engine=st.sampled_from(["serial", "batched"]),
    repeats=st.integers(1, 50),
)
def test_cell_key_ignores_cell_neutral_preset_fields(
    seed, name, engine, repeats
):
    base = tiny_preset(seed)
    varied = replace(
        base, name=name, client_engine=engine, latency_repeats=repeats
    )
    assert _cell_key(varied, 0.2) == _cell_key(base, 0.2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    delta=st.integers(1, 1000),
    epsilon=st.floats(0.01, 0.5, allow_nan=False),
    step=st.floats(0.001, 0.5, allow_nan=False),
)
def test_cell_key_bound_to_seed_and_epsilon(seed, delta, epsilon, step):
    key = _cell_key(tiny_preset(seed), epsilon)
    assert _cell_key(tiny_preset(seed + delta), epsilon) != key
    assert _cell_key(tiny_preset(seed), epsilon + step) != key

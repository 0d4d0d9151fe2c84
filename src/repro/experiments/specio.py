"""Sweep-spec files: schema validation, loading, saving.

A sweep spec is a :class:`~repro.experiments.engine.SweepPlan` as JSON —
a diffable, storable, resumable description of an experiment that any
frontend (CLI ``repro sweep --spec``, :func:`repro.api.run_spec`, a
service) can hand to the engine.  The format is versioned
(:data:`~repro.experiments.engine.SPEC_SCHEMA_VERSION`) and validated
**before** construction, so a typo'd spec fails with every problem
listed and a did-you-mean hint, not a stack trace from deep inside the
engine:

    plan.json: cells[3].framework: unknown framework 'safelok' — did
    you mean 'safeloc'?

Validation checks names against the unified component registry
(:mod:`repro.registry`), so out-of-tree plugins registered through
``register_plugin`` / entry points validate exactly like built-ins.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, FrozenSet, List, Optional

from repro.experiments.engine import (
    SPEC_FORMAT,
    SPEC_SCHEMA_VERSION,
    SweepPlan,
)
from repro.experiments.scheduler import engine_problems
from repro.registry import _did_you_mean, registry

#: preset fields and the JSON types they must carry
_PRESET_FIELD_TYPES = {
    "name": str,
    "seed": int,
    "buildings": list,
    "rp_fraction": (int, float),
    "ap_fraction": (int, float),
    "num_clients": int,
    "num_malicious": int,
    "num_rounds": int,
    "client_epochs": int,
    "client_lr": (int, float),
    "malicious_epochs": int,
    "malicious_lr": (int, float),
    "client_fingerprints_per_rp": int,
    "pretrain_epochs": int,
    "pretrain_lr": (int, float),
    "epsilon_grid": list,
    "tau_grid": list,
    "attacks": list,
    "default_epsilon": (int, float),
    "scalability_grid": list,
    "latency_repeats": int,
    "client_engine": str,
    "compute_dtype": str,
}

#: what changed since each older schema version — appended to the
#: version-mismatch error so an old file says exactly what to edit
_SCHEMA_CHANGES = {
    1: "version 2 removed preset.max_workers (thread-pool client rounds); "
    "delete that field and set schema_version to 2",
}

_CELL_FIELD_TYPES = {
    "framework": str,
    "attack": (str, type(None)),
    "epsilon": (int, float),
    "building": (str, type(None)),
    "num_clients": (int, type(None)),
    "num_malicious": (int, type(None)),
    "framework_kwargs": (dict, list),
    "strategy": (str, type(None)),
    "self_labeling": bool,
    "input_dim": (int, type(None)),
    "num_classes": (int, type(None)),
    "label": str,
}


def preset_field_names() -> FrozenSet[str]:
    """The preset fields the validator knows (cross-checked against
    ``Preset``'s dataclass fields and ``to_dict`` keys by
    ``tests/test_spec_roundtrip.py`` so the validation table cannot
    silently drift from the spec format)."""
    return frozenset(_PRESET_FIELD_TYPES)


def cell_field_names() -> FrozenSet[str]:
    """The cell fields the validator knows (checked against
    ``ScenarioSpec`` like :func:`preset_field_names`)."""
    return frozenset(_CELL_FIELD_TYPES)


class SpecValidationError(ValueError):
    """A spec payload that failed schema validation.

    ``errors`` holds one actionable message per problem; ``str()`` joins
    them, prefixed with the file path when one is known.
    """

    def __init__(
        self, errors: List[str], source: Optional[str] = None
    ) -> None:
        self.errors = list(errors)
        self.source = source
        prefix = f"{source}: " if source else ""
        super().__init__(
            "\n".join(f"{prefix}{error}" for error in self.errors)
        )


def _type_name(expected: Any) -> str:
    if isinstance(expected, tuple):
        return " or ".join(
            "null" if t is type(None) else t.__name__ for t in expected
        )
    return expected.__name__


def _check_fields(
    payload: Dict, types: Dict[str, Any], where: str, errors: List[str]
) -> None:
    for name, value in payload.items():
        if name not in types:
            message = f"{where}.{name}: unknown field"
            suggestion = _did_you_mean(name, types)
            if suggestion:
                message += f" — did you mean {suggestion!r}?"
            errors.append(message)
            continue
        expected = types[name]
        # bool is an int subclass; don't let true/false pass as counts
        if isinstance(value, bool) and expected is not bool:
            errors.append(
                f"{where}.{name}: expected {_type_name(expected)}, "
                f"got a boolean"
            )
        elif not isinstance(value, expected):
            errors.append(
                f"{where}.{name}: expected {_type_name(expected)}, "
                f"got {type(value).__name__} ({value!r})"
            )


def _check_elements(
    preset: Dict, errors: List[str]
) -> None:
    """Element-level checks for the preset's list fields (the container
    check alone would let malformed entries crash construction)."""
    for field in ("buildings", "attacks"):
        for index, entry in enumerate(preset.get(field) or ()):
            if not isinstance(entry, str):
                errors.append(
                    f"preset.{field}[{index}]: expected string, got "
                    f"{type(entry).__name__} ({entry!r})"
                )
    for field in ("epsilon_grid", "tau_grid"):
        for index, entry in enumerate(preset.get(field) or ()):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                errors.append(
                    f"preset.{field}[{index}]: expected number, got "
                    f"{type(entry).__name__} ({entry!r})"
                )
    for index, pair in enumerate(preset.get("scalability_grid") or ()):
        good = (
            isinstance(pair, list)
            and len(pair) == 2
            and all(
                isinstance(v, int) and not isinstance(v, bool) for v in pair
            )
        )
        if not good:
            errors.append(
                f"preset.scalability_grid[{index}]: expected a "
                f"[total, poisoned] integer pair, got {pair!r}"
            )


def _check_name(
    namespace: str, name: str, where: str, errors: List[str]
) -> None:
    if registry.has(namespace, name):
        return
    message = f"{where}: unknown {namespace[:-1]} {name!r}"
    suggestion = _did_you_mean(name, registry.names(namespace))
    if suggestion:
        message += f" — did you mean {suggestion!r}?"
    else:
        message += f"; choices: {sorted(registry.names(namespace))}"
    errors.append(message)


def _validate_cell(
    cell: Any, index: int, kind: str, errors: List[str]
) -> None:
    where = f"cells[{index}]"
    if not isinstance(cell, dict):
        errors.append(f"{where}: expected an object, got {type(cell).__name__}")
        return
    _check_fields(cell, _CELL_FIELD_TYPES, where, errors)
    if "framework" not in cell:
        errors.append(f"{where}.framework: required field is missing")
    elif isinstance(cell["framework"], str):
        _check_name("frameworks", cell["framework"], f"{where}.framework", errors)
    attack = cell.get("attack")
    if isinstance(attack, str):
        _check_name("attacks", attack, f"{where}.attack", errors)
    strategy = cell.get("strategy")
    if isinstance(strategy, str):
        # validated against the registry so plugin aggregations are
        # spec-addressable like built-ins
        _check_name("aggregations", strategy, f"{where}.strategy", errors)
    kwargs = cell.get("framework_kwargs", {})
    if isinstance(kwargs, list):
        good = all(
            isinstance(pair, list) and len(pair) == 2
            and isinstance(pair[0], str)
            for pair in kwargs
        )
        if not good:
            errors.append(
                f"{where}.framework_kwargs: pair form must be "
                f"[[name, value], ...]"
            )
            kwargs = {}
        else:
            kwargs = dict(kwargs)
    if isinstance(kwargs, dict) and registry.has(
        "frameworks", cell.get("framework", "")
    ):
        universe = registry.accepted_kwargs("frameworks")
        info = registry.get("frameworks", cell["framework"])
        for kwarg in kwargs:
            if not info.accepts_kwarg(kwarg) and kwarg not in universe:
                message = (
                    f"{where}.framework_kwargs.{kwarg}: no registered "
                    f"framework accepts this kwarg"
                )
                suggestion = _did_you_mean(kwarg, universe)
                if suggestion:
                    message += f" — did you mean {suggestion!r}?"
                errors.append(message)
    if kind == "footprint":
        for required in ("input_dim", "num_classes"):
            if cell.get(required) is None:
                errors.append(
                    f"{where}.{required}: footprint cells must set an "
                    f"explicit problem shape"
                )


def validate_plan_payload(
    payload: Dict, source: Optional[str] = None
) -> None:
    """Validate a sweep-spec payload; raise :class:`SpecValidationError`
    listing **every** problem (nothing is constructed on failure)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        raise SpecValidationError(
            [f"spec root: expected an object, got {type(payload).__name__}"],
            source,
        )
    fmt = payload.get("format")
    if fmt is not None and fmt != SPEC_FORMAT:
        errors.append(
            f"format: expected {SPEC_FORMAT!r}, got {fmt!r} — this file "
            f"is not a sweep spec"
        )
    version = payload.get("schema_version")
    if version is None:
        errors.append(
            f"schema_version: required field is missing (current version "
            f"is {SPEC_SCHEMA_VERSION})"
        )
    elif isinstance(version, bool) or version != SPEC_SCHEMA_VERSION:
        hint = _SCHEMA_CHANGES.get(version) if type(version) is int else None
        errors.append(
            f"schema_version: this build reads version "
            f"{SPEC_SCHEMA_VERSION}, the file says {version!r} — "
            + (
                hint
                or "regenerate the spec (e.g. repro.api.experiment(...)"
                ".save_spec) or run it with a matching repro build"
            )
        )
    if errors:
        # a wrong version makes every downstream check unreliable
        raise SpecValidationError(errors, source)
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        errors.append("name: required non-empty string is missing")
    kind = payload.get("kind", "federation")
    if kind not in ("federation", "footprint"):
        errors.append(
            f"kind: expected 'federation' or 'footprint', got {kind!r}"
        )
    top_level = (
        "format", "schema_version", "name", "kind", "preset", "cells",
        "engine",
    )
    for field in payload:
        if field not in top_level:
            message = f"{field}: unknown top-level field"
            suggestion = _did_you_mean(field, top_level)
            if suggestion:
                message += f" — did you mean {suggestion!r}?"
            errors.append(message)
    # the optional engine block: scheduling hints that run_spec applies
    # as defaults, never anything that could change the numbers
    engine = payload.get("engine")
    if isinstance(engine, dict):
        errors.extend(engine_problems(engine, prefix="engine."))
    elif engine is not None:
        errors.append(
            f"engine: expected an object, got {type(engine).__name__}"
        )
    preset = payload.get("preset")
    if not isinstance(preset, dict):
        errors.append(
            f"preset: expected an object, got {type(preset).__name__}"
        )
    else:
        _check_fields(preset, _PRESET_FIELD_TYPES, "preset", errors)
        _check_elements(preset, errors)
        if "name" not in preset:
            errors.append("preset.name: required field is missing")
        for index, attack in enumerate(preset.get("attacks") or ()):
            if isinstance(attack, str):
                _check_name(
                    "attacks", attack, f"preset.attacks[{index}]", errors
                )
        if preset.get("compute_dtype") not in (None, "float32", "float64"):
            errors.append(
                f"preset.compute_dtype: expected 'float32' or 'float64', "
                f"got {preset.get('compute_dtype')!r}"
            )
        if preset.get("client_engine") not in (None, "serial", "batched"):
            errors.append(
                f"preset.client_engine: expected 'serial' or 'batched', "
                f"got {preset.get('client_engine')!r}"
            )
    cells = payload.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append("cells: expected a non-empty array of cell objects")
    else:
        for index, cell in enumerate(cells):
            _validate_cell(cell, index, kind, errors)
    if errors:
        raise SpecValidationError(errors, source)


def payload_to_json(payload: Dict) -> str:
    """A spec payload as pretty-printed, newline-terminated, diff-stable
    JSON — the one formatting authority for every spec writer (golden
    specs and builder-saved specs must stay byte-compatible)."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def save_payload(payload: Dict, path: str) -> None:
    """Write a spec payload as a sweep-spec file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(payload_to_json(payload))


def plan_to_json(plan: SweepPlan) -> str:
    """The plan as spec-file JSON text."""
    return payload_to_json(plan.to_dict())


def save_plan(plan: SweepPlan, path: str) -> None:
    """Write a plan as a sweep-spec file (the golden-spec format)."""
    save_payload(plan.to_dict(), path)


def _reject_constant(name: str) -> None:
    """``json`` hook for ``NaN``/``Infinity``/``-Infinity``: they are not
    standard JSON, and a non-finite knob such as ``tau`` slips past every
    ``< 0`` range check."""
    raise ValueError(f"non-standard constant {name}")


def load_payload(path: str) -> Dict:
    """Read + validate a sweep-spec file into its raw payload dict
    (including the optional ``engine`` scheduling block).

    Raises :class:`SpecValidationError` (carrying the file path) for
    malformed JSON or schema violations.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle, parse_constant=_reject_constant)
    except OSError as error:
        raise SpecValidationError(
            [f"cannot read spec file: {error}"], source=path
        ) from None
    except ValueError as error:
        raise SpecValidationError(
            [f"not valid JSON: {error}"], source=path
        ) from None
    validate_plan_payload(payload, source=path)
    return payload


def load_plan(path: str) -> SweepPlan:
    """Read + validate a sweep-spec file into a :class:`SweepPlan`."""
    return SweepPlan.from_dict(load_payload(path), validate=False)

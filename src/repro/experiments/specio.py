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

Validation checks names and framework kwargs against the unified
component registry (:mod:`repro.registry`).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.experiments.engine import (
    SPEC_FORMAT,
    SPEC_SCHEMA_VERSION,
    PlanKind,
    ScenarioSpec,
    SweepPlan,
)
from repro.experiments.scenarios import Preset
from repro.experiments.scheduler import engine_problems
from repro.registry import _did_you_mean, registry
from repro.utils.records import json_problems

#: what changed since each older schema version — appended to the
#: version-mismatch error so an old file says exactly what to edit
_SCHEMA_CHANGES = {
    1: "version 2 removed preset.max_workers (thread-pool client rounds); "
    "delete that field and set schema_version to 2",
}


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


def _check_name(
    namespace: str, name: str, where: str, errors: List[str]
) -> None:
    if registry.has(namespace, name):
        return
    hint = _did_you_mean(name, registry.names(namespace))
    if not hint:
        hint = f"; choices: {sorted(registry.names(namespace))}"
    errors.append(f"{where}: unknown {namespace[:-1]} {name!r}{hint}")


def _validate_cell(
    cell: Any, index: int, kind: str, errors: List[str]
) -> None:
    where = f"cells[{index}]"
    kwargs = cell.get("framework_kwargs") if isinstance(cell, dict) else None
    if isinstance(kwargs, dict):
        # spec files write the kwargs as a mapping, records as pairs
        cell = {**cell, "framework_kwargs": list(kwargs.items())}
    problems = json_problems(ScenarioSpec, cell, where)
    errors.extend(problems)
    if not isinstance(cell, dict):
        return
    if "framework" not in cell:
        errors.append(f"{where}.framework: required field is missing")
    # component names resolve through the registry
    for field, namespace in (
        ("framework", "frameworks"),
        ("attack", "attacks"),
        ("strategy", "aggregations"),
    ):
        if isinstance(cell.get(field), str):
            _check_name(namespace, cell[field], f"{where}.{field}", errors)
    kwargs_where = f"{where}.framework_kwargs"
    well_formed = not any(p.startswith(kwargs_where) for p in problems)
    framework = cell.get("framework")
    if (
        well_formed
        and isinstance(framework, str)
        and registry.has("frameworks", framework)
    ):
        # a kwarg only another framework takes is filtered, not an error
        universe = registry.accepted_kwargs("frameworks")
        for kwarg, _ in cell.get("framework_kwargs", ()):
            if kwarg not in universe:
                hint = _did_you_mean(kwarg, universe)
                errors.append(
                    f"{kwargs_where}.{kwarg}: no registered framework "
                    f"accepts this kwarg{hint}"
                )
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
    errors.extend(json_problems(PlanKind, kind, "kind"))
    top_level = (
        "format", "schema_version", "name", "kind", "preset", "cells",
        "engine",
    )
    for field in payload:
        if field not in top_level:
            hint = _did_you_mean(field, top_level)
            errors.append(f"{field}: unknown top-level field{hint}")
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
    errors.extend(json_problems(Preset, preset, "preset"))
    if isinstance(preset, dict) and isinstance(preset.get("attacks"), list):
        for index, attack in enumerate(preset["attacks"]):
            if isinstance(attack, str):
                _check_name(
                    "attacks", attack, f"preset.attacks[{index}]", errors
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

"""Spec serialization: golden files, round-trips, schema validation."""

import copy
import json
import os
from dataclasses import fields

import pytest

from repro.experiments.engine import (
    SPEC_SCHEMA_VERSION,
    ScenarioSpec,
    SweepEngine,
    SweepPlan,
    scenario,
)
from repro.experiments.scenarios import Preset, get_preset, tiny_preset
from repro.experiments.specio import (
    SpecValidationError,
    load_plan,
    plan_to_json,
    save_plan,
    validate_plan_payload,
)
from repro.registry import registry

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_specs")
ARTEFACTS = registry.names("artefacts")


def build_plan(artefact: str) -> SweepPlan:
    import repro.api as api

    return api.experiment(artefact).preset("tiny").plan()


def _edit(change):
    """A payload mutator from an in-place edit."""

    def mutate(payload):
        change(payload)
        return payload

    return mutate


class TestRoundTrip:
    @pytest.mark.parametrize("artefact", ARTEFACTS)
    def test_plan_roundtrip_equality(self, artefact):
        plan = build_plan(artefact)
        assert SweepPlan.from_dict(plan.to_dict()) == plan

    @pytest.mark.parametrize("artefact", ARTEFACTS)
    def test_plan_roundtrip_through_json_text(self, artefact):
        plan = build_plan(artefact)
        assert SweepPlan.from_dict(json.loads(plan_to_json(plan))) == plan

    def test_preset_roundtrip_all_presets(self):
        for name in registry.names("presets"):
            preset = get_preset(name, seed=7)
            assert Preset.from_dict(preset.to_dict()) == preset

    def test_scenario_spec_roundtrip(self):
        spec = scenario(
            "safeloc",
            attack="pgd",
            epsilon=0.25,
            framework_kwargs={"tau": 0.1, "server_mixing": 0.5},
            strategy="fedavg",
            label="x/y",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_spec_kwargs_accept_pair_form(self):
        payload = scenario("safeloc", framework_kwargs={"tau": 0.1}).to_dict()
        payload["framework_kwargs"] = [["tau", 0.1]]
        assert ScenarioSpec.from_dict(payload).kwargs == {"tau": 0.1}

    def test_integer_spelling_of_a_float_field_is_one_cell(self):
        """``"rp_fraction": 1`` and ``1.0`` build equal presets, so they
        must also write the same spec and share data, pre-train and cell
        keys (the keys hash the JSON text, where ``1`` is not ``1.0``)."""
        payload = build_plan("fig4").to_dict()
        keys, texts = [], []
        for value in (1, 1.0):
            payload["preset"]["rp_fraction"] = value
            plan = SweepPlan.from_dict(payload)
            assert type(plan.preset.rp_fraction) is float
            texts.append(plan_to_json(plan))
            keys.append(SweepEngine()._cell_key(plan, plan.cells[0]))
        assert texts[0] == texts[1]
        assert keys[0] == keys[1]

    def test_save_load_file_roundtrip(self, tmp_path):
        plan = build_plan("fig7")
        path = str(tmp_path / "fig7.json")
        save_plan(plan, path)
        assert load_plan(path) == plan


class TestFieldTables:
    """Each spec dataclass's ``to_dict`` keys name its fields: a field
    ``to_dict`` drops makes saved specs lossy."""

    @pytest.mark.parametrize(
        "cls, probe",
        [(Preset, lambda: Preset("probe")), (ScenarioSpec, ScenarioSpec)],
        ids=["preset", "cell"],
    )
    def test_to_dict_matches_dataclass(self, cls, probe):
        assert set(probe().to_dict()) == {f.name for f in fields(cls)}


class TestGoldenFiles:
    @pytest.mark.parametrize("artefact", ARTEFACTS)
    def test_golden_exists_and_matches_builder(self, artefact):
        """The checked-in golden spec is exactly the plan the builder
        produces today — spec drift fails here (and in CI) first."""
        path = os.path.join(GOLDEN_DIR, f"{artefact}.json")
        assert os.path.exists(path), (
            f"missing golden spec {path}; run "
            f"scripts/generate_golden_specs.py"
        )
        with open(path) as handle:
            on_disk = handle.read()
        assert on_disk == plan_to_json(build_plan(artefact)), (
            f"golden spec for {artefact} is stale; rerun "
            f"scripts/generate_golden_specs.py"
        )

    @pytest.mark.parametrize("artefact", ARTEFACTS)
    def test_golden_validates_and_loads(self, artefact):
        plan = load_plan(os.path.join(GOLDEN_DIR, f"{artefact}.json"))
        assert plan.name == artefact
        assert plan.preset == tiny_preset()


class TestValidation:
    def payload(self):
        return build_plan("fig4").to_dict()

    def test_schema_version_rejection(self):
        payload = self.payload()
        payload["schema_version"] = SPEC_SCHEMA_VERSION + 1
        with pytest.raises(SpecValidationError, match="schema_version"):
            validate_plan_payload(payload)

    def test_version_1_rejection_names_the_removed_field(self):
        payload = self.payload()
        payload["schema_version"] = 1
        payload["preset"]["max_workers"] = None
        with pytest.raises(
            SpecValidationError, match="removed preset.max_workers"
        ):
            validate_plan_payload(payload)

    def test_version_2_rejects_max_workers(self):
        payload = self.payload()
        payload["preset"]["max_workers"] = 4
        with pytest.raises(SpecValidationError, match="max_workers"):
            validate_plan_payload(payload)

    def test_version_2_rejects_thread_executor(self):
        payload = self.payload()
        payload["engine"] = {"executor": "thread"}
        with pytest.raises(
            SpecValidationError,
            match="thread executor was removed; use 'serial' or 'process'",
        ):
            validate_plan_payload(payload)

    def test_version_2_accepts_both_remaining_executors(self):
        for executor in ("serial", "process"):
            payload = self.payload()
            payload["engine"] = {"executor": executor}
            validate_plan_payload(payload)

    def test_missing_schema_version_rejected(self):
        payload = self.payload()
        del payload["schema_version"]
        with pytest.raises(SpecValidationError, match="required field"):
            validate_plan_payload(payload)

    def test_wrong_format_marker_rejected(self):
        payload = self.payload()
        payload["format"] = "somebody.elses.json"
        with pytest.raises(SpecValidationError, match="not a sweep spec"):
            validate_plan_payload(payload)

    def test_unknown_framework_suggestion(self):
        payload = self.payload()
        payload["cells"][0]["framework"] = "safelok"
        with pytest.raises(
            SpecValidationError, match="did you mean 'safeloc'"
        ):
            validate_plan_payload(payload)

    def test_unknown_preset_field_suggestion(self):
        payload = self.payload()
        payload["preset"]["rp_fractoin"] = payload["preset"].pop("rp_fraction")
        with pytest.raises(
            SpecValidationError, match="did you mean 'rp_fraction'"
        ):
            validate_plan_payload(payload)

    def test_kwarg_typo_caught_at_validation_time(self):
        payload = self.payload()
        payload["cells"][0]["framework_kwargs"] = {"tua": 0.1}
        with pytest.raises(SpecValidationError, match="did you mean 'tau'"):
            validate_plan_payload(payload)

    def test_every_error_reported_at_once(self):
        payload = self.payload()
        payload["cells"][0]["framework"] = "safelok"
        payload["cells"][1]["attack"] = "ddos"
        payload["preset"]["seed"] = "not-a-number"
        with pytest.raises(SpecValidationError) as excinfo:
            validate_plan_payload(payload)
        assert len(excinfo.value.errors) == 3

    def test_engine_block_accepted_and_validated(self):
        payload = self.payload()
        payload["engine"] = {
            "jobs": 4,
            "executor": "process",
            "cell_timeout": 120,
            "retries": 2,
            "on_error": "continue",
        }
        validate_plan_payload(payload)  # hints are part of the schema
        payload["engine"] = {"jobs": 0, "executor": "gpu", "jobz": 1}
        with pytest.raises(SpecValidationError) as excinfo:
            validate_plan_payload(payload)
        messages = "\n".join(excinfo.value.errors)
        assert "engine.jobs" in messages
        assert "engine.executor" in messages
        assert "did you mean 'jobs'" in messages

    def test_engine_fault_knobs_validated(self):
        payload = self.payload()
        payload["engine"] = {
            "cell_timeout": 0,
            "retries": -1,
            "on_error": "explode",
        }
        with pytest.raises(SpecValidationError) as excinfo:
            validate_plan_payload(payload)
        messages = "\n".join(excinfo.value.errors)
        assert "engine.cell_timeout" in messages
        assert "engine.retries" in messages
        assert "engine.on_error" in messages
        payload["engine"] = {"cell_timeout": "fast", "retries": True}
        with pytest.raises(SpecValidationError) as excinfo:
            validate_plan_payload(payload)
        assert len(excinfo.value.errors) == 2

    def test_builder_spec_carries_engine_hints(self, tmp_path):
        import repro.api as api
        from repro.experiments.specio import load_payload

        builder = (
            api.experiment("fig4").preset("tiny")
            .jobs(2).executor("process")
            .cell_timeout(90).retries(1).on_error("continue")
        )
        payload = builder.spec()
        hints = {
            "jobs": 2,
            "executor": "process",
            "cell_timeout": 90.0,
            "retries": 1,
            "on_error": "continue",
        }
        assert payload["engine"] == hints
        validate_plan_payload(payload)
        path = str(tmp_path / "fig4.json")
        builder.save_spec(path)
        assert load_payload(path)["engine"] == hints
        # plans stay hint-free — golden specs are byte-stable
        assert "engine" not in api.experiment("fig4").preset("tiny").spec()

    def test_run_spec_applies_fault_hints(self, tmp_path, monkeypatch):
        """A saved spec replays with the failure policy it was authored
        with: on_error=continue from the engine block degrades an
        injured run instead of aborting it."""
        import repro.api as api

        monkeypatch.setenv("REPRO_CHAOS", "0:raise")
        path = str(tmp_path / "fig4.json")
        (
            api.experiment("fig4").preset("tiny")
            .on_error("continue").save_spec(path)
        )
        result = api.run_spec(path)
        # partial grid: the collector fallback returns the raw sweep
        assert len(result.failures) == 1
        assert result.failures[0].error_type == "ChaosError"

    def test_footprint_cells_need_shape(self):
        payload = build_plan("table1").to_dict()
        payload["cells"][0]["input_dim"] = None
        with pytest.raises(SpecValidationError, match="input_dim"):
            validate_plan_payload(payload)

    def test_empty_cells_rejected(self):
        payload = self.payload()
        payload["cells"] = []
        with pytest.raises(SpecValidationError, match="non-empty"):
            validate_plan_payload(payload)

    def test_bool_does_not_pass_as_int(self):
        payload = self.payload()
        payload["preset"]["num_rounds"] = True
        with pytest.raises(SpecValidationError, match="boolean"):
            validate_plan_payload(payload)

    def test_bool_schema_version_rejected(self):
        payload = self.payload()
        payload["schema_version"] = True  # True == 1 must not sneak past
        with pytest.raises(SpecValidationError, match="schema_version"):
            validate_plan_payload(payload)

    def test_malformed_grid_elements_rejected(self):
        payload = self.payload()
        payload["preset"]["scalability_grid"] = [1, 2]
        with pytest.raises(
            SpecValidationError, match=r"scalability_grid\[0\]"
        ):
            validate_plan_payload(payload)

    def test_non_numeric_epsilon_grid_entry_rejected(self):
        payload = self.payload()
        payload["preset"]["epsilon_grid"] = ["abc", 0.5]
        with pytest.raises(
            SpecValidationError, match=r"epsilon_grid\[0\]: expected number"
        ):
            validate_plan_payload(payload)

    def test_non_string_building_entry_rejected(self):
        payload = self.payload()
        payload["preset"]["buildings"] = [42]
        with pytest.raises(
            SpecValidationError, match=r"buildings\[0\]: expected string"
        ):
            validate_plan_payload(payload)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            load_plan(str(path))

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constants_rejected(self, tmp_path, value):
        """``json`` reads ``NaN``/``Infinity`` by default; a NaN τ would
        pass every range check and switch SAFELOC's detector off."""
        with open(os.path.join(GOLDEN_DIR, "fig4.json")) as handle:
            text = handle.read()
        assert '"tau": 0.05' in text
        path = tmp_path / "fig4.json"
        path.write_text(text.replace('"tau": 0.05', f'"tau": {value}'))
        with pytest.raises(SpecValidationError, match="not valid JSON"):
            load_plan(str(path))

    def test_error_carries_file_path(self, tmp_path):
        payload = self.payload()
        payload["schema_version"] = 99
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SpecValidationError, match="plan.json"):
            load_plan(str(path))

    @pytest.mark.parametrize(
        "mutate, prefix",
        [
            (_edit(lambda p: p["cells"].__setitem__(0, 5)), "cells[0]:"),
            (_edit(lambda p: p["cells"][0].pop("framework")),
             "cells[0].framework:"),
            (_edit(lambda p: p["cells"][0].update(framework=["safeloc"])),
             "cells[0].framework:"),
            (_edit(lambda p: p["cells"][0].update(framework={})),
             "cells[0].framework:"),
            (_edit(lambda p: p["cells"][0].update(
                framework_kwargs=[["tau", 0.1]])), None),
            (_edit(lambda p: p["cells"][0].update(
                framework_kwargs=[["tau"]])), "cells[0].framework_kwargs"),
            (lambda p: [p], "spec root:"),
            (_edit(lambda p: p.pop("name")), "name:"),
            (_edit(lambda p: p.update(name="")), "name:"),
            (_edit(lambda p: p.update(kind="bogus")), "kind:"),
            (_edit(lambda p: p.update(extra=1)), "extra:"),
            (_edit(lambda p: p.update(engine=[1])), "engine:"),
            (_edit(lambda p: p.update(preset=[1])), "preset:"),
            (_edit(lambda p: p["preset"].pop("name")), "preset.name:"),
            (_edit(lambda p: p["preset"].update(compute_dtype="float16")),
             "preset.compute_dtype:"),
            (_edit(lambda p: p["preset"].update(client_engine="gpu")),
             "preset.client_engine:"),
        ],
        ids=[
            "cell-not-object", "cell-without-framework",
            "list-framework", "object-framework", "pair-kwargs",
            "malformed-pair-kwargs", "root-not-object", "missing-name",
            "empty-name", "bad-kind", "unknown-top-level-field",
            "engine-not-object", "preset-not-object", "missing-preset-name",
            "bad-compute-dtype", "bad-client-engine",
        ],
    )
    def test_each_error_path_names_its_field(self, mutate, prefix):
        """Each structural check reports exactly one error, tagged with
        the path of the offending field (``None``: the payload is valid)."""
        payload = mutate(self.payload())
        if prefix is None:
            validate_plan_payload(payload)
            return
        with pytest.raises(SpecValidationError) as excinfo:
            validate_plan_payload(payload)
        (error,) = excinfo.value.errors
        assert error.startswith(prefix), error

    def test_valid_payload_passes_untouched(self):
        payload = self.payload()
        snapshot = copy.deepcopy(payload)
        validate_plan_payload(payload)
        assert payload == snapshot

"""Tests for the repro.api facade and the three-frontend equivalence."""

import os

import pytest

import repro.api as api
from repro.cli import main
from repro.experiments.engine import SweepPlan, SweepResult, scenario
from repro.experiments.scenarios import tiny_preset
from repro.registry import UnknownComponent, UnknownComponentKwarg

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_specs")


class TestBuilder:
    def test_unknown_artefact_fails_fast_with_suggestion(self):
        with pytest.raises(UnknownComponent, match="did you mean 'fig5'"):
            api.experiment("fig55")

    def test_unknown_preset_fails_fast(self):
        with pytest.raises(UnknownComponent, match="did you mean 'tiny'"):
            api.experiment("fig5").preset("tiiny")

    def test_unknown_framework_fails_fast(self):
        with pytest.raises(UnknownComponent):
            api.experiment("fig6").frameworks("safeloc", "skynet")

    def test_frameworks_option_rejected_where_unsupported(self):
        builder = api.experiment("fig4").preset("tiny").frameworks("safeloc")
        with pytest.raises(UnknownComponentKwarg, match="frameworks"):
            builder.plan()

    def test_executor_accepts_serial_and_process_only(self):
        builder = api.experiment("fig4").preset("tiny")
        for executor in ("serial", "process", None):
            builder.executor(executor)
        for executor in ("thread", "gpu"):
            with pytest.raises(ValueError, match="executor must be one of"):
                builder.executor(executor)

    def test_cell_timeout_without_process_executor_refused(self):
        """Inline cells cannot be preempted, so the builder's engine
        refuses a timeout before any cell runs."""
        builder = api.experiment("fig4").preset("tiny").cell_timeout(30)
        with pytest.raises(ValueError, match='executor="process"'):
            builder.run()

    def test_fluent_plan_building(self):
        plan = (
            api.experiment("fig6")
            .preset("tiny")
            .seed(7)
            .frameworks("safeloc", "fedloc")
            .plan()
        )
        assert isinstance(plan, SweepPlan)
        assert plan.preset.seed == 7
        frameworks = tuple(dict.fromkeys(c.framework for c in plan.cells))
        assert frameworks == ("safeloc", "fedloc")

    def test_preset_overrides(self):
        plan = (
            api.experiment("fig5")
            .preset("tiny")
            .attacks("fgsm")
            .epsilons(0.1)
            .buildings("building5")
            .plan()
        )
        assert plan.preset.attacks == ("fgsm",)
        assert plan.preset.epsilon_grid == (0.1,)
        assert len(plan.cells) == 1

    def test_attacks_override_validates_names(self):
        with pytest.raises(UnknownComponent, match="did you mean"):
            api.experiment("fig5").attacks("fgsm", "fgsmm")

    def test_preset_object_accepted(self):
        preset = tiny_preset(seed=3)
        plan = api.experiment("fig7").preset(preset).plan()
        assert plan.preset == preset

    def test_builder_equals_driver_plan(self):
        from repro.experiments.fig5_heatmap import plan_fig5

        assert (
            api.experiment("fig5").preset("tiny").plan()
            == plan_fig5(tiny_preset())
        )

    def test_spec_and_json_shapes(self):
        builder = api.experiment("fig1").preset("tiny")
        payload = builder.spec()
        assert payload["schema_version"] == 2
        assert builder.to_json().endswith("\n")

    def test_save_spec_writes_loadable_file(self, tmp_path):
        path = str(tmp_path / "fig7.json")
        plan = api.experiment("fig7").preset("tiny").save_spec(path)
        assert api.validate_spec(path) == plan


class TestRunSpec:
    def test_payload_dict_accepted(self):
        payload = api.experiment("table1").preset("tiny").spec()
        result = api.run_spec(payload)
        assert type(result).__name__ == "Table1Result"
        assert result.sweep.kind == "footprint"

    def test_freeform_plan_returns_sweep_result(self):
        plan = SweepPlan(
            name="custom-footprint",
            preset=tiny_preset(),
            cells=(
                scenario("safeloc", input_dim=8, num_classes=5),
                scenario("fedloc", input_dim=8, num_classes=5),
            ),
            kind="footprint",
        )
        result = api.run_spec(plan)
        assert isinstance(result, SweepResult)
        table = api.format_sweep_table(result)
        assert "custom-footprint" in table
        assert "safeloc" in table and "fedloc" in table

    def test_validate_spec_rejects_bad_payload(self):
        payload = api.experiment("fig1").preset("tiny").spec()
        payload["cells"][0]["framework"] = "skynet"
        with pytest.raises(api.SpecValidationError):
            api.validate_spec(payload)

    def test_cell_subset_spec_reports_what_it_ran(self, tmp_path):
        """Hand-trimming cells out of a registered-name spec (the
        advertised diff-and-edit workflow) must yield a report of the
        cells that ran, not a KeyError over the untouched preset grid."""
        payload = api.experiment("fig4").preset("tiny").spec()
        kept_taus = {0.05, 0.3}
        payload["cells"] = [
            cell for cell in payload["cells"]
            if cell["framework_kwargs"]["tau"] in kept_taus
        ]
        result = api.run_spec(payload, cache_dir=str(tmp_path / "cache"))
        assert result.tau_grid == (0.05, 0.3)
        report = result.format_report()
        assert "0.050" in report and "0.300" in report
        assert "0.100" not in report


class TestInfo:
    def test_inventory_structure(self):
        inventory = api.info()
        assert set(inventory) == {
            "frameworks", "attacks", "aggregations", "presets", "artefacts"
        }
        frameworks = inventory["frameworks"]
        names = [entry["name"] for entry in frameworks]
        assert names == sorted(names)
        safeloc = next(e for e in frameworks if e["name"] == "safeloc")
        assert safeloc["paper"] is True
        assert safeloc["doc"]
        assert "seed" in safeloc["defaults"]


class TestThreeFrontendEquivalence:
    """Acceptance: one artefact (fig4, tiny) through the CLI subcommand,
    the fluent facade and ``repro sweep --spec golden.json`` produces
    bit-identical error tables."""

    @staticmethod
    def _table_block(text: str) -> list:
        """The format_table block: title line through the last rule/row
        before the engine stats line."""
        lines = text.splitlines()
        start = next(
            i for i, line in enumerate(lines) if line.startswith("Fig. 4")
        )
        end = next(
            i for i, line in enumerate(lines) if line.startswith("[fig4")
        )
        return lines[start:end]

    def test_cli_facade_and_spec_are_bit_identical(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")  # pretrain shared by all three

        assert main(
            ["experiment", "fig4", "--preset", "tiny", "--cache-dir", cache]
        ) == 0
        cli_table = self._table_block(capsys.readouterr().out)

        facade_result = (
            api.experiment("fig4").preset("tiny").cache(cache).run()
        )
        facade_table = facade_result.format_report().splitlines()

        golden = os.path.join(GOLDEN_DIR, "fig4.json")
        assert main(["sweep", "--spec", golden, "--cache-dir", cache]) == 0
        spec_out = capsys.readouterr().out
        spec_table = self._table_block(spec_out)

        assert cli_table == facade_table
        assert cli_table == spec_table
        assert "tau" in "\n".join(cli_table)

    def test_run_spec_returns_same_result_type_as_facade(self, tmp_path):
        cache = str(tmp_path / "cache")
        golden = os.path.join(GOLDEN_DIR, "table1.json")
        spec_result = api.run_spec(golden, cache_dir=cache)
        facade_result = api.experiment("table1").preset("tiny").run()
        assert type(spec_result) is type(facade_result)
        assert spec_result.parameters == facade_result.parameters


class TestRunSingle:
    def test_structured_result(self):
        result = api.run_single(
            "fedloc", preset="tiny", attack="label_flip", epsilon=1.0
        )
        assert isinstance(result, api.CellResult)
        assert result.spec.framework == "fedloc"
        assert result.spec.attack == "label_flip"
        assert result.error_summary.mean > 0

"""Tests for presets, single-cell runs, and the per-figure experiments.

Drivers run at the ``tiny`` preset (seconds each); the paper-shape
assertions live in ``benchmarks/`` where the ``fast`` preset is used.
"""

import pytest

from repro.api import run_single
from repro.experiments.scenarios import (
    fast_preset,
    get_preset,
    paper_preset,
    tiny_preset,
)
from repro.experiments.table1_overheads import run_table1


class TestPresets:
    def test_three_scales(self):
        assert tiny_preset().name == "tiny"
        assert fast_preset().name == "fast"
        assert paper_preset().name == "paper"

    def test_get_preset(self):
        assert get_preset("tiny").name == "tiny"
        with pytest.raises(KeyError):
            get_preset("warp-speed")

    def test_paper_preset_matches_section_va(self):
        p = paper_preset()
        assert p.pretrain_epochs == 700
        assert p.pretrain_lr == 0.001
        assert p.client_lr == 0.0001
        assert p.client_epochs == 5
        assert len(p.buildings) == 5
        assert p.rp_fraction == 1.0 and p.ap_fraction == 1.0
        assert p.scalability_grid == ((6, 1), (12, 3), (18, 6), (24, 12))

    def test_building_scaling(self):
        tiny = tiny_preset().building("building5")
        full = paper_preset().building("building5")
        assert tiny.num_rps < full.num_rps
        assert full.num_rps == 90

    def test_federation_config_overrides(self):
        cfg = tiny_preset().federation_config(num_clients=9, num_malicious=4)
        assert cfg.num_clients == 9
        assert cfg.num_malicious == 4

    def test_preset_attacks_are_the_five(self):
        assert set(fast_preset().attacks) == {
            "clb", "fgsm", "pgd", "mim", "label_flip",
        }


class TestRunner:
    """One federation cell through :func:`repro.api.run_single`."""

    @pytest.fixture(scope="class")
    def preset(self):
        return tiny_preset()

    def test_clean_run(self, preset):
        result = run_single("fedloc", preset)
        assert result.spec.attack is None
        assert result.spec.epsilon == 0.0
        assert result.error_summary.mean >= 0
        assert result.parameter_count > 0
        assert len(result.flagged_per_round) == preset.num_rounds

    def test_attack_run(self, preset):
        result = run_single("safeloc", preset, attack="fgsm", epsilon=0.5)
        assert result.spec.attack == "fgsm"
        assert result.spec.epsilon == 0.5

    def test_framework_kwargs_forwarded(self, preset):
        result = run_single(
            "safeloc", preset, attack="fgsm", epsilon=0.2,
            framework_kwargs={"tau": 0.25},
        )
        assert result.spec.kwargs == {"tau": 0.25}
        assert result.error_summary.count > 0

    def test_client_count_override(self, preset):
        result = run_single(
            "fedloc", preset, attack="label_flip", epsilon=1.0,
            num_clients=4, num_malicious=2,
        )
        assert result.error_summary.count > 0

    def test_deterministic_given_preset_seed(self, preset):
        a = run_single("fedloc", preset)
        b = run_single("fedloc", preset)
        assert a.error_summary.mean == b.error_summary.mean

    def test_unknown_framework(self, preset):
        with pytest.raises(KeyError):
            run_single("hogwarts", preset)


class TestTable1Driver:
    def test_table1_tiny(self):
        result = run_table1(tiny_preset())
        assert set(result.parameters) == {
            "safeloc", "onlad", "fedhil", "fedcc", "fedls", "fedloc",
        }
        # the architectural claim: SAFELOC is the smallest model
        assert result.parameter_order()[0] == "safeloc"
        assert result.parameter_order()[-1] == "fedls"
        report = result.format_report()
        assert "Table I" in report
        assert "safeloc" in report


@pytest.mark.slow
class TestFigureDriversTiny:
    """Each driver end-to-end at the tiny preset (structure, not shape)."""

    def test_fig1(self):
        from repro.experiments.fig1_motivation import run_fig1

        result = run_fig1(tiny_preset())
        assert ("fedloc", "clean") in result.summaries
        assert ("fedhil", "fgsm") in result.summaries
        assert result.inflation("fedloc", "clean") == 1.0
        assert "Fig. 1" in result.format_report()

    def test_fig4(self):
        from repro.experiments.fig4_threshold import run_fig4

        preset = tiny_preset()
        result = run_fig4(preset)
        assert set(result.tau_grid) == set(preset.tau_grid)
        assert result.best_tau() in preset.tau_grid
        assert "Fig. 4" in result.format_report()

    def test_fig5(self):
        from repro.experiments.fig5_heatmap import run_fig5

        preset = tiny_preset()
        result = run_fig5(preset)
        assert len(result.errors) == len(preset.attacks) * len(preset.epsilon_grid)
        for attack in preset.attacks:
            assert len(result.row(attack)) == len(preset.epsilon_grid)
            assert result.row_spread(attack) >= 0
        assert "Fig. 5" in result.format_report()

    def test_fig6(self):
        from repro.experiments.fig6_comparison import run_fig6

        preset = tiny_preset()
        result = run_fig6(preset, frameworks=("safeloc", "fedloc"))
        assert ("safeloc", "fgsm") in result.summaries
        assert result.winner("fgsm") in ("safeloc", "fedloc")
        assert result.improvement_over("fedloc", "fgsm") > 0
        assert "Fig. 6" in result.format_report()

    def test_fig7(self):
        from repro.experiments.fig7_scalability import run_fig7

        preset = tiny_preset()
        result = run_fig7(preset)
        for framework in result.frameworks:
            assert len(result.series(framework)) == len(preset.scalability_grid)
            assert result.growth(framework) > 0
        assert "Fig. 7" in result.format_report()

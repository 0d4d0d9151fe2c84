"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main

#: the ``src`` directory this checkout's ``repro`` was imported from
SRC = Path(repro.__file__).resolve().parents[1]


def _fresh_python(code):
    """Run ``code`` in a new interpreter importing this checkout's repro;
    return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
        check=True,
    )
    return done.stdout


class TestParser:
    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "safeloc" in out
        assert "fgsm" in out
        assert "fast" in out

    def test_info_enumerates_unified_registry(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        # every namespace section, paper-vs-extension flags, defaults
        for section in ("frameworks:", "attacks:", "aggregations:",
                        "presets:", "artefacts:"):
            assert section in out
        assert "[paper" in out
        assert "[extension" in out
        assert "num_steps=10" in out  # default kwargs surfaced
        # stable sorted output within a namespace
        assert out.index("fedcc") < out.index("fedhil") < out.index("safeloc")
        assert main(["info"]) == 0
        assert capsys.readouterr().out == out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_version_imports_no_experiment_module(self):
        """Building the parser reads no registry namespace, so
        ``--version`` stays import-light."""
        loaded = _fresh_python(
            "import sys\n"
            "from repro.cli import main\n"
            "try:\n"
            "    main(['--version'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "('repro.experiments', 'repro.baselines', 'repro.attacks'))))\n"
        )
        assert loaded.splitlines()[-1] == "[]"

    def test_run_help_lists_the_registered_components(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--help"])
        assert excinfo.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        from repro.registry import registry

        for namespace in ("frameworks", "attacks", "presets"):
            assert ", ".join(registry.names(namespace)) in out

    def test_invalid_choice_names_the_valid_ones(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "'safeloc', 'onlad'" in err
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig4", "--preset", "huge"])
        assert excinfo.value.code == 2
        assert "'tiny', 'fast'" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["conquer"])

    def test_unknown_artefact_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_unknown_framework_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "skynet"])

    def test_parser_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["run", "safeloc"])
        assert args.preset == "fast"
        assert args.epsilon == 0.5
        assert args.attack is None

    def test_experiment_engine_flags(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "fig5"])
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.resume is False
        args = parser.parse_args(
            [
                "experiment", "all", "--jobs", "4",
                "--cache-dir", "/tmp/x", "--resume",
            ]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.resume is True

    def test_ablation_engine_flags(self):
        parser = build_parser()
        args = parser.parse_args(["ablation", "denoise", "--jobs", "2"])
        assert args.jobs == 2

    def test_executor_flag(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "fig5"])
        assert args.executor is None
        args = parser.parse_args(
            [
                "sweep", "--spec", "plan.json",
                "--jobs", "2", "--executor", "process",
            ]
        )
        assert args.executor == "process"
        for argv in (
            ["experiment", "fig5", "--executor", "gpu"],
            ["experiment", "fig5", "--executor", "thread"],
            ["experiment", "fig5", "--no-round-cache"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_resume_without_cache_dir_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig4", "--resume"])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_nonpositive_jobs_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig4", "--jobs", "0"])

    def test_fault_tolerance_flags(self):
        parser = build_parser()
        args = parser.parse_args(["experiment", "fig5"])
        assert args.cell_timeout is None
        assert args.retries is None
        assert args.on_error is None
        args = parser.parse_args(
            [
                "sweep", "--spec", "plan.json", "--cell-timeout", "30",
                "--retries", "2", "--on-error", "continue",
            ]
        )
        assert args.cell_timeout == 30.0
        assert args.retries == 2
        assert args.on_error == "continue"
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["sweep", "--spec", "p.json", "--on-error", "explode"]
            )

    def test_serial_executor_accepted(self):
        parser = build_parser()
        args = parser.parse_args(
            ["experiment", "fig5", "--executor", "serial"]
        )
        assert args.executor == "serial"

    def test_bad_fault_knob_values_are_usage_errors(self):
        for argv in (
            ["experiment", "fig4", "--retries", "-1"],
            ["experiment", "fig4", "--cell-timeout", "0"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    def test_cell_timeout_on_serial_run_is_usage_error(self, capsys):
        """A serial run cannot preempt a cell, so --cell-timeout without
        the process executor is refused instead of silently ignored."""
        golden = os.path.join(GOLDEN_DIR, "fig4.json")
        for argv in (
            ["sweep", "--spec", golden, "--cell-timeout", "30"],
            ["experiment", "fig4", "--preset", "tiny", "--jobs", "1",
             "--cell-timeout", "30"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert 'executor="process"' in captured.err
            assert captured.out == ""

    def test_fast32_preset_accepted(self):
        parser = build_parser()
        args = parser.parse_args(["run", "safeloc", "--preset", "fast32"])
        assert args.preset == "fast32"

    def test_artefact_choices_in_sync_with_registry(self):
        # cli keeps literal mirrors so parser construction stays
        # import-light; they must match the registered artefacts
        import repro.api as api
        from repro.cli import _ABLATIONS, _ARTEFACTS

        assert _ARTEFACTS == api.PAPER_ARTEFACTS
        assert _ABLATIONS == tuple(api.ABLATION_ARTEFACTS)

    def test_engine_choices_in_sync_with_their_declarations(self):
        from repro.cli import _CLIENT_ENGINES, _EXECUTORS, _ON_ERROR_MODES
        from repro.experiments.scheduler import EXECUTORS, ON_ERROR_MODES
        from repro.fl.server import CLIENT_ENGINES

        assert _EXECUTORS == EXECUTORS
        assert _ON_ERROR_MODES == ON_ERROR_MODES
        assert _CLIENT_ENGINES == CLIENT_ENGINES


class TestRunCommand:
    def test_printed_summary_is_pinned(self, capsys):
        """The exact ``repro run`` report, clean and attacked."""
        assert main(["run", "fedloc", "--preset", "tiny"]) == 0
        assert capsys.readouterr().out == (
            "fedloc / clean eps=0.0 on building5: mean=1.27m worst=14.00m "
            "best=0.00m (n=90)\n"
            "parameters: 76,562\n"
        )
        argv = ["run", "safeloc", "--preset", "tiny", "--attack", "fgsm"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "safeloc / fgsm eps=0.5 on building5: mean=1.74m worst=9.00m "
            "best=0.00m (n=90)\n"
            "parameters: 21,507\n"
            "flagged per round: [107, 138]\n"
        )

    def test_clean_run_tiny(self, capsys):
        code = main(["run", "fedloc", "--preset", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fedloc / clean" in out
        assert "parameters:" in out

    def test_attack_run_tiny(self, capsys):
        code = main([
            "run", "safeloc", "--preset", "tiny",
            "--attack", "label_flip", "--epsilon", "1.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "safeloc / label_flip" in out


class TestExperimentCommand:
    def test_table1_tiny(self, capsys):
        code = main(["experiment", "table1", "--preset", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "regenerated" in out

    def test_federation_artefact_tiny_with_engine_flags(self, capsys, tmp_path):
        """End-to-end: a federated artefact through the engine with
        parallel cells and an on-disk cache, then resumed."""
        import re

        cache = str(tmp_path / "cache")
        argv = [
            "experiment", "fig4", "--preset", "tiny",
            "--jobs", "2", "--cache-dir", cache,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Fig. 4" in first
        assert "jobs=2, process" in first
        # the six cells share one pre-train; each of the two worker
        # processes trains it at most once, then reuses it
        trained, reused = map(
            int, re.search(r"pretrain: (\d+) trained, (\d+) reused", first)
            .groups()
        )
        assert 1 <= trained <= 2 and trained + reused == 6
        assert "0 cells resumed" in first
        # second invocation resumes every cell from the cache dir
        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "6 cells resumed" in second
        # the resumed report is numerically identical
        fig4_table = lambda text: [
            line for line in text.splitlines() if line.startswith("0.")
        ]
        assert fig4_table(second) == fig4_table(first)


class TestAblationCommand:
    def test_denoise_tiny(self, capsys):
        code = main(["ablation", "denoise", "--preset", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ablation [client-denoise]" in out
        assert "pretrain: 1 trained" in out


GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden_specs")


class TestValidateCommand:
    def test_all_golden_specs_validate(self, capsys):
        specs = sorted(
            os.path.join(GOLDEN_DIR, name)
            for name in os.listdir(GOLDEN_DIR)
            if name.endswith(".json")
        )
        assert specs, "no golden specs found"
        assert main(["validate", *specs]) == 0
        out = capsys.readouterr().out
        assert out.count("OK") == len(specs)

    def test_invalid_spec_fails_with_actionable_error(self, capsys, tmp_path):
        import json

        with open(os.path.join(GOLDEN_DIR, "fig7.json")) as handle:
            payload = json.load(handle)
        payload["cells"][0]["framework"] = "safelok"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "did you mean 'safeloc'" in err

    def test_malformed_framework_is_reported_not_raised(
        self, capsys, tmp_path
    ):
        import json

        with open(os.path.join(GOLDEN_DIR, "fig4.json")) as handle:
            payload = json.load(handle)
        payload["cells"][0]["framework"] = ["safeloc"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["validate", str(bad)]) == 1
        assert "cells[0].framework" in capsys.readouterr().err

    def test_missing_file_reported(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "cannot read spec file" in capsys.readouterr().err


class TestSweepCommand:
    def test_spec_run_formats_like_experiment(self, capsys, tmp_path):
        golden = os.path.join(GOLDEN_DIR, "table1.json")
        assert main(["sweep", "--spec", golden]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out  # artefact collector picked by plan name
        assert "[table1 [tiny]" in out

    def test_invalid_spec_is_an_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["sweep", "--spec", str(bad)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_spec_required(self):
        with pytest.raises(SystemExit):
            main(["sweep"])


class TestFailureExitCodes:
    """Partial sweeps must not exit like clean runs (satellite: exit 3
    under --on-error continue, 130 + resume hint on interrupt)."""

    def test_continue_with_failures_exits_3(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "2:raise")
        cache = str(tmp_path / "cache")
        golden = os.path.join(GOLDEN_DIR, "fig4.json")
        code = main(
            [
                "sweep", "--spec", golden, "--on-error", "continue",
                "--cache-dir", cache,
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        # the collector needs the full grid: partial sweeps fall back to
        # the generic table, with the failure spelled out on stderr
        assert "Sweep fig4" in captured.out
        assert "1 failed" in captured.out
        assert "1 cell(s) failed" in captured.err
        assert "ChaosError" in captured.err
        # healthy cells persisted: a chaos-free resume completes clean
        monkeypatch.delenv("REPRO_CHAOS")
        code = main(
            [
                "sweep", "--spec", golden, "--resume",
                "--cache-dir", cache,
            ]
        )
        assert code == 0
        resumed = capsys.readouterr().out
        assert "Fig. 4" in resumed
        assert "5 cells resumed" in resumed

    def test_interrupt_exits_130_with_resume_hint(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "1:interrupt")
        cache = str(tmp_path / "cache")
        golden = os.path.join(GOLDEN_DIR, "fig4.json")
        code = main(
            ["sweep", "--spec", golden, "--cache-dir", cache]
        )
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "1 finished cell(s) are saved" in err
        assert f"--resume --cache-dir {cache}" in err

    def test_interrupt_without_cache_dir_warns(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "0:interrupt")
        golden = os.path.join(GOLDEN_DIR, "fig4.json")
        assert main(["sweep", "--spec", golden]) == 130
        err = capsys.readouterr().err
        assert "NOT persisted" in err

    def test_experiment_continue_with_failures_exits_3(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "0:raise")
        code = main(
            [
                "experiment", "fig4", "--preset", "tiny",
                "--on-error", "continue",
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
        assert code == 3
        assert "1 cell(s) failed" in capsys.readouterr().err

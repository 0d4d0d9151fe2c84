"""Command-line interface: ``python -m repro <command>``.

A thin shell over the :mod:`repro.api` facade — every subcommand builds
the same declarative :class:`~repro.experiments.engine.SweepPlan` a
library caller would and prints the structured result the facade
returns, so CLI, Python API and spec files are three spellings of one
pipeline with bit-identical tables.

Commands:

* ``experiment <artefact> [--preset fast]`` — regenerate one paper
  artefact (``fig1 fig4 fig5 fig6 fig7 table1``) or ``all``;
* ``ablation <axis> [--preset fast]`` — run one ablation study
  (``aggregation``, ``denoise``, ``self-labeling``);
* ``run <framework> [--attack fgsm --epsilon 0.5]`` — one federation and
  its error summary;
* ``sweep --spec plan.json`` — execute a serialized sweep spec;
* ``validate <spec.json> [...]`` — schema-check spec files;
* ``lint [paths...]`` — the AST-based repo invariant linter
  (determinism, executor safety, seed provenance, cache-key soundness;
  see :mod:`repro.lint` and docs/LINTING.md);
* ``info`` — the unified component registry's inventory.

``experiment``, ``ablation`` and ``sweep`` accept the scheduling knobs
``--jobs N``, ``--executor serial|process``, ``--cell-timeout
SECONDS``, ``--retries N`` and ``--on-error abort|continue`` (one
:class:`~repro.experiments.scheduler.EngineConfig`, checked before
anything runs; none changes a result), plus ``--cache-dir PATH``
(on-disk artifact cache shared across invocations), ``--resume`` (skip
cells already finished in the cache dir) and ``--client-engine
serial|batched`` (per-round client execution, bit-identical at
float64).  ``run`` accepts ``--client-engine`` too.

Exit codes: 0 clean; 1 spec-validation or runtime error; 2 usage
(including a bad engine knob, or knobs that cannot run together, such
as ``--cell-timeout`` on a serial run); 3 the sweep finished but some
cells failed under ``--on-error continue`` (partial tables must not
look like clean runs); 130 the sweep was interrupted (Ctrl-C) —
finished cells are already persisted when a ``--cache-dir`` is set,
and a ``--resume`` hint is printed.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import __version__
from repro.registry import registry

# literal mirrors of artefact_registry's PAPER_ARTEFACTS /
# ABLATION_ARTEFACTS keys: parser construction must not import the whole
# experiment stack (tests assert these stay in sync)
_ARTEFACTS = ("table1", "fig1", "fig4", "fig5", "fig6", "fig7")
_ABLATIONS = ("aggregation", "denoise", "self-labeling")
# literal mirrors of scheduler.EXECUTORS / ON_ERROR_MODES and
# fl.server.CLIENT_ENGINES, for the same reason (tests pin them too)
_EXECUTORS = ("serial", "process")
_ON_ERROR_MODES = ("abort", "continue")
_CLIENT_ENGINES = ("serial", "batched")


class _RegistryNames:
    """A namespace's registered names, read when argparse first checks a
    value or prints the choices, so building the parser populates no
    namespace and imports no component module.  Arguments using it pass
    a ``metavar``: without one, ``add_argument`` lists the choices."""

    def __init__(self, namespace: str) -> None:
        self.namespace = namespace

    def __iter__(self):
        return iter(registry.names(self.namespace))

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and registry.has(self.namespace, name)


def _api():
    # deferred so `repro --version` / usage errors stay import-light
    import repro.api as api

    return api


def _builder(builder, args: argparse.Namespace):
    """Apply the shared flags to an ``experiment(...)`` or
    ``ablation(...)`` builder."""
    builder = (
        builder.preset(args.preset)
        .seed(args.seed)
        .jobs(args.jobs)
        .executor(args.executor)
        .cache(args.cache_dir)
        .resume(args.resume)
        .cell_timeout(args.cell_timeout)
        .retries(args.retries)
        .on_error(args.on_error)
    )
    if args.client_engine is not None:
        builder = builder.client_engine(args.client_engine)
    return builder


def _report_failures(sweep) -> int:
    """Print a sweep's failure records to stderr; exit contribution 3
    when any cell failed under ``--on-error continue`` — a partial
    table must not exit like a clean run."""
    if sweep is None or not getattr(sweep, "failures", None):
        return 0
    print(f"{len(sweep.failures)} cell(s) failed:", file=sys.stderr)
    for failure in sweep.failures:
        print(f"  {failure.describe()}", file=sys.stderr)
    return 3


def _print_result(result) -> int:
    """Print an artefact or sweep result; returns the exit contribution
    (3 when cells failed under ``--on-error continue``, else 0)."""
    if hasattr(result, "format_report"):
        print(result.format_report())
        sweep = getattr(result, "sweep", None)
    else:
        # a raw SweepResult: a free-form plan, or a partial sweep whose
        # collector needs the full grid to shape its table
        sweep = result
        print(_api().format_sweep_table(result))
    if sweep is not None:
        print(f"[{sweep.format_stats()}]")
    return _report_failures(sweep)


def _cmd_experiment(args: argparse.Namespace) -> int:
    api = _api()
    names = _ARTEFACTS if args.artefact == "all" else (args.artefact,)
    # one engine for all artefacts: pre-trains cached by one figure are
    # reused by every later figure that shares them
    engine = _builder(api.experiment(names[0]), args).build_engine()
    code = 0
    for name in names:
        start = time.time()
        result = _builder(api.experiment(name), args).engine(engine).run()
        code = max(code, _print_result(result))
        print(f"[{name} regenerated in {time.time() - start:.0f}s]\n")
    return code


def _cmd_ablation(args: argparse.Namespace) -> int:
    return _print_result(_builder(_api().ablation(args.axis), args).run())


def _cmd_run(args: argparse.Namespace) -> int:
    api = _api()
    result = api.run_single(
        args.framework,
        preset=args.preset,
        seed=args.seed,
        attack=args.attack,
        epsilon=args.epsilon,
        building=args.building,
        client_engine=args.client_engine,
    )
    spec = result.spec
    print(
        f"{spec.framework} / {spec.attack or 'clean'} eps={spec.epsilon} "
        f"on {result.building}: {result.error_summary}"
    )
    print(f"parameters: {result.parameter_count:,}")
    if any(result.flagged_per_round):
        print(f"flagged per round: {result.flagged_per_round}")
    if any(result.dropped_per_round):
        print(f"dropped per round: {result.dropped_per_round}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    api = _api()
    try:
        result = api.run_spec(
            args.spec,
            jobs=args.jobs,
            executor=args.executor,
            cache_dir=args.cache_dir,
            resume=args.resume,
            client_engine=args.client_engine,
            cell_timeout=args.cell_timeout,
            retries=args.retries,
            on_error=args.on_error,
        )
    except api.SpecValidationError as error:
        print(error, file=sys.stderr)
        return 1
    return _print_result(result)


def _cmd_validate(args: argparse.Namespace) -> int:
    api = _api()
    failures = 0
    for path in args.specs:
        try:
            plan = api.validate_spec(path)
        except api.SpecValidationError as error:
            print(error, file=sys.stderr)
            failures += 1
            continue
        print(
            f"{path}: OK — plan {plan.name!r} [{plan.preset.name}], "
            f"{len(plan.cells)} cells"
        )
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # deferred: the linter must not weigh down `repro --version` or
    # unrelated subcommands
    from repro.lint.cli import run_command

    return run_command(
        paths=args.paths,
        select=args.select,
        fmt=args.format,
        show_rules=args.list_rules,
    )


def _format_defaults(defaults: dict) -> str:
    if not defaults:
        return ""
    return ", ".join(f"{key}={value!r}" for key, value in sorted(defaults.items()))


def _cmd_info(args: argparse.Namespace) -> int:
    del args
    print(f"repro {__version__} — SAFELOC reproduction (DATE 2025)")
    for namespace, components in _api().info().items():
        print(f"\n{namespace}:")
        width = max(len(entry["name"]) for entry in components)
        for entry in components:
            origin = "paper" if entry["paper"] else "extension"
            line = f"  {entry['name']:<{width}}  [{origin:<9}]  {entry['doc']}"
            defaults = _format_defaults(entry["defaults"])
            if defaults:
                line += f" (defaults: {defaults})"
            print(line)
    return 0


def _add_engine_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run sweep cells on N worker processes (results are "
        "bit-identical to sequential; default sequential)",
    )
    parser.add_argument(
        "--executor",
        choices=_EXECUTORS,
        default=None,
        help="'serial' runs cells inline, 'process' runs them in "
        "killable worker processes (default: 'process' when --jobs is "
        "above 1, else 'serial'; results are bit-identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="on-disk artifact cache: fingerprint data, pre-trained GMs "
        "and finished cells persist here across invocations",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells whose results already sit in --cache-dir "
        "(resume a partially completed sweep; requires --cache-dir)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget: a hung process cell is "
        "preempted, retried (--retries), and ultimately reported as a "
        "timeout failure; needs the process executor (default: "
        "unlimited)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-dispatches per cell after an exception, timeout or "
        "worker crash, with deterministic exponential backoff — retried "
        "cells reproduce bit-identically (default 0)",
    )
    parser.add_argument(
        "--on-error",
        choices=_ON_ERROR_MODES,
        default=None,
        help="failure policy once retries are exhausted: 'abort' "
        "(default) re-raises after persisting finished cells; "
        "'continue' records structured failures, finishes the sweep, "
        "and exits with status 3",
    )
    _add_client_engine_option(parser)


def _add_client_engine_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--client-engine",
        choices=_CLIENT_ENGINES,
        default=None,
        help="client execution engine per federation round: 'serial' "
        "(each client trains alone) or 'batched' (fold-stacked cohort "
        "training — one 3-D matmul program per round); both run the "
        "same training programs with identical results at float64 "
        "(default: the preset's engine)",
    )


def build_parser() -> argparse.ArgumentParser:
    presets = _RegistryNames("presets")
    preset_help = "experiment scale: %(choices)s (default: %(default)s)"
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAFELOC reproduction command-line interface",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    exp.add_argument("artefact", choices=(*_ARTEFACTS, "all"))
    exp.add_argument(
        "--preset",
        default="fast",
        choices=presets,
        metavar="PRESET",
        help=preset_help,
    )
    exp.add_argument("--seed", type=int, default=42)
    _add_engine_options(exp)
    exp.set_defaults(func=_cmd_experiment)

    abl = sub.add_parser("ablation", help="run an ablation study")
    abl.add_argument("axis", choices=_ABLATIONS)
    abl.add_argument(
        "--preset",
        default="fast",
        choices=presets,
        metavar="PRESET",
        help=preset_help,
    )
    abl.add_argument("--seed", type=int, default=42)
    _add_engine_options(abl)
    abl.set_defaults(func=_cmd_ablation)

    run = sub.add_parser("run", help="one federation under one scenario")
    run.add_argument(
        "framework",
        choices=_RegistryNames("frameworks"),
        metavar="FRAMEWORK",
        help="one of: %(choices)s",
    )
    run.add_argument(
        "--attack",
        choices=_RegistryNames("attacks"),
        metavar="ATTACK",
        default=None,
        help="one of: %(choices)s (default: no attack)",
    )
    run.add_argument("--epsilon", type=float, default=0.5)
    run.add_argument("--building", default=None)
    run.add_argument(
        "--preset",
        default="fast",
        choices=presets,
        metavar="PRESET",
        help=preset_help,
    )
    run.add_argument("--seed", type=int, default=42)
    _add_client_engine_option(run)
    run.set_defaults(func=_cmd_run)

    swp = sub.add_parser(
        "sweep", help="execute a serialized sweep spec (JSON plan file)"
    )
    swp.add_argument(
        "--spec", required=True, help="path to a sweep-spec JSON file"
    )
    _add_engine_options(swp)
    swp.set_defaults(func=_cmd_sweep)

    val = sub.add_parser(
        "validate", help="schema-check sweep-spec files without running them"
    )
    val.add_argument("specs", nargs="+", help="spec JSON files to check")
    val.set_defaults(func=_cmd_validate)

    lint = sub.add_parser(
        "lint",
        help="AST-based repo invariant linter (determinism, executor "
        "safety, seed provenance, cache-key soundness)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: src and tests)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULE,...",
        help="only run these rules — exact ids (REP302) or families "
        "(REP3xx), comma-separated (default: all)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: grep-friendly text (default) or the "
        "stable machine-readable JSON schema",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, title, rationale) and exit",
    )
    lint.set_defaults(func=_cmd_lint)

    info = sub.add_parser("info", help="unified component registry inventory")
    info.set_defaults(func=_cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.cache_dir:
        parser.error("--resume requires --cache-dir")
    from repro.experiments.scheduler import (
        ENGINE_KNOBS,
        EngineConfigError,
        SweepInterrupted,
        engine_problems,
    )

    knobs = {name: getattr(args, name, None) for name in ENGINE_KNOBS}
    problems = engine_problems(
        {name: value for name, value in knobs.items() if value is not None}
    )
    if problems:
        parser.error("; ".join(problems))
    try:
        return args.func(args)
    except EngineConfigError as error:
        print(f"repro {args.command}: error: {error}", file=sys.stderr)
        return 2
    except SweepInterrupted as interrupt:
        _print_interrupt(interrupt, args)
        return 130
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130


def _print_interrupt(
    interrupt, args: argparse.Namespace
) -> None:
    """The Ctrl-C epilogue: what is saved, and how to pick it back up."""
    print(f"\n{interrupt}", file=sys.stderr)
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        print(
            f"{interrupt.finished} finished cell(s) are saved in "
            f"{cache_dir!r} — re-run with --resume --cache-dir "
            f"{cache_dir} to continue where this run stopped",
            file=sys.stderr,
        )
    else:
        print(
            "finished cells were NOT persisted (no --cache-dir); re-run "
            "with --cache-dir PATH to make sweeps resumable",
            file=sys.stderr,
        )


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

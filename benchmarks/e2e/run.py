"""End-to-end benchmark of the SAFELOC reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload fig6-mix --seed 7
    python3 benchmarks/e2e/run.py --trace 1             # per-layer tables
    python3 benchmarks/e2e/run.py --repeat 5 --out runs.json

Every workload runs in its own fresh Python process, one after another,
with the BLAS and OpenMP thread pools pinned to one thread (results are
then bit-reproducible: two BLAS threads change the rounding of the
GEMMs, and with it the federation's trajectory).  Each run prints its
metrics by name with their units, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
output checks fail still prints that line, with ``"correct": false``,
and the command exits 1; a run that crashes prints no result line.

``--trace 1`` runs the workload under the layer wrappers of
``trace.py`` and reports the per-layer metrics instead of the
end-to-end ones; the spans go to ``benchmarks/e2e/out/`` as JSON lines
and as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
#: pinned so a run's numbers do not depend on the host's core count
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 175
#: set-up repetitions of an untraced run, by set-up cost
SETUP_REPS = {
    "safeloc-paper": 2,
    "safeloc-infer": 2,
    "fedls-scale": 3,
    "fig6-mix": 3,
}


def load_declaration() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]], declaration: Dict):
    names = [workload["name"] for workload in declaration["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float, default=declaration["run_seconds"],
        help="how long each run measures (default: BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: per-layer metrics from a traced run (bare --trace = 1)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, with seeds seed, seed+1, ...",
    )
    parser.add_argument("--out", help="write every run and the meta block here")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes that finish in seconds (tests only)",
    )
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    args.names = names if args.workload == "all" else [args.workload]
    return args


# -- the parent: one fresh process per run ---------------------------------
def git_revision() -> str:
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def meta_block(args) -> Dict:
    probe = subprocess.run(
        [sys.executable, "-c", (
            "import json, numpy as np\n"
            "blas = np.show_config(mode='dicts')['Build Dependencies']['blas']\n"
            "print(json.dumps([np.__version__, blas.get('name'),"
            " blas.get('version')]))"
        )],
        env={**os.environ, **THREAD_ENV}, capture_output=True, text=True,
        timeout=60, check=True,
    )
    numpy_version, blas_name, blas_version = json.loads(probe.stdout)
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": f"{blas_name} {blas_version}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "git_rev": git_revision(),
    }


def run_child(args, workload: str, seed: int) -> Optional[Dict]:
    """One workload run in a fresh interpreter; its result, or ``None``."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    try:
        child = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"{workload}: killed after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = child.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if child.returncode not in (0, 1) or not isinstance(result, dict):
        print(lines[-1])
        print(f"{workload}: run crashed (exit {child.returncode})",
              file=sys.stderr)
        return None
    return result


def main(argv: Optional[List[str]] = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv, load_declaration())
    if args.child:
        return child_main(args)
    OUT.mkdir(exist_ok=True)
    meta = meta_block(args)
    print("meta " + json.dumps(meta, sort_keys=True))
    runs = []
    for workload in args.names:
        for offset in range(args.repeat):
            seed = args.seed + offset
            result = run_child(args, workload, seed)
            if result is None:
                return 1
            runs.append({"workload": workload, "seed": seed,
                         "trace": args.trace, **result})
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"meta": meta, "runs": runs}, handle, indent=1)
            handle.write("\n")
    correct = all(run["correct"] for run in runs)
    if len(runs) == 1:
        result = {key: runs[0][key]
                  for key in ("correct", "attempted", "failed", "metrics")}
    else:
        result = {
            "correct": correct,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "runs": len(runs),
        }
    print(json.dumps(result))
    return 0 if correct else 1


# -- the child: one workload, one run --------------------------------------
def child_main(args) -> int:
    repro_root = ROOT / "src" / "repro"
    import repro

    if Path(repro.__file__).resolve().parent != repro_root:
        print(f"imported repro from {repro.__file__}, not {repro_root}",
              file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    tracer = None
    if args.trace:
        import trace as tracing

        tracer = tracing.Tracer()
        tracer.install()
    # a traced run sets up once and runs only the workload's fixed prefix,
    # so its counts repeat exactly for a given seed
    reps, seconds = (1, 0.0) if args.trace else (
        SETUP_REPS[args.workload], args.seconds
    )
    start = time.perf_counter()
    outcome = workloads.RUNNERS[args.workload](
        args.seed, seconds, reps, args.smoke, tracer, str(OUT)
    )
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        title = f"{args.workload} seed {args.seed}"
        print(tracing.format_layer_table(tracer, wall, title))
        stem = OUT / f"trace-{args.workload}-s{args.seed}"
        for path in tracer.write(str(stem)):
            print(f"trace written: {os.path.relpath(path, ROOT)}")
        metrics = tracing.layer_metrics(tracer, wall, outcome.sweep)
    else:
        metrics = workloads.end_to_end_metrics(outcome)
    p90_ms = 1e3 * float(np.percentile(outcome.latencies_s, 90))
    print(f"{args.workload} seed {args.seed}: {outcome.attempted} checked, "
          f"{len(outcome.failures)} failed, "
          f"{len(outcome.latencies_s)} timed operations (p90 {p90_ms:.4g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())

"""Compare two sets of end-to-end benchmark runs.

    python3 benchmarks/e2e/compare.py parent.json change.json

Each file is the output of ``run.py --repeat N --out FILE``.  The report
has one row per (workload, end-to-end metric) with each side's median and
quartiles, how many pairs the second set won, and a verdict:

* ``better``: the second set wins at least nine tenths of the pairs
  (ties count for neither) and its median beats the first set's by more
  than the first set's own spread (the distance between its quartiles);
* ``worse``: the second set's median is worse than the first set's by
  more than the metric's bound from ``BENCHMARK.json``;
* ``unresolved``: either set's spread, as a share of its median, is
  wider than the bound, and not every run of the second set reads better
  than every run of the first;
* ``unchanged``: none of the above.

Runs pair up in seed order (by seed when both sets used the same
seeds).  The command exits 1 when any verdict is
``worse`` or ``unresolved``, so it doubles as the regression gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

DECLARATION = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    first: Sequence[float],
    second: Sequence[float],
    better: str,
    bound: float,
) -> Tuple[str, int]:
    """The verdict for one metric, and how many pairs ``second`` won.

    ``first`` and ``second`` are paired by position.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(first, second))
    q1, median_a, q3 = quartiles(first)
    median_b = quartiles(second)[1]
    gain = sign * (median_b - median_a)
    if wins >= 0.9 * min(len(first), len(second)) and gain > q3 - q1:
        return "better", wins
    if -gain > bound * abs(median_a):
        return "worse", wins
    all_better = min(sign * b for b in second) > max(sign * a for a in first)
    if max(spread(first), spread(second)) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def _runs(run_set: Dict, workload: str) -> List[Dict]:
    return sorted(
        (run for run in run_set["runs"] if run["workload"] == workload),
        key=lambda run: run["seed"],
    )


def compare(first: Dict, second: Dict, declaration: Dict) -> List[Dict]:
    """One row per (workload, end-to-end metric) both sets measured."""
    rows = []
    for workload in dict.fromkeys(run["workload"] for run in first["runs"]):
        pairs = list(zip(_runs(first, workload), _runs(second, workload)))
        if not pairs:
            continue
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            try:
                a = [run_a["metrics"][name]["value"] for run_a, _ in pairs]
                b = [run_b["metrics"][name]["value"] for _, run_b in pairs]
            except KeyError:
                continue
            result, wins = verdict(a, b, metric["better"], metric["bound"])
            rows.append({
                "workload": workload, "metric": name, "bound": metric["bound"],
                "first": quartiles(a), "second": quartiles(b),
                "wins": wins, "pairs": len(pairs), "verdict": result,
            })
    return rows


def format_rows(rows: List[Dict]) -> str:
    lines = [
        f"{'workload':<14}{'metric':<15}{'first median [q1, q3]':>32}"
        f"{'second median [q1, q3]':>32}{'change':>9}{'wins':>7}"
        f"{'bound':>7}  verdict"
    ]
    for row in rows:
        (a1, am, a3), (b1, bm, b3) = row["first"], row["second"]
        change = (bm - am) / abs(am) if am else 0.0
        lines.append(
            f"{row['workload']:<14}{row['metric']:<15}"
            f"{am:>12.5g} [{a1:.4g}, {a3:.4g}]".ljust(61)
            + f"{bm:>12.5g} [{b1:.4g}, {b3:.4g}]".ljust(32)
            + f"{change:>+8.1%}{row['wins']:>4}/{row['pairs']:<2}"
            f"{row['bound']:>7.0%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="baseline run set (run.py --out)")
    parser.add_argument("second", help="run set to judge against it")
    args = parser.parse_args(argv)
    with open(DECLARATION) as handle:
        declaration = json.load(handle)
    sets = []
    for path in (args.first, args.second):
        with open(path) as handle:
            sets.append(json.load(handle))
    rows = compare(sets[0], sets[1], declaration)
    if not rows:
        print("the two sets share no workload", file=sys.stderr)
        return 2
    print(format_rows(rows))
    bad = [row for row in rows if row["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

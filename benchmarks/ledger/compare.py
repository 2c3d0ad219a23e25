"""``run.py compare A.json B.json``: is B worse than A, by the ledger's own bounds?

A record file is ``{"env": ..., "runs": [...]}`` as ``run.py --out`` and
``repeat.py`` write them; each side may hold many runs of each workload.
One row per (end-to-end metric, workload): both medians, the ratio B/A
(A is the base), each side's own spread (interquartile range over median)
and a verdict:

- ``regression`` — B's median is worse than A's by more than the bound;
- ``unresolved`` — not a regression, but a side's own runs spread wider
  than the bound, so "unchanged" cannot be claimed (unless every run of B
  reads better than every run of A, which is ``better``);
- ``better`` / ``unchanged`` — otherwise.

``error_rate`` (failed over attempted) has its own row per workload and an
absolute bound of zero: any rise is a regression.  Exact counts from the
traced runs are listed when they differ.  Exit status is non-zero on any
regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from checks import EXACT_COUNTS

ROOT = Path(__file__).resolve().parents[2]


def load_benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units, directions and bounds."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_runs(path) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["runs"]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / abs(middle) if middle else 0.0


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return change if better == "lower" else -change


def metric_rows(
    a_runs: Sequence[Dict], b_runs: Sequence[Dict], bench: Dict[str, Any]
) -> List[Dict[str, Any]]:
    rows = []
    for workload in (entry["name"] for entry in bench["workloads"]):
        sides = [
            [r for r in runs if r["workload"] == workload and not r["trace"]]
            for runs in (a_runs, b_runs)
        ]
        if not all(sides):
            continue
        for entry in bench["end_to_end"]:
            a, b = (
                [run["metrics"][entry["name"]]["value"] for run in side] for side in sides
            )
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = worse_by(median_a, median_b, entry["better"])
            lower = entry["better"] == "lower"
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            noisy = max(spread(a), spread(b)) > entry["bound"]
            if worse > entry["bound"]:
                verdict = "regression"
            elif all_better:
                verdict = "better"
            elif noisy:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            rows.append(
                {
                    "workload": workload,
                    "metric": entry["name"],
                    "unit": entry["unit"],
                    "a": median_a,
                    "b": median_b,
                    "runs": (len(a), len(b)),
                    "ratio": median_b / median_a if median_a else float("nan"),
                    "worse_by": worse,
                    "bound": entry["bound"],
                    "spread": (spread(a), spread(b)),
                    "verdict": verdict,
                }
            )
        failed_a, attempted_a = (sum(r[k] for r in sides[0]) for k in ("failed", "attempted"))
        failed_b, attempted_b = (sum(r[k] for r in sides[1]) for k in ("failed", "attempted"))
        rate_a = failed_a / attempted_a if attempted_a else 0.0
        rate_b = failed_b / attempted_b if attempted_b else 0.0
        incorrect = not all(run["correct"] for run in sides[1])
        rows.append(
            {
                "workload": workload,
                "metric": "error_rate",
                "unit": "failed/attempted",
                "a": rate_a,
                "b": rate_b,
                "detail": f"{failed_a}/{attempted_a} -> {failed_b}/{attempted_b}",
                "verdict": "regression" if rate_b > rate_a or incorrect else "unchanged",
            }
        )
    return rows


def exact_count_differences(
    a_runs: Sequence[Dict], b_runs: Sequence[Dict]
) -> List[Tuple[str, int, str, float, float]]:
    """Exact counts that differ between traced runs of one workload and seed."""
    def traced(runs):
        return {(r["workload"], r["seed"]): r["metrics"] for r in runs if r["trace"]}

    a_side, b_side = traced(a_runs), traced(b_runs)
    differences = []
    for key in sorted(set(a_side) & set(b_side)):
        for name in EXACT_COUNTS:
            a, b = a_side[key][name]["value"], b_side[key][name]["value"]
            if a != b:
                differences.append((key[0], key[1], name, a, b))
    return differences


def print_rows(rows: Sequence[Dict[str, Any]]) -> None:
    print(
        f"{'workload':<17} {'metric':<12} {'A (base)':>12} {'B':>12} {'unit':<7} "
        f"{'B/A':>7} {'worse by':>9} {'bound':>6} {'spread A/B':>13}  verdict"
    )
    for row in rows:
        if row["metric"] == "error_rate":
            print(
                f"{row['workload']:<17} {row['metric']:<12} {row['a']:>12.6g} "
                f"{row['b']:>12.6g} {row['detail']:<46}  {row['verdict']}"
            )
            continue
        print(
            f"{row['workload']:<17} {row['metric']:<12} {row['a']:>12.6g} {row['b']:>12.6g} "
            f"{row['unit']:<7} {row['ratio']:>7.3f} {row['worse_by']:>+9.1%} "
            f"{row['bound']:>6.0%} {row['spread'][0]:>6.1%}/{row['spread'][1]:<6.1%}  "
            f"{row['verdict']} (n={row['runs'][0]}/{row['runs'][1]})"
        )


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    bench = load_benchmark()
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    rows = metric_rows(a_runs, b_runs, bench)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 2
    print_rows(rows)
    for workload, seed, name, a, b in exact_count_differences(a_runs, b_runs):
        print(f"exact count differs: {workload} seed {seed} {name}: {a:g} -> {b:g}")
    regressions = [row for row in rows if row["verdict"] == "regression"]
    print(
        f"{len(regressions)} regression(s), "
        f"{sum(row['verdict'] == 'unresolved' for row in rows)} unresolved, "
        f"{len(rows)} rows; ratios are B over A"
    )
    return 1 if regressions else 0

#!/usr/bin/env python3
"""The ledger's self-check: run the whole benchmark twice on one commit.

    python3 benchmarks/ledger/repeat.py --runs 10 --out benchmarks/ledger/records

Each set runs every workload ``--runs`` times untraced (seeds ``--seed``,
``--seed + 1``, ...) and once traced; the second set walks the workloads
in the opposite order.  The sets are written as ``set-1.json`` and
``set-2.json`` (the format ``run.py compare`` reads) and compared both
ways.  The check fails when an end-to-end metric's two medians differ by
more than its bound, when a metric's spread within a set exceeds its
bound (``setup_s`` excepted: it is bounded on its medians only), when any
exact count differs between the sets, or when any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import compare

HERE = Path(__file__).resolve().parent


def run_set(
    label: int, workloads: Sequence[str], args: argparse.Namespace, out: Path
) -> Dict[str, Any]:
    scratch = out / f"set-{label}-runs"
    record: Dict[str, Any] = {"env": None, "runs": []}
    for workload in workloads:
        plan = [(args.seed + index, 0) for index in range(args.runs)] + [(args.seed, 1)]
        for seed, trace in plan:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(scratch),
            ]
            done = subprocess.run(command, stdout=subprocess.DEVNULL)
            path = scratch / f"{workload}-seed{seed}-trace{trace}.json"
            if not path.exists():
                raise SystemExit(f"{' '.join(command)} exited {done.returncode} with no record")
            with open(path, "r", encoding="utf-8") as handle:
                single = json.load(handle)
            path.unlink()
            record["env"] = record["env"] or single["env"]
            record["runs"].extend(single["runs"])
            print(f"set {label}: {workload} seed {seed} trace {trace}: "
                  f"{'ok' if done.returncode == 0 else 'FAILED'}", flush=True)
    for leftover in scratch.glob("trace-*.jsonl"):
        leftover.unlink()
    scratch.rmdir()
    with open(out / f"set-{label}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return record


def main(argv: Sequence[str]) -> int:
    bench = compare.load_benchmark()
    names = [entry["name"] for entry in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload and set")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names,
                        help="restrict to these workloads (default: all)")
    parser.add_argument("--out", required=True, help="directory for set-1.json and set-2.json")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workload or names
    first = run_set(1, workloads, args, out)
    second = run_set(2, list(reversed(workloads)), args, out)

    forward = compare.metric_rows(first["runs"], second["runs"], bench)
    backward = compare.metric_rows(second["runs"], first["runs"], bench)
    compare.print_rows(forward)
    problems: List[str] = []
    for row, mirror in zip(forward, backward):
        where = f"{row['metric']} on {row['workload']}"
        if "regression" in (row["verdict"], mirror["verdict"]):
            problems.append(f"{where}: the two sets' medians differ by more than the bound")
        elif row["metric"] not in ("setup_s", "error_rate") and max(row["spread"]) > row["bound"]:
            problems.append(f"{where}: spread {max(row['spread']):.1%} exceeds the bound")
    for workload, seed, name, a, b in compare.exact_count_differences(
        first["runs"], second["runs"]
    ):
        problems.append(f"exact count {name} on {workload} seed {seed}: {a:g} != {b:g}")
    for run in first["runs"] + second["runs"]:
        if not run["correct"]:
            problems.append(f"incorrect run: {run['workload']} seed {run['seed']}: {run['reasons']}")
    for problem in problems:
        print(f"NOT STEADY: {problem}")
    print(f"{len(problems)} problem(s) over {len(forward)} rows, "
          f"{args.runs} untraced + 1 traced run per workload and set")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

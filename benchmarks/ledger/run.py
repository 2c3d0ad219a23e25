#!/usr/bin/env python3
"""The perf ledger: one command, five workloads, every metric by name.

    python3 benchmarks/ledger/run.py --workload sweep-points --seed 7
    python3 benchmarks/ledger/run.py --workload sweep-points --trace 1 --out out/
    python3 benchmarks/ledger/run.py                # every workload in turn
    python3 benchmarks/ledger/run.py compare A.json B.json

One invocation runs one workload: set-up (repeated, median reported), a
window of whole units for ``--seconds``, the correctness checks, then the
metrics.  ``--trace 0`` prints the end-to-end metrics, measured with
tracing off.  ``--trace 1`` alternates untraced and traced units in the
window, adds one traced unit of every other workload and the per-layer
probes, and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A failed check is a non-zero exit.

Everything the run writes lives under one temporary directory inside the
checkout (``.ledger-work/``), removed on exit; ``--out`` is the only other
place written.  The program under test is the checkout's own ``src/``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import compare
import reference
from compare import ROOT, load_benchmark

HERE = Path(__file__).resolve().parent
WORK_PARENT = ROOT / ".ledger-work"
#: Set-up is repeated and its median reported, so one slow spawn or one
#: cold page cache does not read as a set-up regression.
SETUP_REPEATS = 3
#: Reference quanta before every unit, besides the ones the unit runs
#: between its own operations.
GATES_BETWEEN = 16


@contextmanager
def work_root() -> Iterator[Path]:
    """The run's one temp directory; gone on exit, failure and Ctrl-C."""
    WORK_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:
            pass  # a concurrent run still has its directory in there
        os.sync()  # this run pays for trimming its own files, not the next one


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    """What two records must share to be comparable."""
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "dont_write_bytecode": bool(sys.dont_write_bytecode),
    }


def run_window(workload, seconds: float, trace: bool) -> Tuple[List[Any], float]:
    """Whole units until ``seconds`` is used up (to the nearest unit).

    A traced window alternates untraced and traced units, so the tracing
    overhead is a ratio of units that ran side by side.
    """
    ctx = workload.ctx
    units: List[Any] = []
    started = time.perf_counter()
    while True:
        os.sync()  # a unit times its own writes, not its predecessor's write-back
        ctx.gates = []
        ctx.gate(GATES_BETWEEN)
        units.append(workload.unit(len(units), traced=trace and len(units) % 2 == 1))
        units[-1].gates = ctx.gates
        elapsed = time.perf_counter() - started
        if trace and len(units) < 2:
            continue
        if elapsed + elapsed / len(units) / 2 > seconds:
            return units, elapsed


def slowdown(gates: Sequence[float]) -> float:
    """How many times slower than nominal the host ran while ``gates`` were taken."""
    return statistics.median(gates) / reference.NOMINAL_S


def typical(units: Sequence[Any], attribute: str) -> List[float]:
    """Position by position, the median over the units of a time at nominal speed.

    Every unit repeats the same operations in the same order.  Each
    unit's times are first divided by the host's slowdown while that
    unit ran; the median over the repeats then drops what is left of the
    host: a collection, a page-cache miss, a neighbour's burst.  Units
    that failed half way do not line up and are left out.
    """
    rows = []
    for unit in units:
        factor = slowdown(unit.gates)
        rows.append([value / factor for value in getattr(unit, attribute)])
    lengths = [len(row) for row in rows]
    usual = max(set(lengths), key=lengths.count)
    return [
        statistics.median(column)
        for column in zip(*(row for row in rows if len(row) == usual))
    ]


def end_to_end(units, setup_s: float) -> Tuple[Dict[str, Tuple[float, str]], Dict[str, float]]:
    """The end-to-end metrics at nominal host speed, and the raw readings.

    ``op_p50_ms``/``op_p90_ms`` are over the unit's operations, each at
    the median of its repeats; ``ops_per_s`` is a unit's operations over
    the sum of its segments, each at the median of its repeats.
    """
    from workloads import percentile

    samples = typical(units, "samples_ms")
    pooled = [sample for unit in units for sample in unit.samples_ms]
    usage = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (
            statistics.mode(unit.ops for unit in units)
            / sum(typical(units, "segments_ms")) * 1e3,
            "op/s",
        ),
        "op_p50_ms": (statistics.median(samples), "ms"),
        "op_p90_ms": (percentile(samples, 0.90), "ms"),
        "peak_rss_mb": (usage / 1024.0, "MiB"),
    }
    raw = {
        "ops_per_s": statistics.median(u.ops / u.wall for u in units),
        "op_p50_ms": statistics.median(pooled),
        "op_p90_ms": percentile(pooled, 0.90),
    }
    return metrics, raw


def per_layer(ctx, workload, units) -> Dict[str, Tuple[float, str]]:
    """Every layer's numbers, as measured (not scaled to nominal speed):
    this workload's window, one traced unit of each other workload, then
    the probes."""
    from probes import run_probes
    from workloads import WORKLOADS, percentile

    metrics = dict(workload.layer_metrics(units))
    workload.teardown()
    for name, cls in WORKLOADS.items():
        if name == workload.name:
            continue
        other = cls(ctx)
        try:
            other.setup()
            slice_units = [other.unit(0, traced=True)]
            other.finish(slice_units)
            metrics.update(other.layer_metrics(slice_units))
        finally:
            other.teardown()
    metrics.update(run_probes(ctx))
    samples = [sample for unit in units for sample in unit.samples_ms]
    metrics["op_p99_ms"] = (percentile(samples, 0.99), "ms")
    metrics["obs.traced_overhead_ratio"] = (
        statistics.median(u.wall / u.ops for u in units if u.traced)
        / statistics.median(u.wall / u.ops for u in units if not u.traced),
        "ratio",
    )
    return metrics


def run_workload(args: argparse.Namespace) -> int:
    bench = load_benchmark()
    sys.path.insert(0, str(ROOT / "src"))  # this checkout's program, never an installed one
    with reference.sampling() as import_gates:
        import checks
        from spans import SpanLog
        from workloads import WORKLOADS, Context, subprocess_env

        import_s = time.perf_counter() - _PROCESS_START
    trace = bool(args.trace)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so tear-down runs
    with work_root() as work:
        ctx = Context(
            seed=args.seed,
            work=work,
            env=subprocess_env(ROOT, work),
            tally=checks.Tally(),
            log=SpanLog(enabled=False),
        )
        workload = WORKLOADS[args.workload](ctx)
        try:
            # Set-up, several times over, each at the host's speed while it ran.
            setup_walls, setups_at_nominal = [], []
            for attempt in range(1 if trace else SETUP_REPEATS):
                workload.teardown()
                with reference.sampling() as setup_gates:
                    started = time.perf_counter()
                    workload.setup()
                    os.sync()  # set-up's writes reach the disk before the window, not in it
                    setup_walls.append(time.perf_counter() - started)
                setups_at_nominal.append(setup_walls[-1] / slowdown(setup_gates))
            units, elapsed = run_window(workload, args.seconds, trace)
            workload.finish(units)
            host = {
                "nominal_quantum_ms": reference.NOMINAL_S * 1e3,
                "window_slowdown": slowdown([g for unit in units for g in unit.gates]),
                "quanta": sum(len(unit.gates) for unit in units),
            }
            if trace:
                metrics = per_layer(ctx, workload, units)
            else:
                workload.teardown()  # reaps the daemon, so its memory is counted
                metrics, host["raw"] = end_to_end(
                    units,
                    import_s / slowdown(import_gates) + statistics.median(setups_at_nominal),
                )
                host["raw"]["setup_s"] = import_s + statistics.median(setup_walls)
        finally:
            workload.teardown()
        if args.out and trace:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            ctx.log.write(Path(args.out) / f"trace-{args.workload}.jsonl")

    declared = bench["per_layer" if trace else "end_to_end"]
    if sorted(metrics) != sorted(entry["name"] for entry in declared):
        missing = {entry["name"] for entry in declared} ^ set(metrics)
        raise SystemExit(f"metrics out of step with BENCHMARK.json: {sorted(missing)}")

    tally = ctx.tally
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons[:20],
        "notes": workload.notes,
        "host": host,
        "window": {
            "units": len(units),
            "wall_s": sum(unit.wall for unit in units),
            "elapsed_s": elapsed,
            "ops": sum(unit.ops for unit in units),
            "samples": sum(len(unit.samples_ms) for unit in units),
            "import_s": import_s,
            "setup_walls_s": setup_walls,
        },
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    env = environment(args)
    print_run(run, env, declared)
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        target = Path(args.out) / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json"
        with open(target, "w", encoding="utf-8") as handle:
            json.dump({"env": env, "runs": [run]}, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(json.dumps({key: run[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if tally.correct else 1


def print_run(run: Dict[str, Any], env: Dict[str, Any], declared: Sequence[Dict]) -> None:
    window = run["window"]
    print(f"ledger: workload={run['workload']} " + " ".join(
        f"{key}={value}" for key, value in env.items()))
    print(
        f"window: {window['units']} units, {window['ops']} ops, "
        f"{window['samples']} latency samples, {window['wall_s']:.3f} s measured "
        f"({window['elapsed_s']:.3f} s with checks)"
    )
    host = run["host"]
    print(
        f"host: {host['window_slowdown']:.3f}x slower than nominal over the window "
        f"({host['quanta']} reference quanta, nominal {host['nominal_quantum_ms']:g} ms each); "
        f"end-to-end times below are at nominal speed"
    )
    for name, value in host.get("raw", {}).items():
        print(f"  raw {name:<44} {value:>16.6g} (wall clock, as measured)")
    if run["notes"]:
        print("notes: " + " ".join(f"{k}={v}" for k, v in run["notes"].items()))
    better = {entry["name"]: entry["better"] for entry in declared}
    for name, metric in run["metrics"].items():
        print(f"  {name:<48} {metric['value']:>16.6g} {metric['unit']:<12} ({better[name]} is better)")
    rate = run["failed"] / run["attempted"] if run["attempted"] else 0.0
    print(f"  error_rate: {run['failed']} failed / {run['attempted']} attempted = {rate:.6g}")
    for reason in run["reasons"]:
        print(f"  FAILED: {reason}")


def run_all(args: argparse.Namespace, names: Sequence[str]) -> int:
    """Every workload in turn, each in its own process (clean RSS, clean imports)."""
    combined: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--out", args.out] if args.out else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    bench = load_benchmark()
    names = [entry["name"] for entry in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="length of the measured window (default: %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, prints the per-layer metrics")
    parser.add_argument("--out", help="directory for the run's record (and trace)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

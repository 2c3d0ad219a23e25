"""Shared benchmark configuration.

Every figure benchmark runs its registered scenario once (rounds=1,
:func:`bench_sweep` → ``api.run_scenario``) through pytest-benchmark so
the timing is recorded, then prints the regenerated figure as a textual
series table.

Trial counts default to a reduced-but-stable setting so the whole harness
finishes in minutes; set REPRO_BENCH_TRIALS=1000 to match the paper's
1,000-run averages exactly.  The Monte-Carlo trial engine is configurable
the same way:

- ``REPRO_BENCH_JOBS=4`` fans trials out over a process pool (results are
  identical to serial for the same trial count — the engine's determinism
  contract);
- ``REPRO_BENCH_TOLERANCE=0.02`` enables adaptive early stopping, cutting
  trial counts per point once the CI half-width is within tolerance;
- ``REPRO_BENCH_BACKEND=process-pool`` picks an execution backend by registry
  name (``serial`` / ``process-pool`` / ``distributed``; unset defers to the
  ``REPRO_BENCH_JOBS`` sugar), with
  ``REPRO_BENCH_WORKERS=host:port,...`` supplying worker addresses for
  the distributed backend (``REPRO_BENCH_POOL=N`` spawns a local pool
  instead) and ``REPRO_BENCH_CHUNK_SIZE=N|auto`` setting the span size
  for backends that take one (``auto``: from each worker's observed rate).

**Machine-readable records.**  Besides the human tables, every benchmark
appends a record to ``BENCH_<name>.json`` (written to ``REPRO_BENCH_OUT``,
default: the working directory) via :func:`record_bench`: wall seconds,
trial count, trials/second, and the engine knobs in effect, plus any
bench-specific fields (speedup ratios, CI overlap verdicts).  CI uploads
the files as artifacts, so the performance trajectory is diffable across
commits instead of living in scrollback.
"""

import dataclasses
import json
import os
import time
from pathlib import Path

import pytest

from repro import api
from repro.experiments.reporting import sweep_series
from repro.scenarios.spec import Axis


def bench_trials(default: int = 300) -> int:
    return int(os.environ.get("REPRO_BENCH_TRIALS", default))


def bench_jobs(default=1):
    """REPRO_BENCH_JOBS as an int, or ``default`` when unset.

    Engine/orchestrator call sites pass ``default=None`` so that only an
    *explicit* env value overrides a named backend's own jobs default.
    """
    raw = os.environ.get("REPRO_BENCH_JOBS")
    return default if raw is None else int(raw)


def bench_tolerance():
    raw = os.environ.get("REPRO_BENCH_TOLERANCE")
    if not raw:
        return None
    value = float(raw)
    # 0 is the natural "off" spelling (REPRO_BENCH_JOBS=1 is), not an error.
    return value if value > 0 else None


def bench_backend():
    """The BackendSpec REPRO_BENCH_BACKEND selects, or None (jobs sugar)."""
    name = os.environ.get("REPRO_BENCH_BACKEND")
    if not name:
        return None
    from repro.backends.base import BackendSpec

    options = {}
    workers = os.environ.get("REPRO_BENCH_WORKERS")
    pool = os.environ.get("REPRO_BENCH_POOL")
    if name == "distributed":
        if workers:
            options["workers"] = [
                w.strip() for w in workers.split(",") if w.strip()
            ]
        if pool:
            options["pool"] = int(pool)
        if not options:
            raise RuntimeError(
                "REPRO_BENCH_BACKEND=distributed needs "
                "REPRO_BENCH_WORKERS=host:port,... or REPRO_BENCH_POOL=N"
            )
    chunk = os.environ.get("REPRO_BENCH_CHUNK_SIZE")
    if chunk:
        options["chunk_size"] = chunk if chunk == "auto" else int(chunk)
    return BackendSpec(name, options=options)


def bench_sweep(name, trials=None, axes=None, **fixed):
    """Run a registered scenario under the ``REPRO_BENCH_*`` engine knobs.

    ``axes`` (``{axis name: values}``) narrows the named axes of the
    spec's grid and ``fixed`` overrides fixed parameters — how a bench
    runs one panel, a reduced grid, or a pinned kernel lane of a figure.
    """
    spec = api.get_scenario(name)
    spec = dataclasses.replace(
        spec,
        fixed={**spec.fixed, **fixed},
        axes=tuple(
            Axis(axis.name, (axes or {}).get(axis.name, axis.values))
            for axis in spec.axes
        ),
    )
    return api.run_scenario(
        spec,
        trials=trials,
        tolerance=bench_tolerance(),
        backend=bench_backend(),
        jobs=bench_jobs(None),
    )


def curves(report, value_key="value"):
    """A report pivoted by :func:`sweep_series`: ``{series name: {x: value}}``."""
    x_values, series = sweep_series(
        report.spec.axis_names, list(report.records), value_key=value_key
    )
    return {name: dict(zip(x_values, column)) for name, column in series.items()}


def bench_out_dir() -> Path:
    """Where BENCH_<name>.json files land (REPRO_BENCH_OUT or cwd)."""
    path = Path(os.environ.get("REPRO_BENCH_OUT", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture
def trials() -> int:
    return bench_trials()


# Records accumulated per BENCH file this session; each record_bench call
# rewrites the whole file so an interrupted harness still leaves valid JSON.
_RECORDS = {}


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(
        function, args=args, kwargs=kwargs, rounds=1, iterations=1
    )


def mean_seconds(benchmark):
    """Mean wall seconds pytest-benchmark recorded for this benchmark.

    The one timing source for records: for ``run_once`` (rounds=1) this is
    the single measured round, for conventional multi-round benchmarks the
    mean.
    """
    try:
        return benchmark.stats.stats.mean
    except AttributeError:  # pragma: no cover - not run yet
        return None


# Alias kept for call sites that read better as "the recorded wall".
record_wall = mean_seconds


def time_call(function, *args, **kwargs):
    """Time one plain call: ``(result, wall_seconds)``.

    For benches that compare two lanes inside a single test, where only
    one of them goes through the pytest-benchmark fixture.
    """
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def record_bench(name, benchmark, trials=None, wall=None, **extra):
    """Append one machine-readable record to ``BENCH_<name>.json``.

    ``wall`` defaults to the time pytest-benchmark measured for this
    benchmark; ``trials`` is the total Monte-Carlo trials the run executed
    (when it has a meaningful notion of one), from which trials/second is
    derived.  Extra keyword fields land in the record verbatim.
    """
    if wall is None:
        wall = mean_seconds(benchmark)
    backend = bench_backend()
    record = {
        "bench": benchmark.name,
        "wall_seconds": None if wall is None else round(wall, 6),
        "trials": trials,
        "trials_per_second": (
            round(trials / wall, 3) if trials and wall else None
        ),
        "jobs": bench_jobs(),
        "tolerance": bench_tolerance(),
        "backend": backend.describe() if backend is not None else None,
    }
    record.update(extra)
    records = _RECORDS.setdefault(name, [])
    records.append(record)
    path = bench_out_dir() / f"BENCH_{name}.json"
    path.write_text(
        json.dumps({"bench_file": name, "records": records}, indent=2) + "\n"
    )
    return record

"""Per-backend span-size autotuning, seeded from ``BENCH_*.json`` records.

Every benchmark run appends machine-readable records (see
``benchmarks/conftest.record_bench``) carrying the observed Monte-Carlo
rate (``trials_per_second``) and the backend in effect.  This module
turns those observations into a *span size*: how many trials one
dispatched unit of work should hold so that it is

- **big enough** to amortise its fixed cost (a TCP round trip for the
  distributed backend, a pickle round trip for the pools), and
- **small enough** that spans stay granular: a retried span re-executes
  little work, and the pull-based rebalancing in
  :class:`~repro.backends.distributed.DistributedBackend` has at least
  :data:`MIN_SPANS_PER_WORKER` units per worker to shift between fast
  and slow (or dying) workers.

By the determinism contract a span size can never change results — only
wall time — so autotuning is a pure performance knob, excluded from
result-store cache keys like every other transport option.  Opt in with
``chunk_size="auto"`` on the ``distributed``/``shm-pool`` backends
(CLI: ``--chunk-size auto``; benchmarks:
``REPRO_BENCH_CHUNK_SIZE=auto``).  Records are read from
``REPRO_BENCH_OUT`` (the directory benchmarks write to; default: the
working directory); with no records at all, a conservative default rate
applies.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

#: Fallback Monte-Carlo rate (trials/second) when no records exist —
#: deliberately conservative: underestimating the rate yields smaller
#: spans, which costs a few round trips, never coarse-grained stalls.
DEFAULT_RATE = 20_000.0

#: Target wall seconds per span, per backend.  The distributed backend
#: tolerates a larger span (its per-span cost is a network round trip);
#: the local pool prefers finer ones (its per-span cost is tiny).
TARGET_SPAN_SECONDS: Dict[str, float] = {
    "distributed": 0.5,
    "shm-pool": 0.2,
}

#: Target for backends without an entry above.
FALLBACK_TARGET_SECONDS = 0.25

#: Rebalancing granularity floor: a range is never carved into fewer
#: than this many spans per worker (when it has that many trials).
MIN_SPANS_PER_WORKER = 4

#: Records whose ``backend`` field is null ran under the ``--jobs``
#: sugar; they are filed under this key and approximate any local lane.
LOCAL_KEY = "local"

#: Where :func:`record_observed_rates` appends per-worker rates measured
#: during real runs (the distributed backend's autotune feedback loop).
OBSERVED_FILE = "BENCH_observed.json"

#: Observed-rate records kept in :data:`OBSERVED_FILE` (oldest dropped).
OBSERVED_KEEP = 200


def _usable_rate(rate: Any) -> bool:
    """A rate that may enter a median: a finite, positive, real number.

    ``bool`` is excluded explicitly (it is an ``int`` subclass, so
    ``True`` would otherwise sneak in as 1.0), as are NaN (every
    comparison is False, so ``rate <= 0`` does *not* reject it — and one
    NaN poisons the whole median) and ±inf (``inf > 0`` holds, and an
    infinite median drives ``chunk_size="auto"`` to nonsense spans).
    """
    if isinstance(rate, bool) or not isinstance(rate, (int, float)):
        return False
    return math.isfinite(rate) and rate > 0


def bench_directory(directory=None) -> Path:
    """Where ``BENCH_*.json`` records live (``REPRO_BENCH_OUT`` or cwd)."""
    if directory is not None:
        return Path(directory)
    return Path(os.environ.get("REPRO_BENCH_OUT", "."))


def load_bench_rates(directory=None) -> Dict[str, List[float]]:
    """Observed rates by backend name, from every readable record.

    The ``backend`` field holds :meth:`BackendSpec.describe` output
    (``"distributed(workers=...)"``) — only the name before the options
    matters here.  Unreadable files and rate-less records are skipped,
    and so are corrupt rates (zero, negative, NaN, ±inf, booleans, any
    non-number): autotuning must never fail a run — or skew a median —
    over a torn or hand-edited benchmark artifact.
    """
    rates: Dict[str, List[float]] = {}
    root = bench_directory(directory)
    if not root.is_dir():
        return rates
    for path in sorted(root.glob("BENCH_*.json")):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        records = payload.get("records") if isinstance(payload, dict) else None
        if not isinstance(records, list):
            continue
        for record in records:
            if not isinstance(record, dict):
                continue
            rate = record.get("trials_per_second")
            if not _usable_rate(rate):
                continue
            described = record.get("backend")
            name = (
                described.split("(", 1)[0]
                if isinstance(described, str) and described
                else LOCAL_KEY
            )
            rates.setdefault(name, []).append(float(rate))
    return rates


def bench_rate(backend_name: str, directory=None) -> Optional[float]:
    """The median observed rate for a backend (``None`` without records).

    Falls back to the local (``--jobs`` sugar) records when the backend
    has none of its own: a worker executes the same range functions the
    local executors do, so the local rate is the right order of
    magnitude — and span sizing only needs the order of magnitude.
    """
    rates = load_bench_rates(directory)
    pool = rates.get(backend_name) or rates.get(LOCAL_KEY)
    if not pool:
        return None
    return statistics.median(pool)


def suggest_chunk_size(
    backend_name: str,
    total: int,
    workers: int = 1,
    rate: Optional[float] = None,
    directory=None,
    target_seconds: Optional[float] = None,
    min_spans_per_worker: int = MIN_SPANS_PER_WORKER,
) -> int:
    """Span size (in trials) for ``total`` trials over ``workers`` workers.

    ``rate`` overrides record lookup (tests, callers with fresher
    numbers).  The result is the rate-derived span capped by the
    granularity floor — at least ``min_spans_per_worker`` spans per
    worker whenever the range is large enough — and is always in
    ``[1, total]``.
    """
    if total <= 0:
        return 1
    if rate is None:
        rate = bench_rate(backend_name, directory) or DEFAULT_RATE
    if target_seconds is None:
        target_seconds = TARGET_SPAN_SECONDS.get(
            backend_name, FALLBACK_TARGET_SECONDS
        )
    span = max(1, int(rate * target_seconds))
    granularity_cap = max(
        1, -(-total // (max(1, workers) * max(1, min_spans_per_worker)))
    )
    return max(1, min(span, granularity_cap, total))


def resolved_rate(holder: Any, backend_name: str, directory=None) -> float:
    """The rate for ``backend_name``, memoised on ``holder``.

    Span partitions are recomputed per dispatched block — hundreds of
    times in an adaptive sweep — and the records on disk do not change
    mid-run, so the glob + read + parse happens once per backend
    instance, not once per block.
    """
    cached = getattr(holder, "_autotune_rate", None)
    if cached is None:
        cached = bench_rate(backend_name, directory) or DEFAULT_RATE
        setattr(holder, "_autotune_rate", cached)
    return cached


def record_observed_rates(
    backend_name: str,
    rates: Mapping[str, float],
    directory=None,
    keep: int = OBSERVED_KEEP,
) -> Optional[Path]:
    """Append per-worker observed rates to :data:`OBSERVED_FILE`.

    The feedback half of autotuning: the distributed backend measures
    what each worker *actually* sustained (``{address: trials/second}``)
    and records it here on close, so the next ``chunk_size="auto"`` run
    starts from real numbers instead of the conservative default.  The
    file is a normal ``BENCH_*.json`` record set — :func:`load_bench_rates`
    picks it up with no special casing — written via tmp-file +
    ``os.replace`` so a concurrent reader never sees a torn file.
    Corrupt inputs are dropped by the same :func:`_usable_rate` filter
    applied on load; with nothing usable, nothing is written.
    """
    usable = {
        address: float(rate)
        for address, rate in rates.items()
        if _usable_rate(rate)
    }
    if not usable:
        return None
    root = bench_directory(directory)
    if not root.is_dir():
        return None
    path = root / OBSERVED_FILE
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        payload = None
    records: List[Dict[str, Any]] = []
    if isinstance(payload, dict) and isinstance(payload.get("records"), list):
        records = [
            record for record in payload["records"] if isinstance(record, dict)
        ]
    for address in sorted(usable):
        records.append(
            {
                "backend": backend_name,
                "trials_per_second": usable[address],
                "worker": address,
            }
        )
    records = records[-max(1, keep):]
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        temp.write_text(
            json.dumps({"records": records}, indent=2) + "\n",
            encoding="utf-8",
        )
        os.replace(temp, path)
    except OSError:  # pragma: no cover - read-only bench dir
        temp.unlink(missing_ok=True)
        return None
    return path

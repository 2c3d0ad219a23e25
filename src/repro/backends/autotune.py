"""Per-backend span-size autotuning from the rates a run measures itself.

``chunk_size="auto"`` turns a Monte-Carlo rate (trials/second) into a
*span size*: how many trials one dispatched unit of work should hold so
that it is

- **big enough** to amortise its fixed cost (a TCP round trip for the
  distributed backend, an encode/decode round trip for the pools), and
- **small enough** that spans stay granular: a retried span re-executes
  little work, and the pull-based rebalancing in
  :class:`~repro.backends.distributed.DistributedBackend` has at least
  :data:`MIN_SPANS_PER_WORKER` units per worker to shift between fast
  and slow (or dying) workers.

The rate is the one the distributed dispatcher measures per worker while
the run is in flight (``_Worker.observed_rate``); until a worker has
completed a span — and for the local pool, which measures nothing — the
conservative :data:`DEFAULT_RATE` applies.  Nothing is read from or
written to disk.

By the determinism contract a span size can never change results — only
wall time — so autotuning is a pure performance knob, excluded from
result-store cache keys like every other transport option.  Opt in with
``chunk_size="auto"`` on the ``distributed``/``process-pool`` backends —
the only two that take a span size, so the only two keys of
:data:`TARGET_SPAN_SECONDS` (CLI: ``--chunk-size auto``).
"""

from __future__ import annotations

from typing import Dict

#: Monte-Carlo rate (trials/second) assumed before anything is measured —
#: deliberately conservative: underestimating the rate yields smaller
#: spans, which costs a few round trips, never coarse-grained stalls.
DEFAULT_RATE = 20_000.0

#: Target wall seconds per span, for the two backends that autotune.  The
#: distributed backend tolerates a larger span (its per-span cost is a
#: network round trip); the local pool prefers finer ones (its per-span
#: cost is tiny).
TARGET_SPAN_SECONDS: Dict[str, float] = {
    "distributed": 0.5,
    "process-pool": 0.2,
}

#: Rebalancing granularity floor: a range is never carved into fewer
#: than this many spans per worker (when it has that many trials).
MIN_SPANS_PER_WORKER = 4


def suggest_chunk_size(
    backend_name: str,
    total: int,
    workers: int = 1,
    rate: float = DEFAULT_RATE,
) -> int:
    """Span size (in trials) for ``total`` trials over ``workers`` workers.

    The result is the rate-derived span (``rate`` times the backend's
    target span seconds) capped by the granularity floor — at least
    :data:`MIN_SPANS_PER_WORKER` spans per worker whenever the range is
    large enough — and is always in ``[1, total]``.
    """
    if total <= 0:
        return 1
    span = max(1, int(rate * TARGET_SPAN_SECONDS[backend_name]))
    granularity_cap = max(
        1, -(-total // (max(1, workers) * MIN_SPANS_PER_WORKER))
    )
    return max(1, min(span, granularity_cap, total))

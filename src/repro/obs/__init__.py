"""``repro.obs`` — the observability spine: tracing, metrics, sinks.

Three pieces, one contract:

- :mod:`repro.obs.trace` — an explicit-clock span tree
  (``sweep → point → engine → backend``) with typed point events
  (``requeue``, ``breaker_trip``, ``join``, ``ci_check``, ...) — wall
  seconds for a sweep, virtual seconds for a simulated overlay;
- :mod:`repro.obs.metrics` — a registry of named counters / gauges /
  histograms with mergeable snapshots (worker-side telemetry merges into
  the driver's registry over the ``stats`` wire op);
- :mod:`repro.obs.sink` — the schema-versioned JSONL trace file,
  written line-buffered to a ``.tmp`` and atomically published on close
  (and an in-memory ``ListSink``).

**The contract: observability is a pure side channel.**  Nothing in this
package may change Monte-Carlo results, result-store cache keys, or
sweep control flow.  Instrumented modules default to
:data:`~repro.obs.trace.NULL_TRACER`; a failing sink degrades to a
one-time warning, never an aborted sweep; and the CI ``trace-smoke`` job
asserts store bytes are identical with tracing on and off.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import (
    JsonlSink,
    ListSink,
    TraceSchemaError,
    iter_trace,
    read_trace,
)
from repro.obs.summary import format_trace_summary, summarize_trace
from repro.obs.trace import Tracer

__all__ = [
    "MetricsRegistry",
    "JsonlSink",
    "ListSink",
    "TraceSchemaError",
    "iter_trace",
    "read_trace",
    "format_trace_summary",
    "summarize_trace",
    "Tracer",
]

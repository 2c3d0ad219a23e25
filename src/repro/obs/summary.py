"""Render a recorded trace: phases, workers, timelines, CI progression.

``repro trace summary FILE.jsonl`` is a thin shell over
:func:`summarize_trace` + :func:`format_trace_summary`.  The summary is
computed entirely from the validated records (:func:`repro.obs.sink.read_trace`),
so it works on any conforming trace — including ones produced by older
runs or other tools — and never needs the live objects back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.sink import read_trace

#: The membership/fault events worth a timeline line, in display order.
TIMELINE_EVENTS = (
    "worker_failure",
    "requeue",
    "steal",
    "breaker_trip",
    "readmit",
    "join",
    "leave",
)


@dataclass
class PhaseStats:
    """Aggregate wall-clock of every span sharing one name."""

    name: str
    count: int = 0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


@dataclass
class WorkerStats:
    """Per-worker span accounting from ``backend.span`` records."""

    address: str
    spans: int = 0
    busy_seconds: float = 0.0


@dataclass
class TraceSummary:
    """Everything :func:`format_trace_summary` renders."""

    schema: int
    records: int
    wall_seconds: float
    phases: List[PhaseStats] = field(default_factory=list)
    workers: List[WorkerStats] = field(default_factory=list)
    timeline: List[Tuple[float, str, Dict[str, Any]]] = field(default_factory=list)
    #: point label → [(trials_done, max_half_width), ...] in time order.
    ci_progression: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)
    event_counts: Dict[str, int] = field(default_factory=dict)


def _point_label(
    span_id: Optional[int], spans_by_id: Mapping[int, Dict[str, Any]]
) -> str:
    """Walk the parent chain from a span to its enclosing point's label."""
    seen = set()
    while span_id is not None and span_id in spans_by_id and span_id not in seen:
        seen.add(span_id)
        span = spans_by_id[span_id]
        if span["name"] == "point":
            attrs = span.get("attrs", {})
            label = attrs.get("label")
            if label:
                return str(label)
            return f"point {attrs.get('index', '?')}"
        span_id = span.get("parent")
    return "(no point)"


def summarize_trace(path) -> TraceSummary:
    """Load, validate, and aggregate one trace file."""
    records = read_trace(path)
    meta = records[0] if records and records[0]["type"] == "meta" else {"schema": 0}
    spans = [record for record in records if record["type"] == "span"]
    events = [record for record in records if record["type"] == "event"]
    spans_by_id = {span["id"]: span for span in spans}

    phases: Dict[str, PhaseStats] = {}
    for span in spans:
        stats = phases.setdefault(span["name"], PhaseStats(span["name"]))
        stats.count += 1
        stats.total_seconds += span["end"] - span["start"]

    workers: Dict[str, WorkerStats] = {}
    for span in spans:
        if span["name"] != "backend.span":
            continue
        address = str(span.get("attrs", {}).get("worker", "?"))
        stats = workers.setdefault(address, WorkerStats(address))
        stats.spans += 1
        stats.busy_seconds += span["end"] - span["start"]

    timeline: List[Tuple[float, str, Dict[str, Any]]] = []
    event_counts: Dict[str, int] = {}
    ci_progression: Dict[str, List[Tuple[int, float]]] = {}
    for event in events:
        name = event["name"]
        event_counts[name] = event_counts.get(name, 0) + 1
        if name in TIMELINE_EVENTS:
            timeline.append((event["t"], name, event.get("attrs", {})))
        elif name == "ci_check":
            attrs = event.get("attrs", {})
            label = _point_label(event.get("span"), spans_by_id)
            done = attrs.get("trials_done")
            width = attrs.get("max_half_width")
            if isinstance(done, int) and isinstance(width, (int, float)):
                ci_progression.setdefault(label, []).append((done, float(width)))
    timeline.sort(key=lambda item: item[0])

    if spans:
        wall = max(span["end"] for span in spans) - min(
            span["start"] for span in spans
        )
    elif events:
        wall = max(event["t"] for event in events)
    else:
        wall = 0.0

    # Root-first, then by cumulative weight: the tree's natural read order.
    ordered_phases = sorted(
        phases.values(), key=lambda stats: -stats.total_seconds
    )
    ordered_workers = sorted(workers.values(), key=lambda stats: stats.address)
    return TraceSummary(
        schema=meta.get("schema", 0),
        records=len(records),
        wall_seconds=wall,
        phases=ordered_phases,
        workers=ordered_workers,
        timeline=timeline,
        ci_progression=ci_progression,
        event_counts=dict(sorted(event_counts.items())),
    )


def format_trace_summary(summary: TraceSummary, path: Any = "") -> str:
    """The plain-text rendering ``repro trace summary`` prints."""
    lines: List[str] = []
    title = f"trace summary{f': {path}' if path else ''}"
    lines.append(title)
    lines.append(
        f"  schema {summary.schema}, {summary.records} records, "
        f"wall {summary.wall_seconds:.3f}s"
    )
    lines.append("")
    lines.append("wall-clock per phase")
    lines.append(f"  {'phase':<18} {'count':>6} {'total':>10} {'mean':>10}")
    for stats in summary.phases:
        lines.append(
            f"  {stats.name:<18} {stats.count:>6} "
            f"{stats.total_seconds:>9.3f}s {stats.mean_seconds:>9.4f}s"
        )
    if not summary.phases:
        lines.append("  (no spans recorded)")

    lines.append("")
    lines.append("worker spans")
    if summary.workers:
        lines.append(f"  {'worker':<24} {'spans':>6} {'busy':>10} {'util':>6}")
        for stats in summary.workers:
            utilization = (
                stats.busy_seconds / summary.wall_seconds
                if summary.wall_seconds > 0
                else 0.0
            )
            lines.append(
                f"  {stats.address:<24} {stats.spans:>6} "
                f"{stats.busy_seconds:>9.3f}s {utilization:>5.0%}"
            )
    else:
        lines.append("  (none — local backend, or tracing ended before dispatch)")

    if summary.timeline:
        lines.append("")
        lines.append("fault/membership timeline")
        for t, name, attrs in summary.timeline:
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            )
            lines.append(f"  +{t:9.3f}s  {name:<14} {detail}".rstrip())

    if summary.ci_progression:
        lines.append("")
        lines.append("CI half-width progression")
        for label, steps in summary.ci_progression.items():
            rendered = ", ".join(
                f"{done}→{width:.4f}" for done, width in steps
            )
            lines.append(f"  {label}: {rendered}")

    if summary.event_counts:
        lines.append("")
        lines.append("event counts")
        rendered = " ".join(
            f"{name}={count}" for name, count in summary.event_counts.items()
        )
        lines.append(f"  {rendered}")
    return "\n".join(lines)

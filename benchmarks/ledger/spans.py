"""The benchmark's own spans: taken from outside, around calls into a layer.

A span is ``(id, name, start, end, parent, op)`` on ``time.perf_counter``.
Spans of one operation (one protocol run, one sweep pass, one service
round) share an ``op`` id.  They are kept in memory and written out once,
when the run ends.  A layer's *self time* is its span's duration minus the
part of that interval its child spans cover.

With the log disabled ``span()`` hands back one shared no-op context, so
the untraced run — the one every end-to-end number comes from — pays
nothing for the instrumentation points.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional


class _NoSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NO_SPAN = _NoSpan()


class SpanLog:
    """An in-memory span list with a parent stack per log (one thread)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._next_id = 1

    def span(self, name: str, op: Optional[str] = None):
        if not self.enabled:
            return _NO_SPAN
        return self._open(name, op)

    @contextmanager
    def _open(self, name: str, op: Optional[str]) -> Iterator[Dict[str, Any]]:
        record = {
            "id": self._next_id,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": op,
        }
        self._next_id += 1
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        op: Optional[str] = None,
    ) -> int:
        """Record a span timed elsewhere (another thread, the program's tracer)."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "op": op,
            }
        )
        return span_id

    def adopt_obs_records(
        self,
        records: Iterable[Dict[str, Any]],
        epoch: float,
        parent: Optional[int],
        op: Optional[str],
    ) -> None:
        """Fold a ``repro.obs`` tracer's span records under span ``parent``.

        The program's tracer stamps seconds since its own epoch; ``epoch``
        is the ``perf_counter`` reading taken when it was created, which
        puts both span systems on one clock.
        """
        mapped: Dict[int, int] = {}
        # obs emits a span when it closes (children first); parents have
        # lower ids, so id order puts every parent before its children.
        for record in sorted(
            (r for r in records if r.get("type") == "span"),
            key=lambda r: r["id"],
        ):
            mapped[record["id"]] = self.add(
                record["name"],
                epoch + record["start"],
                epoch + record["end"],
                parent=mapped.get(record["parent"], parent),
                op=op,
            )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def durations(spans: Iterable[Dict[str, Any]], name: str) -> List[float]:
    """Seconds of every closed span called ``name``."""
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id → duration minus the union of its children's intervals."""
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            low = max(child["start"], cursor)
            high = min(child["end"], span["end"])
            if high > low:
                covered += high - low
                cursor = high
        result[span["id"]] = (span["end"] - span["start"]) - covered
    return result

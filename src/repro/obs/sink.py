"""The trace sinks (JSONL on disk, a list in memory) and the event schema.

One trace = one JSON object per line.  The first line is a ``meta``
record carrying :data:`SCHEMA_VERSION`; every following line is a
``span`` or ``event`` record (see :mod:`repro.obs.trace`).  The sink
writes line-buffered to ``<path>.tmp`` and atomically renames to
``path`` on close — a torn run leaves a ``.tmp`` file behind, never a
half-written trace masquerading as a complete one (the same tmp +
``os.replace`` discipline as the result store and the pool's addresses
file).

Schema (version 1)::

    {"type": "meta",  "schema": 1, "created_unix": <float>}
    {"type": "span",  "name": str, "id": int>0, "parent": int|null,
     "start": float, "end": float>=start, "attrs": {...}}
    {"type": "event", "name": str, "t": float, "span": int|null,
     "attrs": {...}}

:func:`validate_record` checks one parsed line against that schema and
:func:`read_trace` loads (and validates) a whole file — the CI
``trace-smoke`` job and ``repro trace validate`` are built on them.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

#: Bumped on incompatible record-shape changes; the ``meta`` line carries it.
SCHEMA_VERSION = 1

_RECORD_TYPES = ("meta", "span", "event")


class TraceSchemaError(ValueError):
    """A trace line that does not conform to the event schema."""


class TraceTruncationWarning(UserWarning):
    """The final trace line is torn — a writer died mid-write.

    Distinct from :class:`TraceSchemaError` on purpose: a torn tail is
    the *expected* artifact of a crashed driver (the sink is
    line-buffered, so only the very last line can be partial), while an
    undecodable line anywhere else means the file is not a trace at all.
    """


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise TraceSchemaError(message)


def validate_record(record: Any) -> Dict[str, Any]:
    """Check one parsed trace line against the schema; returns it.

    Raises :class:`TraceSchemaError` with a field-level message on any
    violation — the CI job surfaces these verbatim.
    """
    _require(isinstance(record, dict), f"line must be a JSON object, got {type(record).__name__}")
    kind = record.get("type")
    _require(kind in _RECORD_TYPES, f"type must be one of {_RECORD_TYPES}, got {kind!r}")
    if kind == "meta":
        schema = record.get("schema")
        _require(
            isinstance(schema, int) and not isinstance(schema, bool) and schema >= 1,
            f"meta.schema must be a positive int, got {schema!r}",
        )
        return record
    name = record.get("name")
    _require(isinstance(name, str) and bool(name), f"{kind}.name must be a non-empty str, got {name!r}")
    attrs = record.get("attrs", {})
    _require(isinstance(attrs, dict), f"{kind}.attrs must be an object, got {type(attrs).__name__}")
    if kind == "span":
        span_id = record.get("id")
        _require(
            isinstance(span_id, int) and not isinstance(span_id, bool) and span_id > 0,
            f"span.id must be a positive int, got {span_id!r}",
        )
        parent = record.get("parent")
        _require(
            parent is None
            or (isinstance(parent, int) and not isinstance(parent, bool) and parent > 0),
            f"span.parent must be null or a positive int, got {parent!r}",
        )
        start, end = record.get("start"), record.get("end")
        for label, value in (("start", start), ("end", end)):
            _require(
                isinstance(value, (int, float)) and not isinstance(value, bool),
                f"span.{label} must be a number, got {value!r}",
            )
        _require(end >= start, f"span.end ({end}) precedes span.start ({start})")
        return record
    # event
    t = record.get("t")
    _require(
        isinstance(t, (int, float)) and not isinstance(t, bool),
        f"event.t must be a number, got {t!r}",
    )
    span = record.get("span")
    _require(
        span is None
        or (isinstance(span, int) and not isinstance(span, bool) and span > 0),
        f"event.span must be null or a positive int, got {span!r}",
    )
    return record


def iter_trace(
    path,
    on_truncated: Optional[Callable[[int, str], None]] = None,
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(line_number, validated_record)`` for every trace line.

    Raises :class:`TraceSchemaError` (with the line number in the
    message) on the first invalid line, including a first line that is
    not a ``meta`` record or a meta schema newer than this reader.

    An undecodable, newline-less *final* line is different: that is the
    signature of a writer killed mid-write (the sink is line-buffered,
    so every completed line carries its newline and earlier lines are
    always whole).  Every complete record is still yielded; the torn
    tail is reported through ``on_truncated(line_number, line)`` when
    given, or a :class:`TraceTruncationWarning` otherwise — never an
    exception, so a crashed run's trace stays readable for post-mortems.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_line_number = len(lines)
    torn_tail = bool(lines) and not lines[-1].endswith("\n")
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError as error:
            if torn_tail and line_number == last_line_number:
                if on_truncated is not None:
                    on_truncated(line_number, line)
                else:
                    warnings.warn(
                        TraceTruncationWarning(
                            f"{path}:{line_number}: truncated final line "
                            f"(writer died mid-write); preceding records "
                            f"are intact"
                        ),
                        stacklevel=2,
                    )
                return
            raise TraceSchemaError(
                f"{path}:{line_number}: undecodable JSON: {error}"
            ) from error
        try:
            record = validate_record(parsed)
        except TraceSchemaError as error:
            raise TraceSchemaError(
                f"{path}:{line_number}: {error}"
            ) from None
        if line_number == 1:
            if record.get("type") != "meta":
                raise TraceSchemaError(
                    f"{path}:1: first line must be the meta record"
                )
            if record["schema"] > SCHEMA_VERSION:
                raise TraceSchemaError(
                    f"{path}:1: trace schema {record['schema']} is newer "
                    f"than this reader ({SCHEMA_VERSION})"
                )
        yield line_number, record


def read_trace(
    path,
    on_truncated: Optional[Callable[[int, str], None]] = None,
) -> List[Dict[str, Any]]:
    """Load and validate a whole trace file (meta line included).

    A torn final line is tolerated exactly as in :func:`iter_trace` —
    complete records are returned, the tail is warned about (or handed
    to ``on_truncated``).
    """
    return [record for _, record in iter_trace(path, on_truncated)]


class ListSink:
    """In-memory sink: ``records`` holds every emitted record, in order."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.closed = False

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class JsonlSink:
    """Line-buffered JSONL writer finalised by tmp + ``os.replace``.

    The meta line is written on construction, so even an empty run
    produces a valid (if span-free) trace.  ``emit`` raising (disk full,
    permissions yanked) is the *caller's* cue to degrade —
    :class:`~repro.obs.trace.Tracer` turns it into a one-time warning.
    """

    def __init__(self, path) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._temp = self.path.with_name(self.path.name + ".tmp")
        # buffering=1: line-buffered, so a crashed run's .tmp still holds
        # every completed line for post-mortem reading.
        self._handle: Optional[Any] = open(
            self._temp, "w", encoding="utf-8", buffering=1
        )
        self.records_written = 0
        self.emit(
            {
                "type": "meta",
                "schema": SCHEMA_VERSION,
                "created_unix": time.time(),
            }
        )

    def emit(self, record: Mapping[str, Any]) -> None:
        if self._handle is None:
            raise ValueError(f"trace sink {self.path} is closed")
        self._handle.write(
            json.dumps(record, separators=(",", ":"), sort_keys=True, default=str)
            + "\n"
        )
        self.records_written += 1

    def close(self) -> None:
        """Flush, close, and atomically publish the trace file."""
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        handle.close()
        os.replace(self._temp, self.path)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

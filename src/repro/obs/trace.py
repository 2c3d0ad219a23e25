"""Explicit-clock tracing: a span tree plus typed point events.

A :class:`Tracer` produces two record shapes, emitted to a sink (usually
a :class:`~repro.obs.sink.JsonlSink`):

- **spans** — named, timed intervals with ids and parents, forming the
  tree ``sweep → point → engine → backend.call → backend.dispatch →
  backend.span``.  A span record is emitted when the span *closes* (one
  line per completed interval), carrying ``start``/``end`` seconds
  relative to the tracer's epoch.
- **events** — instantaneous, typed points (``requeue``, ``steal``,
  ``breaker_trip``, ``readmit``, ``join``, ``leave``, ``ci_check``,
  ...) anchored to the span they occurred under, emitted
  immediately.

**Explicit clock.**  The tracer never calls ``time`` directly except
through its ``clock`` callable (default ``time.perf_counter``).  A sweep
traces in wall seconds; ``build_network(trace=sink)`` passes the event
loop's virtual clock, so the DHT and the protocol emit the same records
in simulated seconds (events ``rpc``, ``network``, ``churn``, ``holder``,
``attack``, each with a ``message`` attribute) — byte-stable, like any
trace on a deterministic clock.

**Parents.**  Within one thread, ``with tracer.span(...)`` maintains a
thread-local stack, so nesting is automatic.  Work that crosses threads
(the distributed backend's driver threads) passes ``parent=`` explicitly.

**The side-channel contract.**  Tracing must never change results or
abort work: every sink write is wrapped, and the first failure warns
once and disables the sink for the rest of the run — the sweep finishes,
the trace does not.  :data:`NULL_TRACER` is the no-op every instrumented
module defaults to; its ``enabled`` flag lets hot paths skip building
attribute payloads entirely.
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
from typing import Any, Callable, Dict, Optional


class Span:
    """One open (then closed) interval in the trace tree."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs", "start", "end")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        self.start = start
        self.end: Optional[float] = None

    def set_attr(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute before the span closes."""
        self.attrs[key] = value

    def event(self, name: str, **attrs: Any) -> None:
        """Emit a point event anchored to this span."""
        self._tracer.event(name, span=self, **attrs)


class _NullSpan:
    """The do-nothing span :data:`NULL_TRACER` hands out."""

    __slots__ = ()
    name = ""
    span_id = 0
    parent_id = None
    start = 0.0
    end = 0.0

    @property
    def attrs(self) -> Dict[str, Any]:
        return {}

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        self._tracer._close_span(self._span)


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CONTEXT = _NullContext()


class Tracer:
    """Builds the span tree and streams records to a sink.

    Parameters
    ----------
    sink:
        Anything with ``emit(record: dict)`` and ``close()`` —
        :class:`~repro.obs.sink.JsonlSink` on disk,
        :class:`~repro.obs.sink.ListSink` in memory.  ``None`` keeps
        records flowing to nowhere (the tracer still tracks parents,
        which keeps instrumentation code branch-free).
    clock:
        The time source for every ``start``/``end``/``t`` field; must be
        monotonic for durations to mean anything.  Defaults to
        ``time.perf_counter``.
    """

    enabled = True

    def __init__(
        self,
        sink: Optional[Any] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self._sink = sink
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._emit_lock = threading.Lock()
        self._sink_broken = False

    # -- time ----------------------------------------------------------------

    def now(self) -> float:
        """Seconds since this tracer's epoch, on its own clock."""
        return self._clock() - self._epoch

    # -- the thread-local parent stack --------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - misnested exit
            stack.remove(span)

    def current_span(self) -> Optional[Span]:
        """This thread's innermost open span (``None`` at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- spans and events ----------------------------------------------------

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attrs: Any,
    ) -> _SpanContext:
        """Open a span as a context manager yielding the :class:`Span`.

        ``parent`` overrides the thread-local parent — how driver
        threads attach their spans under the dispatch that spawned them.
        """
        if parent is None:
            parent = self.current_span()
        parent_id = None if parent is None else parent.span_id
        span = Span(
            self, name, next(self._ids), parent_id, self.now(), dict(attrs)
        )
        return _SpanContext(self, span)

    def event(
        self,
        name: str,
        span: Optional[Span] = None,
        **attrs: Any,
    ) -> None:
        """Emit one instantaneous typed event."""
        if span is None:
            span = self.current_span()
        self._emit(
            {
                "type": "event",
                "name": name,
                "t": self.now(),
                "span": None if span is None else span.span_id,
                "attrs": attrs,
            }
        )

    def _close_span(self, span: Span) -> None:
        span.end = self.now()
        self._emit(
            {
                "type": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "start": span.start,
                "end": span.end,
                "attrs": span.attrs,
            }
        )

    # -- emission (the degrade-to-warning path) ------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        if self._sink is None or self._sink_broken:
            return
        with self._emit_lock:
            if self._sink_broken:
                return
            try:
                self._sink.emit(record)
            except Exception as error:  # noqa: BLE001 - the side-channel contract
                self._sink_broken = True
                warnings.warn(
                    f"trace sink failed ({type(error).__name__}: {error}); "
                    f"tracing disabled for the rest of the run — results "
                    f"are unaffected",
                    RuntimeWarning,
                    stacklevel=3,
                )

    @property
    def sink_broken(self) -> bool:
        """Whether a sink failure has disabled emission for this run."""
        return self._sink_broken

    def close(self) -> None:
        """Close the sink (finalising its file); degrade, never raise."""
        if self._sink is None:
            return
        try:
            self._sink.close()
        except Exception as error:  # noqa: BLE001 - same contract as emit
            if not self._sink_broken:
                self._sink_broken = True
                warnings.warn(
                    f"trace sink failed to close ({type(error).__name__}: "
                    f"{error}); the trace file may be incomplete — results "
                    f"are unaffected",
                    RuntimeWarning,
                    stacklevel=2,
                )
        finally:
            self._sink = None

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullTracer:
    """The no-op tracer instrumented modules default to.

    ``enabled`` is ``False`` so hot paths can skip even *building* event
    payloads: ``if tracer.enabled: tracer.event(...)``.
    """

    enabled = False

    def now(self) -> float:
        return 0.0

    def span(self, name: str, parent: Optional[Any] = None, **attrs: Any):
        return _NULL_CONTEXT

    def event(self, name: str, span: Optional[Any] = None, **attrs: Any) -> None:
        pass

    def current_span(self) -> None:
        return None

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_TRACER = NullTracer()


def coerce_tracer(tracer: Optional[Any]) -> Any:
    """``None`` → :data:`NULL_TRACER`; anything else passes through."""
    return NULL_TRACER if tracer is None else tracer

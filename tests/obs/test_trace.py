"""The tracer: span trees, explicit clocks, and the degrade contract."""

import threading

import pytest

from repro.obs.sink import ListSink
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Tracer,
    coerce_tracer,
)


class FakeClock:
    """A deterministic clock the tests advance by hand."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


def spans(sink):
    return [r for r in sink.records if r["type"] == "span"]


def events(sink):
    return [r for r in sink.records if r["type"] == "event"]


class TestSpanTree:
    def test_nesting_builds_parent_chain(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("sweep") as sweep:
            with tracer.span("point") as point:
                with tracer.span("engine") as engine:
                    pass
        by_name = {s["name"]: s for s in spans(sink)}
        assert by_name["engine"]["parent"] == point.span_id
        assert by_name["point"]["parent"] == sweep.span_id
        assert by_name["sweep"]["parent"] is None
        assert engine.parent_id == point.span_id

    def test_spans_emitted_on_close_innermost_first(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s["name"] for s in spans(sink)] == ["inner", "outer"]

    def test_explicit_clock_gives_deterministic_times(self):
        sink = ListSink()
        clock = FakeClock()
        tracer = Tracer(sink, clock=clock)
        with tracer.span("work"):
            clock.advance(2.5)
        (span,) = spans(sink)
        assert span["start"] == 0.0
        assert span["end"] == 2.5

    def test_attrs_and_set_attr(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("point", index=3) as span:
            span.set_attr("cached", True)
        (record,) = spans(sink)
        assert record["attrs"] == {"index": 3, "cached": True}

    def test_exception_marks_span_and_propagates(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (record,) = spans(sink)
        assert record["attrs"]["error"] == "RuntimeError"

    def test_explicit_parent_crosses_threads(self):
        sink = ListSink()
        tracer = Tracer(sink)
        child_ids = []

        with tracer.span("dispatch") as dispatch:
            def work():
                # A fresh thread has no thread-local stack: without the
                # explicit parent this span would be a root.
                with tracer.span("backend.span", parent=dispatch) as child:
                    child_ids.append(child.span_id)

            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        by_name = {s["name"]: s for s in spans(sink)}
        assert by_name["backend.span"]["parent"] == dispatch.span_id
        assert by_name["dispatch"]["parent"] is None

    def test_event_anchors_to_current_span(self):
        sink = ListSink()
        tracer = Tracer(sink)
        with tracer.span("point") as span:
            tracer.event("requeue", low=0, high=10)
            span.event("ci_check", trials_done=5)
        tracer.event("loose")
        requeue, ci_check, loose = events(sink)
        assert requeue["span"] == span.span_id
        assert requeue["attrs"] == {"low": 0, "high": 10}
        assert ci_check["span"] == span.span_id
        assert loose["span"] is None


class TestDegradeContract:
    def test_broken_sink_warns_once_and_work_continues(self):
        class ExplodingSink(ListSink):
            def emit(self, record):
                raise OSError("disk full")

        tracer = Tracer(ExplodingSink())
        with pytest.warns(RuntimeWarning, match="trace sink failed"):
            tracer.event("first")
        # No second warning, no exception: the sink is written off.
        with tracer.span("still-works"):
            tracer.event("second")
        assert tracer.sink_broken

    def test_broken_close_warns_not_raises(self):
        class BadCloseSink(ListSink):
            def close(self):
                raise OSError("gone")

        tracer = Tracer(BadCloseSink())
        with pytest.warns(RuntimeWarning, match="failed to close"):
            tracer.close()
        assert tracer.sink_broken

    def test_close_is_idempotent(self):
        sink = ListSink()
        tracer = Tracer(sink)
        tracer.close()
        tracer.close()
        assert sink.closed

    def test_sinkless_tracer_still_tracks_parents(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                assert b.parent_id == a.span_id


class TestNullTracer:
    def test_null_tracer_is_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", index=1) as span:
            assert span is NULL_SPAN
            span.set_attr("x", 1)
            span.event("noop")
        NULL_TRACER.event("noop")
        NULL_TRACER.close()
        assert NULL_TRACER.current_span() is None

    def test_coerce(self):
        assert coerce_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert coerce_tracer(tracer) is tracer
        assert isinstance(coerce_tracer(None), NullTracer)

    def test_real_tracer_is_enabled(self):
        assert Tracer().enabled is True

"""The degradation ladder: distributed → local fallback on fleet
collapse or a watchdog deadline, and the clean-abort path when fallback
is not opted into."""

import threading
import time

import pytest

from repro.backends.distributed import NoWorkersLeft, PointDeadlineExceeded
from repro.experiments.executors import SerialExecutor
from repro.obs import JsonlSink, Tracer, read_trace
from repro.scenarios.orchestrator import SweepOrchestrator
from repro.scenarios.runners import _RUNNERS, register_kind
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.store import ResultStore


@pytest.fixture
def counting_kind():
    calls = []

    @register_kind("degradation-test-kind")
    def run_point(params, trials, seed, engine, batch_size=None):
        calls.append(dict(params))
        estimate = engine.estimate(
            lambda rng: rng.bernoulli(params["p"]),
            trials=trials,
            seed=seed,
            label=f"degr-{params['p']}",
        )
        return {
            "p": params["p"],
            "value": estimate.estimate,
            "trials_run": estimate.trials,
        }

    try:
        yield calls
    finally:
        _RUNNERS.pop("degradation-test-kind", None)


def degradation_spec(points=3, trials=40, **overrides) -> ScenarioSpec:
    values = tuple(round(0.1 + 0.2 * i, 2) for i in range(points))
    base = dict(
        name="degradation-sweep",
        kind="degradation-test-kind",
        axes=(Axis("p", values),),
        trials=trials,
        seed=11,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class CollapsingExecutor(SerialExecutor):
    """Serves spans correctly until its scripted point, then the whole
    "fleet" is gone — every later span raises ``NoWorkersLeft``.

    Stands in for a distributed backend whose last worker died; exposes
    the same ``stats`` dict so partial backend stats can be asserted.
    """

    def __init__(self, collapse_after_spans: int) -> None:
        self.collapse_after_spans = collapse_after_spans
        self.spans_served = 0
        self.stats = {"spans_total": 0}

    def _maybe_collapse(self):
        if self.spans_served >= self.collapse_after_spans:
            raise NoWorkersLeft("every worker is gone (scripted)")
        self.spans_served += 1
        self.stats["spans_total"] += 1

    def run(self, task, start, stop):
        self._maybe_collapse()
        return super().run(task, start, stop)


class TestFallbackLadder:
    def test_collapse_with_fallback_completes_locally(
        self, counting_kind, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        trace_path = tmp_path / "trace.jsonl"
        spec = degradation_spec()
        # One span per point (batch_size defaults to whole-point): the
        # executor survives point 0 and collapses on point 1.
        orchestrator = SweepOrchestrator(
            store=store,
            backend=CollapsingExecutor(collapse_after_spans=1),
            fallback="local",
            tracer=Tracer(JsonlSink(trace_path)),
        )
        report = orchestrator.run(spec)
        orchestrator.tracer.close()
        assert (report.computed, report.cached) == (3, 0)
        assert report.backend_stats["degraded"] == 1
        # The collapsed executor's partial counters survive in the merge.
        assert report.backend_stats["spans_total"] == 1
        events = [
            record
            for record in read_trace(trace_path)
            if record["type"] == "event" and record["name"] == "degraded"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["reason"] == "no_workers_left"
        assert events[0]["attrs"]["point"] == 1
        assert events[0]["attrs"]["to_backend"] == "local"

    def test_fallback_results_match_a_healthy_run(
        self, counting_kind, tmp_path
    ):
        spec = degradation_spec()
        healthy_store = ResultStore(tmp_path / "healthy")
        SweepOrchestrator(store=healthy_store).run(spec)
        degraded_store = ResultStore(tmp_path / "degraded")
        SweepOrchestrator(
            store=degraded_store,
            backend=CollapsingExecutor(collapse_after_spans=1),
            fallback="local",
        ).run(spec)
        keys = healthy_store.keys(spec.name)
        assert degraded_store.keys(spec.name) == keys
        for key in keys:
            assert degraded_store.path_for(spec.name, key).read_bytes() == (
                healthy_store.path_for(spec.name, key).read_bytes()
            )

    def test_collapse_without_fallback_aborts_with_partial_stats(
        self, counting_kind, tmp_path
    ):
        store = ResultStore(tmp_path)
        spec = degradation_spec()
        orchestrator = SweepOrchestrator(
            store=store, backend=CollapsingExecutor(collapse_after_spans=1)
        )
        with pytest.raises(NoWorkersLeft):
            orchestrator.run(spec)
        # The abort preserved what the backend had counted so far.
        assert orchestrator.last_backend_stats["spans_total"] == 1
        # Point 0 committed before the collapse; the rest did not.
        assert store.count(spec.name) == 1

    def test_fallback_rejects_unknown_policies(self):
        with pytest.raises(ValueError, match="fallback"):
            SweepOrchestrator(fallback="cloud")
        with pytest.raises(ValueError, match="point_deadline"):
            SweepOrchestrator(point_deadline=0)

    def test_second_collapse_on_the_fallback_rung_propagates(
        self, counting_kind, tmp_path
    ):
        """The ladder is one-way and one rung: a failure on the local
        rung is not retried (there is nothing further to fall back to).
        The scripted executor here collapses, hands over to a local
        fallback, and the sweep completes — but a PointDeadlineExceeded
        raised while already on the fallback must propagate."""
        spec = degradation_spec(points=2)
        orchestrator = SweepOrchestrator(
            backend=CollapsingExecutor(collapse_after_spans=0),
            fallback="local",
        )
        report = orchestrator.run(spec)
        assert report.computed == 2
        assert report.backend_stats["degraded"] == 1


class CancellableExecutor(SerialExecutor):
    """A local executor wearing the distributed backend's cancellation
    surface: spans block until ``cancel_active`` aborts them."""

    def __init__(self, hang_on_span: int) -> None:
        self.hang_on_span = hang_on_span
        self.spans_served = 0
        self._cancelled = threading.Event()
        self._error = None

    def cancel_active(self, error) -> bool:
        self._error = error
        self._cancelled.set()
        return True

    def run(self, task, start, stop):
        index = self.spans_served
        self.spans_served += 1
        if index == self.hang_on_span and not self._cancelled.is_set():
            assert self._cancelled.wait(timeout=30.0), "watchdog never fired"
            raise self._error
        return super().run(task, start, stop)


class TestWatchdog:
    def test_deadline_fires_and_fallback_finishes_the_point(
        self, counting_kind, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        spec = degradation_spec(points=2)
        orchestrator = SweepOrchestrator(
            backend=CancellableExecutor(hang_on_span=1),
            fallback="local",
            point_deadline=0.2,
            tracer=Tracer(JsonlSink(trace_path)),
        )
        began = time.perf_counter()
        report = orchestrator.run(spec)
        orchestrator.tracer.close()
        elapsed = time.perf_counter() - began
        assert report.computed == 2
        assert report.backend_stats["degraded"] == 1
        assert report.backend_stats["watchdog_fired"] == 1
        assert elapsed < 10.0  # the hang was cut short by the deadline
        names = [
            record["name"]
            for record in read_trace(trace_path)
            if record["type"] == "event"
        ]
        assert "watchdog" in names
        assert "degraded" in names
        degraded = [
            record["attrs"]
            for record in read_trace(trace_path)
            if record["type"] == "event" and record["name"] == "degraded"
        ]
        assert degraded[0]["reason"] == "point_deadline"

    def test_deadline_without_fallback_propagates(self, counting_kind):
        spec = degradation_spec(points=2)
        orchestrator = SweepOrchestrator(
            backend=CancellableExecutor(hang_on_span=1),
            point_deadline=0.2,
        )
        with pytest.raises(PointDeadlineExceeded):
            orchestrator.run(spec)

    def test_deadline_is_inert_for_plain_local_executors(
        self, counting_kind
    ):
        # SerialExecutor has no cancel_active: the watchdog must no-op,
        # not crash, and the sweep completes normally.
        spec = degradation_spec(points=2)
        report = SweepOrchestrator(
            backend=SerialExecutor(), point_deadline=0.05
        ).run(spec)
        assert report.computed == 2

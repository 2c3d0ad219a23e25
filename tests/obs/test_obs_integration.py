"""Observability end to end: the side-channel contract, span trees,
worker telemetry over the wire, and fault events matching the stats.

The hard contract under test: with tracing **on, off, or failing**, a
sweep's results and result-store bytes are identical — observability can
describe a run but never shape one.
"""

import json
import warnings

import pytest

from repro import api
from repro.backends.distributed import DistributedBackend
from repro.backends.faults import FaultSpec
from repro.backends.worker import WorkerServer
from repro.backends.wire import fetch_worker_stats
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import SerialExecutor
from repro.obs import JsonlSink, Tracer, read_trace
from repro.scenarios import ResultStore, get_scenario
from repro.scenarios.orchestrator import SweepOrchestrator
from trial_units import bernoulli_trial


def store_bytes(root):
    """Every record file's raw bytes, keyed by relative path."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


def spans_by_name(records):
    by_name = {}
    for record in records:
        if record["type"] == "span":
            by_name.setdefault(record["name"], []).append(record)
    return by_name


class TestSideChannelContract:
    def test_store_bytes_identical_traced_and_untraced(self, tmp_path):
        plain, traced = tmp_path / "plain", tmp_path / "traced"
        api.run_sweep("smoke", store=plain, trials=40)
        api.run_sweep(
            "smoke", store=traced, trials=40, trace=tmp_path / "t.jsonl"
        )
        assert store_bytes(plain) == store_bytes(traced)
        assert (tmp_path / "t.jsonl").exists()

    def test_store_bytes_identical_with_broken_sink(self, tmp_path):
        class ExplodingSink:
            def emit(self, record):
                raise OSError("disk full")

            def close(self):
                pass

        plain, broken = tmp_path / "plain", tmp_path / "broken"
        api.run_sweep("smoke", store=plain, trials=40)
        with pytest.warns(RuntimeWarning, match="trace sink failed"):
            api.run_sweep(
                "smoke", store=broken, trials=40,
                trace=Tracer(ExplodingSink()),
            )
        assert store_bytes(plain) == store_bytes(broken)

    def test_untraced_sweep_emits_no_warnings(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = api.run_sweep("smoke", store=tmp_path / "s", trials=40)
        assert report.computed == 2


class TestSpanTree:
    def test_smoke_sweep_produces_the_full_tree(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        api.run_sweep(
            "smoke", store=tmp_path / "s", trials=40, trace=trace_path
        )
        records = read_trace(trace_path)  # validates every line
        by_name = spans_by_name(records)
        assert len(by_name["sweep"]) == 1
        assert len(by_name["point"]) == 2
        assert len(by_name["engine"]) == 2
        assert len(by_name["backend.call"]) >= 2
        # The tree actually chains: sweep → point → engine → backend.call.
        sweep = by_name["sweep"][0]
        ids = {record["id"]: record for name in by_name
               for record in by_name[name]}
        for point in by_name["point"]:
            assert point["parent"] == sweep["id"]
        for engine in by_name["engine"]:
            assert ids[engine["parent"]]["name"] == "point"
        for call in by_name["backend.call"]:
            assert ids[call["parent"]]["name"] == "engine"

    def test_cached_points_carry_cache_hit_events(self, tmp_path):
        store = tmp_path / "s"
        api.run_sweep("smoke", store=store, trials=40)
        trace_path = tmp_path / "warm.jsonl"
        report = api.run_sweep(
            "smoke", store=store, trials=40, trace=trace_path
        )
        assert report.cached == 2 and report.computed == 0
        records = read_trace(trace_path)
        hits = [r for r in records
                if r["type"] == "event" and r["name"] == "cache_hit"]
        assert len(hits) == 2
        by_name = spans_by_name(records)
        assert all(p["attrs"].get("cached") for p in by_name["point"])
        assert "engine" not in by_name  # nothing was computed

    def test_ci_checks_record_half_width_progression(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        api.run_sweep(
            "smoke", store=tmp_path / "s", trials=40, trace=trace_path
        )
        checks = [r for r in read_trace(trace_path)
                  if r["type"] == "event" and r["name"] == "ci_check"]
        assert checks
        for check in checks:
            assert check["attrs"]["trials_done"] > 0
            assert check["attrs"]["max_half_width"] > 0


class TestWorkerTelemetry:
    def test_stats_op_returns_a_mergeable_snapshot(self):
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend([f"{host}:{port}"]) as backend:
                engine = TrialEngine(backend=backend)
                engine.run(bernoulli_trial, trials=40, seed=1)
                snapshot = fetch_worker_stats(host, port)
        assert snapshot is not None
        assert snapshot["counters"]["ops.run"] >= 1
        assert snapshot["counters"]["ops.hello"] >= 1
        assert snapshot["counters"]["units.counts"] == 40
        service = snapshot["histograms"]["service_seconds.counts"]
        assert service["count"] >= 1
        assert service["sum"] >= 0

    def test_fetch_worker_stats_none_on_dead_port(self):
        with WorkerServer() as server:
            host, port = server.address
        # The server is stopped now: same address, nobody home.
        assert fetch_worker_stats(host, port, timeout=0.5) is None

    def test_close_merges_worker_registries_into_the_driver(self):
        with WorkerServer() as server:
            host, port = server.address
            address = f"{host}:{port}"
            backend = DistributedBackend([address])
            with backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=40, seed=1
                )
        merged = backend.metrics.counter_values(f"worker.{address}.")
        assert merged[f"worker.{address}.ops.run"] >= 1

    def test_stats_view_still_reads_like_the_old_dict(self):
        with WorkerServer() as server:
            host, port = server.address
            with DistributedBackend([f"{host}:{port}"]) as backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=40, seed=1
                )
                stats = backend.stats
        assert isinstance(stats, dict)
        assert stats["spans_completed"] >= 1
        assert stats["spans_requeued"] == 0
        # Every historical key is always present, even at zero.
        for key in ("worker_failures", "workers_broken", "workers_joined",
                    "workers_left", "heartbeat_probes"):
            assert key in stats


class TestFaultEventsMatchStats:
    def test_kill_produces_matching_events_and_counters(self, tmp_path):
        trace_path = tmp_path / "chaos.jsonl"
        tracer = Tracer(JsonlSink(trace_path))
        slow = FaultSpec("slow", after_spans=0, delay=0.02)
        servers = [
            WorkerServer(fault=FaultSpec("kill", after_spans=1)),
            WorkerServer(fault=slow),
            WorkerServer(fault=slow),
        ]
        for server in servers:
            server.serve_background()
        try:
            addresses = [
                f"{server.address[0]}:{server.address[1]}"
                for server in servers
            ]
            backend = DistributedBackend(addresses, chunk_size=5)
            backend.tracer = tracer
            with backend:
                with tracer.span("sweep"):
                    TrialEngine(backend=backend).run(
                        bernoulli_trial, trials=60, seed=7
                    )
                stats = backend.stats
        finally:
            for server in servers:
                server.stop()
            tracer.close()
        records = read_trace(trace_path)
        events = {}
        for record in records:
            if record["type"] == "event":
                events.setdefault(record["name"], []).append(record)
        # The trace's fault story agrees with the counters, one for one.
        assert len(events.get("worker_failure", [])) == \
            stats["worker_failures"] >= 1
        assert len(events.get("requeue", [])) == \
            stats["spans_requeued"] >= 1
        failed = events["worker_failure"][0]["attrs"]
        assert failed["worker"] in addresses
        assert "error" in failed
        # Dispatch detail landed under the sweep: every backend.span
        # names the worker that ran it.
        by_name = spans_by_name(records)
        for span in by_name["backend.span"]:
            assert span["attrs"]["worker"] in addresses

    def test_breaker_trip_event_on_repeated_failure(self, tmp_path):
        trace_path = tmp_path / "breaker.jsonl"
        tracer = Tracer(JsonlSink(trace_path))
        servers = [
            WorkerServer(fault=FaultSpec("kill", after_spans=0)),
            WorkerServer(fault=FaultSpec("slow", after_spans=0, delay=0.02)),
        ]
        for server in servers:
            server.serve_background()
        try:
            addresses = [
                f"{server.address[0]}:{server.address[1]}"
                for server in servers
            ]
            backend = DistributedBackend(addresses, chunk_size=5)
            backend.tracer = tracer
            with backend:
                TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=60, seed=3
                )
                stats = backend.stats
        finally:
            for server in servers:
                server.stop()
            tracer.close()
        assert stats["workers_broken"] == 1
        trips = [r for r in read_trace(trace_path)
                 if r["type"] == "event" and r["name"] == "breaker_trip"]
        assert len(trips) == 1
        assert trips[0]["attrs"]["worker"] == addresses[0]


class TestPartialStatsSurvival:
    def test_backend_stats_snapshot_survives_a_failing_finish(self, tmp_path):
        """Satellite: a backend dying in finish() still yields stats."""

        class DoomedBackend(SerialExecutor):
            """Serial execution, canned stats, a finish() that dies."""

            stats = {"spans_completed": 3, "worker_failures": 1}

            def finish(self):
                raise ConnectionError("fleet gone mid-finish")

        trace_path = tmp_path / "t.jsonl"
        tracer = Tracer(JsonlSink(trace_path))
        orchestrator = SweepOrchestrator(
            backend=DoomedBackend(), tracer=tracer
        )
        with pytest.raises(ConnectionError, match="mid-finish"):
            orchestrator.run(get_scenario("smoke"), trials=20)
        tracer.close()
        # No SweepReport exists, but the snapshot (and its trace event)
        # survived the wreck.
        assert orchestrator.last_backend_stats == {
            "spans_completed": 3,
            "worker_failures": 1,
        }
        stats_events = [
            record
            for record in read_trace(trace_path)
            if record["type"] == "event"
            and record["name"] == "backend_stats"
        ]
        assert len(stats_events) == 1
        assert stats_events[0]["attrs"]["spans_completed"] == 3

    def test_report_snapshot_still_present_on_success(self, tmp_path):
        with WorkerServer() as server:
            host, port = server.address
            report = api.run_sweep(
                "smoke",
                store=tmp_path / "s",
                trials=40,
                backend=DistributedBackend([f"{host}:{port}"]),
            )
        assert report.backend_stats is not None
        assert report.backend_stats["spans_completed"] >= 1


class TestTraceFileShape:
    def test_every_line_is_schema_valid_json(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        api.run_sweep(
            "smoke", store=tmp_path / "s", trials=40, trace=trace_path
        )
        lines = trace_path.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        assert first == {
            "created_unix": first["created_unix"],
            "schema": 1,
            "type": "meta",
        }
        # read_trace re-validates every record (raises on violation).
        assert len(read_trace(trace_path)) == len(lines)

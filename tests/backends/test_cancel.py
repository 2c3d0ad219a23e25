"""Cooperative mid-span cancellation: the ``cancel`` wire op, the
worker-side abandon points, and the driver-side requeue that makes a
mid-span drain (or a watchdog strike) hand work back in milliseconds
instead of waiting out the span."""

import threading
import time

import pytest

from repro.backends.distributed import DistributedBackend
from repro.backends.faults import FaultSpec
from repro.backends.worker import WorkerServer
from repro.backends.membership import retire_worker
from repro.backends.wire import cancel_worker
from repro.backends.worker import _cancellable_sleep
from repro.experiments.engine import TrialEngine
from trial_units import bernoulli_trial


def _address(server):
    return f"{server.address[0]}:{server.address[1]}"


_SLIGHTLY_SLOW = FaultSpec("slow", after_spans=0, delay=0.02)


class TestCancelOp:
    def test_cancel_idle_worker_reports_zero_spans(self):
        server = WorkerServer().serve_background()
        try:
            host, port = server.address
            assert cancel_worker(host, port) == 0
        finally:
            server.stop()

    def test_cancel_unreachable_worker_is_none(self):
        assert cancel_worker("127.0.0.1", 1) is None

    def test_cancel_unblocks_a_slow_span_quickly(self):
        """A span wedged in a 30s slow-fault sleep abandons within the
        cancel round trip, not the sleep — the mid-span drain primitive."""
        server = WorkerServer(
            fault=FaultSpec("slow", after_spans=0, delay=30.0)
        ).serve_background()
        try:
            host, port = server.address
            with DistributedBackend(
                [_address(server)],
                chunk_size=50,
            ) as backend:
                outcome = {}

                def run():
                    try:
                        outcome["result"] = TrialEngine(backend=backend).run(
                            bernoulli_trial, trials=50, seed=3
                        )
                    except Exception as error:  # noqa: BLE001
                        outcome["error"] = error

                runner = threading.Thread(target=run)
                runner.start()
                time.sleep(0.3)  # let the span enter its slow sleep
                began = time.perf_counter()
                assert cancel_worker(host, port) == 1
                # The cancelled span requeues; the same worker (whose
                # slow fault applies per-span) would re-sleep, so abort
                # the dispatch instead and verify the unblock was fast.
                backend.cancel_active(RuntimeError("test teardown"))
                runner.join(timeout=10.0)
                assert not runner.is_alive()
                assert time.perf_counter() - began < 10.0
                assert backend.stats["spans_cancelled"] >= 1
        finally:
            server.stop()

    def test_cancellable_sleep_completes_when_not_cancelled(self):
        began = time.perf_counter()
        assert _cancellable_sleep(0.05, lambda: False) is True
        assert time.perf_counter() - began >= 0.05

    def test_cancellable_sleep_aborts_mid_wait(self):
        cancelled = threading.Event()
        threading.Timer(0.05, cancelled.set).start()
        began = time.perf_counter()
        assert _cancellable_sleep(30.0, cancelled.is_set) is False
        assert time.perf_counter() - began < 5.0


class TestMidSpanDrain:
    @pytest.mark.usefixtures("fast_fault_detection")
    def test_drain_requeues_the_abandoned_span_immediately(self):
        """The ROADMAP follow-up: retiring a worker mid-span must not
        wait for the span to finish.  One worker carries a long slow
        fault; retiring it abandons its wedged span, which requeues onto
        the healthy worker — totals stay byte-identical and the drained
        worker counts as left, not broken."""
        reference = TrialEngine().run(bernoulli_trial, trials=80, seed=4)
        healthy = WorkerServer(fault=_SLIGHTLY_SLOW).serve_background()
        wedged = WorkerServer(
            fault=FaultSpec("slow", after_spans=1, delay=60.0)
        ).serve_background()
        try:
            with DistributedBackend(
                [_address(healthy), _address(wedged)],
                chunk_size=2,
                announce_bind="127.0.0.1:0",
            ) as backend:
                registry_address = backend.registry_address

                def retire_late():
                    time.sleep(0.3)  # wedged worker is mid-60s-sleep now
                    retire_worker(registry_address, _address(wedged))

                leaver = threading.Thread(target=retire_late)
                leaver.start()
                began = time.perf_counter()
                try:
                    result = TrialEngine(backend=backend).run(
                        bernoulli_trial, trials=80, seed=4
                    )
                finally:
                    leaver.join()
                elapsed = time.perf_counter() - began
                assert result == reference
                # Without mid-span cancel this run takes the full 60s.
                assert elapsed < 30.0
                assert backend.stats["spans_cancelled"] >= 1
                assert backend.stats["workers_left"] == 1
                # A drain is not a failure: no strikes, no breaker.
                assert backend.stats["workers_broken"] == 0
        finally:
            healthy.stop()
            wedged.stop()

    def test_cancel_active_aborts_a_dispatch_from_another_thread(self):
        """The watchdog's path: cancel_active called off-thread raises
        the given error out of the in-flight dispatch."""
        server = WorkerServer(
            fault=FaultSpec("slow", after_spans=0, delay=60.0)
        ).serve_background()
        try:
            with DistributedBackend(
                [_address(server)],
                chunk_size=50,
            ) as backend:

                class Deadline(RuntimeError):
                    pass

                timer = threading.Timer(
                    0.3, lambda: backend.cancel_active(Deadline("deadline"))
                )
                timer.start()
                began = time.perf_counter()
                try:
                    with pytest.raises(Deadline):
                        TrialEngine(backend=backend).run(
                            bernoulli_trial, trials=50, seed=3
                        )
                finally:
                    timer.cancel()
                assert time.perf_counter() - began < 30.0
        finally:
            server.stop()

    def test_cancel_active_with_nothing_in_flight_is_false(self):
        server = WorkerServer().serve_background()
        try:
            with DistributedBackend(
                [_address(server)], chunk_size=5
            ) as backend:
                assert backend.cancel_active(RuntimeError("idle")) is False
        finally:
            server.stop()

    def test_uncancelled_runs_are_unaffected(self):
        """The sub-sliced span execution must not change results."""
        reference = TrialEngine().run(bernoulli_trial, trials=100, seed=9)
        server = WorkerServer().serve_background()
        try:
            with DistributedBackend(
                [_address(server)], chunk_size=7
            ) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=100, seed=9
                )
            assert result == reference
        finally:
            server.stop()

"""The chaos suite: exact counts must survive scripted worker failures.

Every test runs real :class:`~repro.backends.worker.WorkerServer`
instances on loopback with a :class:`~repro.backends.faults.FaultSpec`
scripting *when* and *how* a worker fails, then holds the fault-tolerant
:class:`~repro.backends.distributed.DistributedBackend` to the only
acceptable bar: results — and result-store cache keys — **byte-identical**
to the serial reference, with no manual resume.  The mechanisms under
test are span requeue/rebalancing, the heartbeat liveness probe, and the
per-worker circuit breaker; ``backend.stats`` proves the fault actually
fired (a chaos test that silently degenerates to the happy path proves
nothing).
"""

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import distributed
from repro.backends.distributed import DistributedBackend, NoWorkersLeft
from repro.backends.faults import FaultInjector, FaultPlan, FaultSpec
from repro.backends.worker import WorkerServer
from repro.experiments.engine import TrialEngine
from repro.scenarios import ResultStore, get_scenario
from repro.scenarios.orchestrator import SweepOrchestrator
from trial_units import bernoulli_trial, counting_batch, indexed_measure, paired_trial

pytestmark = pytest.mark.usefixtures("fast_fault_detection")


def _addresses(servers):
    return [f"{server.address[0]}:{server.address[1]}" for server in servers]


def _start_servers(faults):
    """One server per entry; ``faults[i]`` is that worker's FaultSpec."""
    servers = [
        WorkerServer(fault=fault).serve_background() for fault in faults
    ]
    return servers


#: Handed to every *non-victim* worker in tests that assert a fault
#: fired: a slight, correct-results slowdown that guarantees the fast
#: victim keeps winning the pull-queue race until its scripted failure —
#: without it, eager healthy workers can drain a small span queue before
#: the victim ever reaches its trigger span, and the test would silently
#: degrade to the happy path.
_SLIGHTLY_SLOW = FaultSpec("slow", after_spans=0, delay=0.02)


def _stop_servers(servers):
    for server in servers:
        server.stop()


def _backend(servers, chunk_size=5, **options):
    return DistributedBackend(_addresses(servers), chunk_size=chunk_size, **options)


class TestFaultPlans:
    def test_spec_parse_describe_round_trip(self):
        for text in ("kill@2", "drop@0", "slow@1:0.05", "hang@3"):
            spec = FaultSpec.parse(text)
            assert spec.describe() == text
            assert FaultSpec.from_dict(spec.to_dict()) == spec
        assert FaultSpec.parse("kill").after_spans == 0
        with pytest.raises(ValueError, match="fault kind"):
            FaultSpec.parse("explode@1")
        with pytest.raises(ValueError, match="cannot parse"):
            FaultSpec.parse("kill@soon")

    def test_plan_parse_describe_round_trip(self):
        plan = FaultPlan.parse("0:kill@2,2:slow@0:0.05")
        assert plan.for_worker(0) == FaultSpec("kill", after_spans=2)
        assert plan.for_worker(1) is None
        assert plan.describe() == "0:kill@2,2:slow@0:0.05"
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        assert plan.survivors(3) == (1, 2)  # slow workers survive

    def test_random_plan_is_seed_deterministic_and_leaves_a_survivor(self):
        for seed in range(50):
            plan = FaultPlan.random(seed, workers=3)
            assert plan == FaultPlan.random(seed, workers=3)
            assert plan.faults, seed
            # At least one worker has no fault at all — the property
            # tests' precondition.
            assert any(plan.for_worker(i) is None for i in range(3)), seed
            assert len(plan.survivors(3)) >= 1, seed

    def test_injector_fires_at_the_scripted_span(self):
        injector = FaultInjector(FaultSpec("kill", after_spans=2))
        assert injector.on_span() is None
        assert injector.on_span() is None
        assert injector.on_span() is not None  # the 3rd request triggers
        assert injector.on_span() is None  # kill fires exactly once
        assert injector.spans_seen == 4

    def test_slow_injector_applies_to_every_span_after_trigger(self):
        injector = FaultInjector(FaultSpec("slow", after_spans=1, delay=0.01))
        assert injector.on_span() is None
        assert injector.on_span() is not None
        assert injector.on_span() is not None


class TestKillRebalancing:
    """A dead worker's spans land on survivors; totals never change."""

    @pytest.mark.parametrize("victim", [0, 1, 2])
    @pytest.mark.parametrize("after_spans", [0, 2])
    def test_scalar_counts_survive_a_kill(self, victim, after_spans):
        reference = TrialEngine().run(
            paired_trial, trials=90, seed=5, label="chaos", channels=2
        )
        faults = [_SLIGHTLY_SLOW] * 3
        faults[victim] = FaultSpec("kill", after_spans=after_spans)
        servers = _start_servers(faults)
        try:
            with _backend(servers) as backend:
                result = TrialEngine(backend=backend).run(
                    paired_trial, trials=90, seed=5, label="chaos", channels=2
                )
                assert result == reference
                # The fault really fired and really was recovered.
                assert backend.stats["spans_requeued"] >= 1
                assert backend.stats["workers_broken"] == 1
                assert len(backend.live_workers()) == 2
        finally:
            _stop_servers(servers)

    def test_batched_counts_survive_a_kill(self):
        reference = TrialEngine().run_batched(
            counting_batch, trials=96, seed=23, label="vb", batch_size=8
        )
        servers = _start_servers(
            [_SLIGHTLY_SLOW, FaultSpec("kill", after_spans=1), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers, chunk_size=1) as backend:
                result = TrialEngine(backend=backend).run_batched(
                    counting_batch, trials=96, seed=23, label="vb", batch_size=8
                )
                assert result == reference
                assert backend.stats["spans_requeued"] >= 1
        finally:
            _stop_servers(servers)

    def test_collect_order_survives_a_kill(self):
        reference = TrialEngine().map(indexed_measure, trials=30, seed=3)
        servers = _start_servers(
            [FaultSpec("kill", after_spans=1), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers, chunk_size=3) as backend:
                values = TrialEngine(backend=backend).map(
                    indexed_measure, trials=30, seed=3
                )
                assert values == reference
                assert backend.stats["spans_requeued"] >= 1
        finally:
            _stop_servers(servers)

    def test_refused_reconnects_spend_no_span_retries(self, monkeypatch):
        """A dead worker's reconnect is refused in microseconds, so it
        re-pulls the span it just requeued before a busy survivor can.
        Counting each refusal as an attempt let two dead workers spend a
        span's whole retry budget (the TestRandomFaultPlansProperty
        flake); here one dead worker is allowed enough strikes to do it
        alone."""
        monkeypatch.setattr(
            distributed, "BREAKER_THRESHOLD", 2 * distributed.SPAN_RETRIES
        )
        reference = TrialEngine().run(
            paired_trial, trials=6, seed=5, label="refused", channels=2
        )
        servers = _start_servers(
            [
                FaultSpec("kill", after_spans=0),
                FaultSpec("slow", after_spans=0, delay=0.3),
            ]
        )
        try:
            with _backend(servers, chunk_size=3) as backend:
                result = TrialEngine(backend=backend).run(
                    paired_trial, trials=6, seed=5, label="refused", channels=2
                )
                assert result == reference
                assert backend.stats["workers_broken"] == 1
        finally:
            _stop_servers(servers)

    def test_breaker_keeps_the_dead_worker_out_of_later_runs(self):
        servers = _start_servers(
            [FaultSpec("kill", after_spans=0), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers) as backend:
                engine = TrialEngine(backend=backend)
                first = engine.run(bernoulli_trial, trials=60, seed=1)
                assert backend.stats["workers_broken"] == 1
                failures_after_first = backend.stats["worker_failures"]
                # Later engine runs never touch the broken worker again.
                second = engine.run(bernoulli_trial, trials=60, seed=2)
                assert backend.stats["worker_failures"] == failures_after_first
            assert first == TrialEngine().run(bernoulli_trial, trials=60, seed=1)
            assert second == TrialEngine().run(bernoulli_trial, trials=60, seed=2)
        finally:
            _stop_servers(servers)

    def test_every_worker_dead_raises_instead_of_hanging(self):
        servers = _start_servers(
            [FaultSpec("kill", after_spans=0), FaultSpec("kill", after_spans=0)]
        )
        try:
            started = time.monotonic()
            with _backend(servers) as backend:
                with pytest.raises(NoWorkersLeft):
                    TrialEngine(backend=backend).run(
                        bernoulli_trial, trials=60, seed=1
                    )
            assert time.monotonic() - started < 30  # bounded, not a hang
        finally:
            _stop_servers(servers)


class _TaskRejectingWorker:
    """Speaks the protocol but answers every ``task`` load ``ok: false`` —
    a worker with version skew or a module missing on its host."""

    def __init__(self):
        import socket as socket_module
        import threading

        from repro.backends.wire import (
            PROTOCOL_VERSION,
            WORKER_ROLE,
            recv_message,
            send_message,
        )

        self._server = socket_module.create_server(("127.0.0.1", 0))
        self.address = "{}:{}".format(*self._server.getsockname())

        def serve():
            while True:
                try:
                    connection, _ = self._server.accept()
                except OSError:
                    return
                while True:
                    try:
                        message = recv_message(connection)
                    except OSError:
                        break
                    if message is None:
                        break
                    if message.get("op") == "task":
                        reply = {
                            "ok": False,
                            "error": "ModuleNotFoundError: no such module here",
                        }
                    else:
                        reply = {
                            "ok": True,
                            "role": WORKER_ROLE,
                            "protocol": PROTOCOL_VERSION,
                        }
                    send_message(connection, reply)
                connection.close()

        self._thread = threading.Thread(target=serve, daemon=True)
        self._thread.start()

    def stop(self):
        self._server.close()


class TestWorkerSpecificTaskFailures:
    def test_task_load_rejection_strikes_the_worker_not_the_run(self):
        """One worker that cannot *load* the task must not abort the
        dispatch — its spans belong to the workers that can."""
        reference = TrialEngine().run(bernoulli_trial, trials=60, seed=5)
        healthy = WorkerServer().serve_background()
        rejecting = _TaskRejectingWorker()
        try:
            addresses = [
                rejecting.address,
                f"{healthy.address[0]}:{healthy.address[1]}",
            ]
            with DistributedBackend(addresses, chunk_size=5) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=60, seed=5
                )
                assert result == reference
                assert backend.stats["workers_broken"] == 1
                assert backend.live_workers() == (addresses[1],)
        finally:
            healthy.stop()
            rejecting.stop()


class TestDropAndSlowWorkers:
    def test_dropped_connection_reconnects_without_breaking_the_worker(self):
        reference = TrialEngine().run(bernoulli_trial, trials=90, seed=5)
        servers = _start_servers(
            [FaultSpec("drop", after_spans=1), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=90, seed=5
                )
                assert result == reference
                assert backend.stats["spans_requeued"] >= 1
                # A single flap is a strike, not a broken circuit: the
                # worker reconnects and keeps serving.
                assert backend.stats["workers_broken"] == 0
                assert len(backend.live_workers()) == 2
        finally:
            _stop_servers(servers)

    def test_slow_worker_is_waited_on_not_requeued(self):
        reference = TrialEngine().run(bernoulli_trial, trials=40, seed=5)
        servers = _start_servers([FaultSpec("slow", after_spans=0, delay=0.4), None])
        try:
            with _backend(servers, chunk_size=10) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=40, seed=5
                )
                assert result == reference
                # The heartbeat probed the slow worker and found it alive,
                # so nothing was requeued or struck.
                assert backend.stats["heartbeat_probes"] >= 1
                assert backend.stats["spans_requeued"] == 0
                assert backend.stats["worker_failures"] == 0
        finally:
            _stop_servers(servers)

    def test_hung_worker_is_detected_by_heartbeat_and_requeued(self):
        reference = TrialEngine().run(bernoulli_trial, trials=60, seed=5)
        servers = _start_servers(
            [FaultSpec("hang", after_spans=1, delay=10), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=60, seed=5
                )
                assert result == reference
                assert backend.stats["heartbeat_probes"] >= 1
                assert backend.stats["spans_requeued"] >= 1
                assert backend.stats["workers_broken"] == 1
        finally:
            _stop_servers(servers)


class TestSmokeSweepUnderFaults:
    """The acceptance criterion, executed.

    A 3-worker pool with a scripted mid-sweep kill must complete
    ``sweep run`` with **no manual resume** and leave a result store
    byte-identical — same content-hash keys, same records — to the
    serial backend's.  ``--batch-size 4`` carves each 40-trial smoke
    point into 10 batches (and ``chunk_size=1`` into 10 spans) so the
    kill lands mid-point, not between points.
    """

    BATCH_SIZE = 4

    def _run(self, store_root, backend=None):
        spec = get_scenario("smoke")
        store = ResultStore(store_root)
        orchestrator = SweepOrchestrator(
            store=store,
            backend=backend,
            batch_size=self.BATCH_SIZE,
        )
        report = orchestrator.run(spec)
        assert report.computed == spec.point_count
        return store

    @staticmethod
    def _records(store_root):
        return {
            path.name: path.read_bytes()
            for path in sorted(store_root.glob("smoke/*.json"))
        }

    @pytest.mark.parametrize("victim", [0, 1, 2])
    @pytest.mark.parametrize("after_spans", [0, 3])
    def test_store_bytes_identical_to_serial(self, tmp_path, victim, after_spans):
        self._run(tmp_path / "serial", backend="serial")
        reference = self._records(tmp_path / "serial")
        assert len(reference) == 2

        faults = [_SLIGHTLY_SLOW] * 3
        faults[victim] = FaultSpec("kill", after_spans=after_spans)
        servers = _start_servers(faults)
        try:
            backend = _backend(servers, chunk_size=1)
            with backend:
                self._run(tmp_path / "chaos", backend=backend)
                assert backend.stats["spans_requeued"] >= 1
                assert backend.stats["workers_broken"] == 1
        finally:
            _stop_servers(servers)
        # Byte-identical: same content-hash keys (file names), same
        # record bytes — the store cannot tell chaos from serial.
        assert self._records(tmp_path / "chaos") == reference


class TestBreakerReadmission:
    """A tripped breaker is a cooldown, not a death sentence."""

    def test_flapping_worker_is_readmitted_after_cooldown(self, monkeypatch):
        monkeypatch.setattr(distributed, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(distributed, "BREAKER_COOLDOWN", 0.05)
        reference = TrialEngine().run(bernoulli_trial, trials=90, seed=5)
        # The victim drops its connection once, mid-run; with threshold 1
        # that trips the breaker immediately.  The slow survivor keeps
        # the run alive long past the 0.05s cooldown, so the controller
        # probes the (healthy again) victim and re-admits it.
        servers = _start_servers(
            [FaultSpec("drop", after_spans=1), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers, chunk_size=3) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=90, seed=5
                )
                assert result == reference
                assert backend.stats["workers_broken"] == 1
                assert backend.stats["readmission_probes"] >= 1
                assert backend.stats["workers_readmitted"] == 1
                # Both workers are live again at the end.
                assert len(backend.live_workers()) == 2
        finally:
            _stop_servers(servers)

    def test_dead_worker_stays_out_through_backoff(self, monkeypatch):
        """Re-admission probes a corpse and backs off — it never floods
        the dead address, and the run completes on the survivor."""
        monkeypatch.setattr(distributed, "BREAKER_COOLDOWN", 0.05)
        reference = TrialEngine().run(bernoulli_trial, trials=60, seed=8)
        servers = _start_servers(
            [FaultSpec("kill", after_spans=0), _SLIGHTLY_SLOW]
        )
        try:
            with _backend(servers) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=60, seed=8
                )
                assert result == reference
                assert backend.stats["workers_broken"] == 1
                assert backend.stats["workers_readmitted"] == 0
                # Probes fired (the cooldown expired at least once) but
                # every one found the corpse still dead.
                assert backend.stats["readmission_probes"] >= 1
                assert len(backend.live_workers()) == 1
        finally:
            _stop_servers(servers)

    def test_strikes_reset_between_engine_runs(self, monkeypatch):
        """Satellite regression: strikes must not leak across start()
        boundaries — a near-threshold run A plus one transient flap in
        run B used to trip the breaker on a healthy worker."""
        monkeypatch.setattr(distributed, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(distributed, "BREAKER_COOLDOWN", 60.0)
        reference = TrialEngine().run(bernoulli_trial, trials=20, seed=2)
        # A single worker that serves run A cleanly (4 spans of 5) and
        # drops exactly once on run B's first span.
        servers = _start_servers([FaultSpec("drop", after_spans=4)])
        try:
            with _backend(servers) as backend:
                engine = TrialEngine(backend=backend)
                first = engine.run(bernoulli_trial, trials=20, seed=1)
                assert backend.stats["worker_failures"] == 0
                # Simulate run A ending one strike shy of the threshold.
                backend._workers[0].strikes = distributed.BREAKER_THRESHOLD - 1
                second = engine.run(bernoulli_trial, trials=20, seed=2)
                assert second == reference
                assert backend.stats["worker_failures"] == 1  # the drop
                # Without the start() reset this run inherits run A's
                # strike and the lone drop breaks the worker.
                assert backend.stats["workers_broken"] == 0
                assert len(backend.live_workers()) == 1
        finally:
            _stop_servers(servers)


class TestElasticMembershipProperty:
    """Hypothesis satellite: a random fault plan *plus* a mid-run joiner
    never changes counts — elasticity is invisible in results."""

    WORKERS = 2

    @settings(
        max_examples=5,
        deadline=None,
        # The fixtures patch module constants, the same for every example.
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_joining_worker_never_changes_counts(self, monkeypatch, seed):
        import threading

        from repro.backends.membership import announce_worker

        monkeypatch.setattr(distributed, "BREAKER_COOLDOWN", 0.05)
        plan = FaultPlan.random(seed, workers=self.WORKERS)
        reference = TrialEngine().run(
            paired_trial, trials=75, seed=19, label="elastic", channels=2
        )
        servers = _start_servers(
            [plan.for_worker(index) for index in range(self.WORKERS)]
        )
        extra = WorkerServer().serve_background()
        try:
            with _backend(
                servers, chunk_size=3, announce_bind="127.0.0.1:0"
            ) as backend:
                registry_address = backend.registry_address

                def join_late():
                    time.sleep(0.05)
                    announce_worker(
                        registry_address,
                        f"{extra.address[0]}:{extra.address[1]}",
                    )

                joiner = threading.Thread(target=join_late)
                joiner.start()
                try:
                    result = TrialEngine(backend=backend).run(
                        paired_trial,
                        trials=75,
                        seed=19,
                        label="elastic",
                        channels=2,
                    )
                finally:
                    joiner.join()
                assert result == reference
        finally:
            _stop_servers(servers)
            extra.stop()


class TestRandomFaultPlansProperty:
    """Satellite property: any seedable plan leaving ≥ 1 worker alive
    yields ``backend.run`` totals equal to a no-fault run."""

    WORKERS = 3

    @settings(
        max_examples=8,
        deadline=None,
        # The fixtures patch module constants, the same for every example.
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_totals_match_the_fault_free_run(self, seed):
        plan = FaultPlan.random(seed, workers=self.WORKERS)
        assert len(plan.survivors(self.WORKERS)) >= 1
        reference_counts = TrialEngine().run(
            paired_trial, trials=75, seed=11, label="prop", channels=2
        )
        reference_batches = TrialEngine().run_batched(
            counting_batch, trials=72, seed=13, label="propb", batch_size=6
        )
        servers = _start_servers(
            [plan.for_worker(index) for index in range(self.WORKERS)]
        )
        try:
            with _backend(servers, chunk_size=3) as backend:
                engine = TrialEngine(backend=backend)
                assert (
                    engine.run(
                        paired_trial, trials=75, seed=11, label="prop", channels=2
                    )
                    == reference_counts
                )
                assert (
                    engine.run_batched(
                        counting_batch,
                        trials=72,
                        seed=13,
                        label="propb",
                        batch_size=6,
                    )
                    == reference_batches
                )
        finally:
            _stop_servers(servers)

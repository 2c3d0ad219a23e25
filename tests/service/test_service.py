"""The sweep service: protocol round trips, dedup, fairness, drain.

The unit half drives :class:`SweepService` through
``serve_background()`` on ephemeral ports — submit/status/watch/cancel
round trips, two overlapping jobs whose shared points are computed
exactly once and byte-match a serial sweep, and the fair-share
admission order.  The process half spawns a real ``repro serve`` daemon
and checks that ``SIGTERM`` drains it cleanly.
"""

import asyncio
import signal
import subprocess
import sys
import time

import pytest

from repro.backends.pool import _worker_environment
from repro.backends.registry import get as get_backend
from repro.backends.wire import SERVICE_ROLE
from repro.backends.worker import WorkerServer
from repro.scenarios.orchestrator import PointEntry, SweepOrchestrator, resolve_entries
from repro.scenarios.registry import _CACHE, builtin_scenarios
from repro.scenarios.runners import _RUNNERS, register_kind
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.store import ResultStore
from repro.service.client import (
    _connect,
    cancel_job,
    job_status,
    service_request,
    service_stats,
    shutdown_service,
    submit_job,
    watch_job,
)
from repro.service.jobs import Job, JobTable
from repro.service.scheduler import JobScheduler
from repro.service.server import SweepService


KIND = "service-test-kind"


def _make_spec(name, points=4, trials=40, delay=0.0, seed=9):
    values = tuple(round((i + 1) / (points + 1), 3) for i in range(points))
    return ScenarioSpec(
        name=name,
        kind=KIND,
        axes=(Axis("p", values),),
        fixed={"delay": delay},
        trials=trials,
        seed=seed,
    )


@pytest.fixture
def service_scenarios():
    """Register a cheap kind plus two test scenarios, cleaned up after."""

    @register_kind(KIND)
    def run_point(params, trials, seed, engine, batch_size=None):
        delay = params.get("delay", 0.0)
        if delay:
            time.sleep(delay)
        estimate = engine.estimate(
            lambda rng: rng.bernoulli(params["p"]),
            trials=trials,
            seed=seed,
            label=f"svc-{params['p']}",
        )
        return {
            "p": params["p"],
            "value": estimate.estimate,
            "measured": {"low": estimate.low, "high": estimate.high},
            "trials_run": estimate.trials,
        }

    builtin_scenarios()  # prime the cache before injecting
    specs = {
        "service-test": _make_spec("service-test"),
        "service-test-slow": _make_spec(
            "service-test-slow", points=8, trials=20, delay=0.05
        ),
    }
    _CACHE.update(specs)
    try:
        yield specs
    finally:
        for name in specs:
            _CACHE.pop(name, None)
        _RUNNERS.pop(KIND, None)


def _address(handle) -> str:
    host, port = handle.address
    return f"{host}:{port}"


class TestProtocolRoundTrips:
    def test_hello_ping_submit_status_watch(self, service_scenarios, tmp_path):
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            hello = service_request(address, {"op": "hello"})
            assert hello["role"] == SERVICE_ROLE
            assert isinstance(hello["pid"], int)
            assert service_request(address, {"op": "ping"})["ok"]

            accepted = submit_job(address, "service-test")
            assert accepted["ok"] and accepted["points"] == 4
            job = accepted["job"]

            final = watch_job(address, job)
            assert final["status"] == "done"
            assert final["computed"] == 4 and final["cached"] == 0

            status = job_status(address, job)["job"]
            assert status["status"] == "done"
            assert status["served"] == 4

            table = job_status(address)["jobs"]
            assert [entry["job"] for entry in table] == [job]

            stats = service_stats(address)["stats"]
            assert stats["jobs_submitted"] == 1
            assert stats["jobs_completed"] == 1
            assert stats["points_computed"] == 4

    def test_unknown_scenario_and_job_are_clean_errors(
        self, service_scenarios, tmp_path
    ):
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            with pytest.raises(RuntimeError, match="unknown scenario"):
                submit_job(address, "no-such-scenario")
            with pytest.raises(RuntimeError, match="unknown job"):
                job_status(address, "job-9999")
            with pytest.raises(RuntimeError, match="unknown job"):
                cancel_job(address, "job-9999")
            with pytest.raises(RuntimeError, match="unknown op"):
                service_request(address, {"op": "frobnicate"})

    @pytest.mark.parametrize(
        "name", ["availability", "epoch-smoke", "timeliness", "timeliness-1e6"]
    )
    def test_a_field_submit_does_not_take_is_refused(self, tmp_path, name):
        # A ``kernel`` field used to pick one of two models inside a kind;
        # each model is its own kind now, and the daemon refuses the field
        # rather than silently run the registered spec without it.
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            message = {"op": "submit", "scenario": name, "kernel": "epoch"}
            with pytest.raises(RuntimeError, match=r"does not take \['kernel'\]"):
                service_request(address, message)
            assert service_stats(address)["jobs"] == 0

    def test_wrong_role_port_is_refused(self):
        worker = WorkerServer().serve_background()
        try:
            host, port = worker.address
            with pytest.raises(ConnectionError, match="not a repro sweep"):
                _connect(f"{host}:{port}", timeout=5)
        finally:
            worker.stop()

    def test_cancel_drops_remaining_points(self, service_scenarios, tmp_path):
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            job = submit_job(address, "service-test-slow")["job"]
            # Let at least one point land before cancelling.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if job_status(address, job)["job"]["served"] >= 1:
                    break
                time.sleep(0.02)
            reply = cancel_job(address, job)
            assert reply["ok"]
            final = watch_job(address, job)
            assert final["status"] == "cancelled"
            assert final["served"] < final["points"]
            # Cancelling a finished job is a no-op, not an error.
            again = cancel_job(address, job)
            assert again["ok"] and again["cancelled"] is False


class TestSubmitSweep:
    """``api.submit_sweep``: the daemon runs registered scenarios by name."""

    def test_a_spec_other_than_the_registered_one_is_refused(self, monkeypatch):
        from repro import api
        from repro.service import client

        def no_connection(*args, **kwargs):
            raise AssertionError("submit_sweep connected")

        monkeypatch.setattr(client, "_connect", no_connection)
        spec = api.get_scenario("smoke").with_overrides(seed=5)
        with pytest.raises(ValueError, match="differs from the registered"):
            api.submit_sweep("127.0.0.1:7272", spec)

    def test_a_registered_spec_round_trips(self, service_scenarios, tmp_path):
        from repro import api

        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            final = api.submit_sweep(
                _address(handle), service_scenarios["service-test"], watch=True
            )
        assert final["status"] == "done"
        assert final["computed"] == 4 and final["cached"] == 0


class TestDeduplication:
    def test_two_overlapping_jobs_byte_match_serial_and_dedup(
        self, service_scenarios, tmp_path
    ):
        """The acceptance property: two concurrent identical sweeps
        through the service produce a store byte-identical to one serial
        sweep, with every shared point computed exactly once."""
        spec = service_scenarios["service-test"]

        serial_store = ResultStore(tmp_path / "serial")
        SweepOrchestrator(store=serial_store, jobs=1).run(spec)

        service_store = ResultStore(tmp_path / "service")
        service = SweepService(service_store, jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            first = submit_job(address, "service-test")["job"]
            second = submit_job(address, "service-test")["job"]
            final_first = watch_job(address, first)
            final_second = watch_job(address, second)
            stats = service_stats(address)["stats"]

        assert final_first["status"] == "done"
        assert final_second["status"] == "done"
        # Every shared point computed exactly once, adopted by the other.
        points = spec.point_count
        assert final_first["computed"] + final_second["computed"] == points
        assert final_first["dedup_hits"] + final_second["dedup_hits"] == points
        assert stats["dedup_hits"] == points
        assert stats["points_computed"] == points

        # Store bytes: identical keys, identical record bytes.
        serial_keys = serial_store.keys(spec.name)
        service_keys = service_store.keys(spec.name)
        assert serial_keys == service_keys and len(serial_keys) == points
        for key in serial_keys:
            serial_bytes = serial_store.path_for(spec.name, key).read_bytes()
            service_bytes = service_store.path_for(spec.name, key).read_bytes()
            assert serial_bytes == service_bytes

    def test_second_submission_after_first_is_all_dedup(
        self, service_scenarios, tmp_path
    ):
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            first = watch_job(
                address, submit_job(address, "service-test")["job"]
            )
            second = watch_job(
                address, submit_job(address, "service-test")["job"]
            )
        assert first["computed"] == 4
        assert second["computed"] == 0
        assert second["dedup_hits"] == 4

    def test_prior_store_records_count_as_cached_not_dedup(
        self, service_scenarios, tmp_path
    ):
        """Records that predate the daemon are plain cache hits — the
        dedup counter measures shared work *between* service jobs."""
        spec = service_scenarios["service-test"]
        store = ResultStore(tmp_path / "store")
        SweepOrchestrator(store=store, jobs=1).run(spec)
        service = SweepService(store, jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            final = watch_job(
                address, submit_job(address, "service-test")["job"]
            )
        assert final["cached"] == 4
        assert final["dedup_hits"] == 0

    def test_watch_streams_progress_frames_with_rates(
        self, service_scenarios, tmp_path
    ):
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            frames = []
            watch_job(
                address,
                submit_job(address, "service-test")["job"],
                on_frame=frames.append,
            )
        assert len(frames) == 4
        assert [frame["seq"] for frame in frames] == [0, 1, 2, 3]
        for frame in frames:
            assert frame["status"] == "computed"
            assert frame["trials_run"] > 0
            assert frame["trials_per_second"] > 0
            # The test runner embeds low/high under "measured", so the
            # CI half-width reaches the progress stream.
            assert frame["ci_half_width"] is not None


async def _run_jobs_to_completion(scheduler, table, executor, specs):
    """Queue one job per spec, run the scheduler until all finish."""
    jobs = []
    for spec in specs:
        resolved, trials, entries = resolve_entries(spec)
        job = Job(table.next_id(), resolved, trials, entries)
        table.add(job)
        jobs.append(job)
    with executor:
        task = asyncio.create_task(scheduler.run())
        scheduler.wake()
        deadline = time.monotonic() + 60
        while not all(job.finished for job in jobs):
            assert time.monotonic() < deadline, "jobs did not finish"
            await asyncio.sleep(0.01)
        scheduler.request_stop()
        await task
    return jobs


class TestFairShare:
    def test_admissions_alternate_between_equally_served_jobs(
        self, service_scenarios, tmp_path
    ):
        """With two queued jobs, the scheduler admits the least-served
        one each iteration — strict alternation, never back-to-back."""
        spec_a = service_scenarios["service-test"]
        spec_b = _make_spec("service-test-b", seed=11)
        store = ResultStore(tmp_path / "store")
        executor = get_backend(None, jobs=1)

        async def scenario():
            table = JobTable()
            table.condition = asyncio.Condition()
            scheduler = JobScheduler(store, executor, table)
            jobs = await _run_jobs_to_completion(
                scheduler, table, executor, (spec_a, spec_b)
            )
            return scheduler.admission_log, jobs

        log, jobs = asyncio.run(scenario())
        assert all(job.status == "done" for job in jobs)
        # Both queued from the start: strict A/B alternation.
        expected = [jobs[0].id, jobs[1].id] * spec_a.point_count
        assert log == expected

    def test_short_job_is_not_starved_by_a_long_one(
        self, service_scenarios, tmp_path
    ):
        """A 2-point job running alongside an 8-point job finishes in
        the first few admission slots, not after the long job's tail."""
        long_spec = _make_spec("service-test-long", points=8, seed=13)
        short_spec = _make_spec("service-test-short", points=2, seed=17)
        store = ResultStore(tmp_path / "store")
        executor = get_backend(None, jobs=1)

        async def scenario():
            table = JobTable()
            table.condition = asyncio.Condition()
            scheduler = JobScheduler(store, executor, table)
            jobs = await _run_jobs_to_completion(
                scheduler, table, executor, (long_spec, short_spec)
            )
            return scheduler.admission_log, jobs

        log, (long_job, short_job) = asyncio.run(scenario())
        assert long_job.status == "done" and short_job.status == "done"
        # Alternation bounds the short job's last admission to the
        # first four slots, far before the long job's tail.
        last_short = max(
            index for index, job_id in enumerate(log)
            if job_id == short_job.id
        )
        assert last_short <= 3


def _held_entries(job):
    """The ``PointEntry`` objects a job's attributes still reach."""
    held = []
    for value in vars(job).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        held.extend(item for item in items if isinstance(item, PointEntry))
    return held


class TestRetention:
    def test_a_finished_job_keeps_no_grid(self, service_scenarios, tmp_path):
        """A long-lived daemon must not keep every finished job's resolved
        grid: done and cancelled jobs answer status and watch from their
        counters and frames alone."""
        service = SweepService(tmp_path / "store", jobs=1)
        with service.serve_background() as handle:
            address = _address(handle)
            done = submit_job(address, "service-test")["job"]
            slow = submit_job(address, "service-test-slow")["job"]
            cancel_job(address, slow)
            final = watch_job(address, done)
            cancelled = watch_job(address, slow)
            assert final["status"] == "done" and final["points"] == 4
            assert cancelled["status"] == "cancelled"
            assert cancelled["points"] == 8
            frames = []
            watch_job(address, done, on_frame=frames.append)
            assert len(frames) == 4  # the progress frames are replayed
            jobs = service.table.all()
            assert [job.status for job in jobs] == ["done", "cancelled"]
            for job in jobs:
                assert _held_entries(job) == [], job.id


class TestDrain:
    def test_shutdown_op_drains_open_jobs(self, service_scenarios, tmp_path):
        service = SweepService(tmp_path / "store", jobs=1)
        handle = service.serve_background()
        address = _address(handle)
        job = submit_job(address, "service-test-slow")["job"]
        assert shutdown_service(address)["ok"]
        handle.join(timeout=30)
        assert not handle.running
        # The job settled at an entry boundary, never mid-point.
        assert service.table.get(job).status in ("cancelled", "done")
        report = ResultStore(tmp_path / "store").verify()
        assert report.clean

    def test_handle_stop_is_idempotent(self, service_scenarios, tmp_path):
        service = SweepService(tmp_path / "store", jobs=1)
        handle = service.serve_background()
        handle.stop()
        assert not handle.running
        handle.stop()  # second stop: no-op, no error


class TestServeProcess:
    def test_sigterm_drains_the_daemon(self, tmp_path):
        """A real `repro serve` process: ready line, a served job,
        then SIGTERM → drain, stats line, exit 0."""
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--bind",
                "127.0.0.1:0",
                "--store",
                str(tmp_path / "store"),
                "--jobs",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_worker_environment(),
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert "repro sweep service ready" in line
            address = line.split("ready: ", 1)[1].split(" ")[0]
            final = watch_job(
                address,
                submit_job(address, "smoke", trials=10)["job"],
                timeout=60,
            )
            assert final["status"] == "done"
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            output = process.stdout.read()
            assert "repro sweep service: drained" in output
            assert "jobs_completed=1" in output
            report = ResultStore(tmp_path / "store").verify()
            assert report.clean
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
            process.wait()
            process.stdout.close()

"""Elastic membership: the announce registry and the hosts file watcher.

Unit half: :class:`MembershipRegistry` accepts only live, well-formed
announcements; :class:`HostsFileWatcher` turns file edits into
``(joined, left)`` batches and treats torn/unreadable states as "no
change".  Integration half: workers that join a *running* dispatch —
through the registry or through a watched hosts file — pick up spans,
show in ``backend.stats``, and (by the determinism contract) never
change a single count.
"""

import threading
import time

import pytest

from repro.backends.distributed import DistributedBackend
from repro.backends.faults import FaultSpec
from repro.backends.membership import (
    REGISTRY_ROLE,
    HostsFileWatcher,
    MembershipRegistry,
    RegistryBusyError,
    _registry_request,
    announce_worker,
    resolve_announced_address,
    retire_worker,
)
from repro.backends.pool import write_addresses_file
from repro.backends.worker import WorkerServer
from repro.experiments.engine import TrialEngine
from trial_units import bernoulli_trial


def _address(server):
    return f"{server.address[0]}:{server.address[1]}"


def _announce_then_terminate(registry):
    """Run `repro worker serve --announce` against ``registry``, SIGTERM it
    the moment the registry shows the join, and return ``(joined, left)``
    once it has exited 0."""
    import signal
    import subprocess
    import sys

    from repro.backends.pool import _worker_environment

    host, port = registry.address
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "serve",
            "--bind",
            "127.0.0.1:0",
            "--announce",
            f"{host}:{port}",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=_worker_environment(),
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        joined = []
        while not joined and time.monotonic() < deadline:
            joined, _ = registry.poll()
            if not joined:
                time.sleep(0.01)
        assert joined, "worker never announced itself"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 0
        deadline = time.monotonic() + 10
        left = []
        while not left and time.monotonic() < deadline:
            _, left = registry.poll()
            if not left:
                time.sleep(0.05)
        return joined, left
    finally:
        if process.poll() is None:  # pragma: no cover - cleanup
            process.kill()
        process.wait()
        process.stdout.close()


#: Keeps the initial fleet slow enough that a mid-run joiner still finds
#: spans to serve (see the same constant's rationale in test_faults).
_SLIGHTLY_SLOW = FaultSpec("slow", after_spans=0, delay=0.02)


class TestMembershipRegistry:
    def test_hello_identifies_the_registry_role(self):
        with MembershipRegistry() as registry:
            host, port = registry.address
            reply = _registry_request(f"{host}:{port}", {"op": "ping"})
            assert reply["ok"]

    def test_announce_probes_then_queues_the_worker(self):
        worker = WorkerServer().serve_background()
        try:
            with MembershipRegistry() as registry:
                host, port = registry.address
                assert announce_worker(f"{host}:{port}", _address(worker))
                joined, left = registry.poll()
                assert joined == [_address(worker)]
                assert left == []
                # poll drains: a second poll reports nothing new.
                assert registry.poll() == ([], [])
        finally:
            worker.stop()

    def test_duplicate_announcements_are_idempotent(self):
        worker = WorkerServer().serve_background()
        try:
            with MembershipRegistry() as registry:
                host, port = registry.address
                registry_address = f"{host}:{port}"
                assert announce_worker(registry_address, _address(worker))
                assert announce_worker(registry_address, _address(worker))
                joined, _ = registry.poll()
                assert joined == [_address(worker)]
        finally:
            worker.stop()

    def test_dead_or_malformed_announcements_are_refused(self):
        with MembershipRegistry() as registry:
            host, port = registry.address
            registry_address = f"{host}:{port}"
            # Nothing listens on port 1; the pre-admission probe refuses.
            assert not announce_worker(registry_address, "127.0.0.1:1")
            assert not announce_worker(registry_address, "not-an-address")
            assert registry.poll() == ([], [])

    def test_retire_queues_a_departure(self):
        with MembershipRegistry() as registry:
            host, port = registry.address
            assert retire_worker(f"{host}:{port}", "127.0.0.1:9999")
            joined, left = registry.poll()
            assert joined == []
            assert left == ["127.0.0.1:9999"]

    def test_announce_to_a_span_worker_is_a_role_error(self):
        """A worker port is not a registry; the role check catches the
        mix-up instead of feeding it announce frames it cannot parse."""
        worker = WorkerServer().serve_background()
        try:
            assert not announce_worker(_address(worker), "127.0.0.1:1")
        finally:
            worker.stop()

    def test_announce_retries_until_the_registry_exists(self):
        """The replacement-worker race: announcing before the driver's
        registry is up must retry, then succeed."""
        import socket as socket_module

        worker = WorkerServer().serve_background()
        # Reserve a port, release it, and only start the registry there
        # 0.3s into the announce's retry window.
        with socket_module.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        started: list = []

        def late_start():
            time.sleep(0.3)
            started.append(MembershipRegistry(port=port).start())

        thread = threading.Thread(target=late_start)
        thread.start()
        try:
            assert announce_worker(
                f"127.0.0.1:{port}",
                _address(worker),
                retry_seconds=10.0,
                retry_interval=0.05,
            )
            thread.join()
            assert started[0].poll() == ([_address(worker)], [])
        finally:
            thread.join()
            if started:
                started[0].stop()
            worker.stop()

    def test_resolve_announced_address_keeps_concrete_hosts(self):
        with MembershipRegistry() as registry:
            host, port = registry.address
            assert (
                resolve_announced_address("127.0.0.1", 7070, f"{host}:{port}")
                == "127.0.0.1:7070"
            )
            # A wildcard bind resolves to the interface that reaches the
            # registry — on loopback, loopback.
            resolved = resolve_announced_address("0.0.0.0", 7070, f"{host}:{port}")
            assert resolved == "127.0.0.1:7070"

    def test_retire_against_a_dead_registry_is_best_effort(self):
        assert retire_worker("127.0.0.1:1", "127.0.0.1:7070") is False


def _wait_port_free(host, port, deadline_seconds=5.0):
    import socket

    deadline = time.monotonic() + deadline_seconds
    while True:
        probe = socket.socket()
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind((host, port))
            return
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)
        finally:
            probe.close()


class TestSingleDriverAssumptions:
    """The multi-driver bugfixes: one registry per fleet, robust stop()."""

    def test_second_bind_on_a_busy_fleet_refuses_cleanly(self):
        import os

        with MembershipRegistry() as first:
            host, port = first.address
            with pytest.raises(RegistryBusyError) as refusal:
                MembershipRegistry(host=host, port=port)
            # The typed error names the live driver holding the fleet.
            assert str(os.getpid()) in str(refusal.value)
            assert "announce-bind" in str(refusal.value)

    def test_bind_conflict_with_a_non_registry_stays_a_plain_oserror(self):
        """Only a live driver registry earns the typed refusal; a span
        worker (or anything else) on the port surfaces the raw bind
        error so the operator sees the real conflict."""
        worker = WorkerServer().serve_background()
        try:
            host, port = worker.address
            with pytest.raises(OSError) as error:
                MembershipRegistry(host=host, port=port)
            assert not isinstance(error.value, RegistryBusyError)
        finally:
            worker.stop()

    def test_stop_releases_the_port_even_when_the_loop_wedges(self):
        """stop() must close the listening socket even when the accept
        loop never acknowledges shutdown() within the join window."""
        registry = MembershipRegistry()
        registry._stop_timeout = 0.2
        registry.start()
        assert registry._loop_started.wait(timeout=5)
        # Wedge the loop: shutdown() never takes effect, so the loop
        # thread outlives its join and stop() must abandon it.
        registry.shutdown = lambda: time.sleep(30)
        host, port = registry.address
        start = time.monotonic()
        registry.stop()
        assert time.monotonic() - start < 5
        # The port frees as soon as the wedged loop's in-flight poll()
        # returns (the kernel pins the file description for the duration
        # of the call) — bounded by one poll interval, not instantaneous.
        _wait_port_free(host, port)
        replacement = MembershipRegistry(host=host, port=port)
        replacement.server_close()

    def test_stop_without_start_closes_the_socket(self):
        registry = MembershipRegistry()
        host, port = registry.address
        registry.stop()
        replacement = MembershipRegistry(host=host, port=port)
        replacement.server_close()


class TestHostsFileWatcher:
    def test_added_and_removed_hosts_become_events(self, tmp_path):
        path = tmp_path / "hosts.txt"
        write_addresses_file(path, ["a:1", "b:2"])
        watcher = HostsFileWatcher(path, initial=("a:1", "b:2"))
        assert watcher.poll() == ([], [])  # unchanged since snapshot
        time.sleep(0.01)  # ensure a distinct mtime_ns
        write_addresses_file(path, ["a:1", "c:3"])
        assert watcher.poll() == (["c:3"], ["b:2"])
        assert watcher.poll() == ([], [])

    def test_blank_lines_and_comments_are_tolerated(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("a:1\n")
        watcher = HostsFileWatcher(path, initial=("a:1",))
        time.sleep(0.01)
        path.write_text("# fleet\n\na:1\n   \nb:2\n")
        assert watcher.poll() == (["b:2"], [])

    def test_torn_or_missing_file_reads_as_no_change(self, tmp_path):
        path = tmp_path / "hosts.txt"
        path.write_text("a:1\n")
        watcher = HostsFileWatcher(path, initial=("a:1",))
        time.sleep(0.01)
        path.write_text("not-an-address\n")  # torn/invalid state
        assert watcher.poll() == ([], [])
        path.unlink()
        assert watcher.poll() == ([], [])
        # The snapshot survived the bad states: restoring the file with
        # one extra host reports exactly that host.
        write_addresses_file(path, ["a:1", "b:2"])
        assert watcher.poll() == (["b:2"], [])

    def test_missing_file_at_construction_is_fine(self, tmp_path):
        watcher = HostsFileWatcher(tmp_path / "absent.txt", initial=("a:1",))
        assert watcher.poll() == ([], [])


@pytest.mark.usefixtures("fast_fault_detection")
class TestElasticJoin:
    """Workers joining a *running* dispatch serve spans; counts never move."""

    def test_worker_joins_mid_run_via_announce(self):
        reference = TrialEngine().run(bernoulli_trial, trials=120, seed=9)
        initial = WorkerServer(fault=_SLIGHTLY_SLOW).serve_background()
        extra = WorkerServer().serve_background()
        try:
            with DistributedBackend(
                [_address(initial)],
                chunk_size=2,
                announce_bind="127.0.0.1:0",
            ) as backend:
                registry_address = backend.registry_address
                assert registry_address is not None

                def join_late():
                    time.sleep(0.2)
                    announce_worker(registry_address, _address(extra))

                joiner = threading.Thread(target=join_late)
                joiner.start()
                try:
                    result = TrialEngine(backend=backend).run(
                        bernoulli_trial, trials=120, seed=9
                    )
                finally:
                    joiner.join()
                assert result == reference
                assert backend.stats["workers_joined"] == 1
                assert len(backend.live_workers()) == 2
        finally:
            initial.stop()
            extra.stop()

    def test_retired_worker_is_drained_not_struck(self):
        reference = TrialEngine().run(bernoulli_trial, trials=80, seed=4)
        workers = [
            WorkerServer(fault=_SLIGHTLY_SLOW).serve_background()
            for _ in range(2)
        ]
        try:
            with DistributedBackend(
                [_address(worker) for worker in workers],
                chunk_size=2,
                announce_bind="127.0.0.1:0",
            ) as backend:
                registry_address = backend.registry_address

                def retire_late():
                    time.sleep(0.15)
                    retire_worker(registry_address, _address(workers[1]))

                leaver = threading.Thread(target=retire_late)
                leaver.start()
                try:
                    result = TrialEngine(backend=backend).run(
                        bernoulli_trial, trials=80, seed=4
                    )
                finally:
                    leaver.join()
                assert result == reference
                assert backend.stats["workers_left"] == 1
                # A drain is not a failure: no strikes, no breaker.
                assert backend.stats["workers_broken"] == 0
                assert backend.live_workers() == (_address(workers[0]),)
        finally:
            for worker in workers:
                worker.stop()

    def test_worker_joins_mid_run_via_watched_hosts_file(self, tmp_path):
        reference = TrialEngine().run(bernoulli_trial, trials=120, seed=2)
        initial = WorkerServer(fault=_SLIGHTLY_SLOW).serve_background()
        extra = WorkerServer().serve_background()
        hosts = tmp_path / "fleet.txt"
        write_addresses_file(hosts, [_address(initial)])
        try:
            with DistributedBackend(
                [_address(initial)],
                chunk_size=2,
                watch_hosts=str(hosts),
            ) as backend:
                def grow_fleet():
                    time.sleep(0.2)
                    write_addresses_file(
                        hosts, [_address(initial), _address(extra)]
                    )

                editor = threading.Thread(target=grow_fleet)
                editor.start()
                try:
                    result = TrialEngine(backend=backend).run(
                        bernoulli_trial, trials=120, seed=2
                    )
                finally:
                    editor.join()
                assert result == reference
                assert backend.stats["workers_joined"] == 1
                assert len(backend.live_workers()) == 2
        finally:
            initial.stop()
            extra.stop()

    def test_serve_announce_cli_round_trip(self):
        """`repro worker serve --announce` end-to-end: the subprocess
        announces its bound address and retires itself on SIGTERM."""
        with MembershipRegistry() as registry:
            joined, left = _announce_then_terminate(registry)
        assert left == joined  # clean shutdown retired the address

    def test_sigterm_before_the_announce_reply_still_retires(self):
        """The registry records the join, then takes 0.5 s to reply; a
        SIGTERM inside that window must wait for the reply and retire,
        or the driver strikes a worker that left cleanly."""

        class SlowReplyRegistry(MembershipRegistry):
            def announce(self, worker):
                reply = super().announce(worker)
                time.sleep(0.5)
                return reply

        with SlowReplyRegistry() as registry:
            joined, left = _announce_then_terminate(registry)
        assert left == joined

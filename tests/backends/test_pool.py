"""The worker-pool launcher and the clean-shutdown contract.

Two halves:

- :class:`~repro.backends.pool.WorkerPool` must stand up real
  ``repro worker serve`` subprocesses in one call, announce usable
  addresses, and tear everything down on exit (including via SIGTERM) —
  the regression target being PR 4's half-open-connection shutdown,
  where a killed worker left a connected client hanging forever.
- ``repro worker serve`` itself must turn SIGTERM/KeyboardInterrupt
  into a clean exit: accept loop down, listening socket closed, every
  open connection force-closed so a blocked client gets a typed framed
  error *immediately*.
"""

import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.backends.distributed import DistributedBackend
from repro.backends.faults import FaultSpec
from repro.backends.pool import WorkerPool, load_hosts_file
from repro.backends.worker import WorkerServer
from repro.backends.pool import _worker_environment
from repro.backends.wire import ProtocolError, recv_message, request
from repro.experiments.attack_kernels import CentralAttackBatch
from repro.experiments.engine import TrialEngine

#: What the spawned workers run: a production unit, since a worker process
#: decodes only the classes the package's own unit table names.
central_attack = CentralAttackBatch(0.4, 50)


def run_attack(engine, trials, seed):
    return engine.run_batched(
        central_attack, trials=trials, seed=seed, channels=2, batch_size=10
    )


@pytest.fixture(scope="module")
def pool():
    """One spawned 2-worker pool shared by the module (spawns are slow)."""
    with WorkerPool(workers=2) as pool:
        yield pool


class TestWorkerPool:
    def test_addresses_are_live_ephemeral_workers(self, pool):
        assert len(pool.addresses) == 2
        assert pool.poll() == [None, None]

    def test_engine_results_match_serial_through_the_pool(self, pool):
        reference = run_attack(TrialEngine(), trials=60, seed=9)
        with DistributedBackend(pool.addresses) as backend:
            result = run_attack(TrialEngine(backend=backend), trials=60, seed=9)
        assert result == reference

    def test_backend_owned_pool_spawns_and_reaps(self):
        reference = run_attack(TrialEngine(), trials=40, seed=3)
        backend = DistributedBackend(pool=2)
        with backend:
            owned = backend._pool
            assert len(backend.workers) == 2
            result = run_attack(TrialEngine(backend=backend), trials=40, seed=3)
        assert result == reference
        # close() stopped the owned pool and forgot the addresses.
        assert backend.workers == ()
        assert owned.poll() == []  # all processes reaped

    def test_hosts_file_round_trip(self, pool, tmp_path):
        hosts = tmp_path / "hosts.txt"
        hosts.write_text(
            "# my fleet\n"
            + "\n".join(pool.addresses)
            + "\n\n   # trailing comment\n"
        )
        assert load_hosts_file(hosts) == list(pool.addresses)

    def test_workers_and_pool_together_are_rejected(self):
        # Silently preferring one over the other would run the sweep on
        # fewer workers than the operator believes.
        with pytest.raises(ValueError, match="not both"):
            DistributedBackend(["h:1"], pool=2)
        with pytest.raises(SystemExit, match="not both"):
            from repro.cli import main

            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--backend",
                    "distributed",
                    "--workers",
                    "h:1",
                    "--pool",
                    "2",
                ]
            )

    @pytest.mark.parametrize("workers", [0, -1])
    def test_an_empty_pool_is_refused_before_anything_spawns(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            WorkerPool(workers=workers)

    def test_cli_pool_of_zero_workers_exits_instead_of_hanging(self):
        # An empty pool used to print a ready line with no address and
        # then wait forever for a worker death that could never come.
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "worker", "pool", "--workers", "0"],
            env=_worker_environment(),
            capture_output=True,
            text=True,
            timeout=20,
        )
        assert done.returncode != 0
        assert done.stdout == ""
        assert done.stderr == "--workers must be a positive integer, got '0'\n"

    def test_hosts_file_rejects_garbage_and_empty(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n\n")
        with pytest.raises(ValueError, match="names no workers"):
            load_hosts_file(empty)
        bad = tmp_path / "bad.txt"
        bad.write_text("localhost\n")
        with pytest.raises(ValueError, match="host:port"):
            load_hosts_file(bad)

    def test_write_addresses_file_is_atomic_and_round_trips(self, tmp_path):
        from repro.backends.pool import write_addresses_file

        path = tmp_path / "fleet.txt"
        write_addresses_file(path, ["a:1", "b:2"])
        assert load_hosts_file(path) == ["a:1", "b:2"]
        write_addresses_file(path, ["c:3"])
        assert load_hosts_file(path) == ["c:3"]
        # No temp-file droppings: the tmp + os.replace dance cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == ["fleet.txt"]

    def test_workers_at_file_tolerates_blanks_and_comments(self, tmp_path, pool):
        """Satellite regression: `--workers @FILE` must accept the same
        blank/comment lines `load_hosts_file` documents."""
        from repro.cli import main

        hosts = tmp_path / "fleet.txt"
        hosts.write_text(
            "# the fleet\n\n"
            + "\n".join(f"{address}  # spawned" for address in pool.addresses)
            + "\n   \n"
        )
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "smoke",
                    "--store",
                    str(tmp_path / "store"),
                    "--backend",
                    "distributed",
                    "--workers",
                    f"@{hosts}",
                ]
            )
            == 0
        )

    @pytest.mark.usefixtures("fast_fault_detection")
    def test_respawn_dead_replaces_the_process_within_budget(self):
        with WorkerPool(workers=2, fault_plan="0:kill@0", max_respawns=1) as pool:
            original = pool.addresses
            # Trip the scripted kill by asking worker 0 for a span.
            with DistributedBackend(pool.addresses, chunk_size=5) as backend:
                run_attack(TrialEngine(backend=backend), trials=60, seed=5)
            deadline = time.monotonic() + 10
            while pool.poll()[0] is None and time.monotonic() < deadline:
                time.sleep(0.1)
            assert pool.poll()[0] is not None
            replaced = pool.respawn_dead()
            assert len(replaced) == 1
            old_address, new_address = replaced[0]
            assert old_address == original[0]
            assert new_address != old_address
            assert pool.addresses == (new_address, original[1])
            assert pool.poll() == [None, None]  # both slots live again
            assert pool.respawns_used == 1
            # The budget is spent: another death cannot respawn.
            assert pool.respawn_dead() == []

    def test_respawn_on_a_healthy_pool_is_a_no_op(self, pool):
        assert pool.respawn_dead() == []

    @pytest.mark.usefixtures("fast_fault_detection")
    def test_fault_plan_reaches_the_spawned_worker(self):
        """A pool-scripted kill really terminates the worker *process*."""
        reference = run_attack(TrialEngine(), trials=60, seed=5)
        with WorkerPool(workers=2, fault_plan="0:kill@0") as pool:
            with DistributedBackend(pool.addresses, chunk_size=5) as backend:
                result = run_attack(TrialEngine(backend=backend), trials=60, seed=5)
                assert result == reference
                assert backend.stats["spans_requeued"] >= 1
            deadline = time.monotonic() + 10
            while pool.poll()[0] is None and time.monotonic() < deadline:
                time.sleep(0.1)
            codes = pool.poll()
        assert codes[0] is not None  # the victim process actually died
        assert codes[1] is None  # the survivor kept serving until stop()


class TestServeShutdown:
    """The satellite fix: no more half-open connections on shutdown."""

    def test_stop_unblocks_a_waiting_client_with_a_typed_error(self):
        # A slow fault holds our span; stopping the server mid-wait must
        # surface promptly as a framed-layer error, not a hang.
        server = WorkerServer(
            fault=FaultSpec("slow", after_spans=0, delay=30)
        ).serve_background()
        connection = socket.create_connection(server.address, timeout=30)
        try:
            assert request(connection, {"op": "hello"})["ok"]
            from repro.backends.wire import send_message

            send_message(
                connection,
                {"op": "run", "start": 0, "stop": 1},
            )
            time.sleep(0.2)  # let the handler enter its 30s sleep
            started = time.monotonic()
            server.stop()
            with pytest.raises(ProtocolError):
                reply = recv_message(connection)
                if reply is None:  # clean EOF is equally acceptable
                    raise ProtocolError("EOF")
            assert time.monotonic() - started < 5  # immediate, not 30s
        finally:
            connection.close()

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_process_exits_cleanly_and_closes_connections(self, signum):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "worker",
                "serve",
                "--bind",
                "127.0.0.1:0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=_worker_environment(),
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert "listening on" in line
            address = line.split("listening on ", 1)[1].split(" ")[0]
            host, port_text = address.rsplit(":", 1)
            connection = socket.create_connection((host, int(port_text)), timeout=10)
            try:
                assert request(connection, {"op": "ping"})["ok"]
                process.send_signal(signum)
                assert process.wait(timeout=10) == 0  # clean exit
                # Our connection was force-closed: EOF (or a reset),
                # never a hang on a half-open socket.
                connection.settimeout(5)
                try:
                    assert recv_message(connection) is None
                except (ProtocolError, OSError):
                    pass
            finally:
                connection.close()
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
            process.wait()
            process.stdout.close()

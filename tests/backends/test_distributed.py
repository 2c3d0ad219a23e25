"""The distributed backend and its wire protocol against live local workers.

Every test spins real :class:`~repro.backends.worker.WorkerServer`
instances on ephemeral loopback ports — the actual TCP path, not mocks —
and holds the backend to the same bar as every local executor: results
identical to the serial reference for any worker topology.
"""

import socket

import pytest

from repro.backends.distributed import DistributedBackend
from repro.backends.worker import WorkerServer
from repro.backends.wire import (
    PROTOCOL_VERSION,
    WORKER_ROLE,
    ProtocolError,
    decode_blob,
    encode_blob,
    parse_address,
    recv_message,
    request,
    send_message,
)
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import TrialTask
from trial_units import (
    bernoulli_trial,
    counting_batch,
    failing_batch,
    indexed_measure,
    paired_trial,
)


@pytest.fixture()
def worker():
    with WorkerServer() as server:
        yield server


@pytest.fixture()
def worker_pair():
    with WorkerServer() as one, WorkerServer() as two:
        yield one, two


def _address(server: WorkerServer) -> str:
    host, port = server.address
    return f"{host}:{port}"


class TestWire:
    def test_parse_address(self):
        assert parse_address("localhost:7070") == ("localhost", 7070)
        for bad in ("localhost", ":7070", "host:notaport", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_frame_round_trip_over_a_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"op": "ping", "payload": [1, 2, 3]})
            assert recv_message(b) == {"op": "ping", "payload": [1, 2, 3]}
            a.close()
            assert recv_message(b) is None  # clean EOF at a frame boundary
        finally:
            b.close()

    def test_torn_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff{\"tr")  # header promises 255 bytes
            a.close()
            with pytest.raises(ProtocolError):
                recv_message(b)
        finally:
            b.close()

    def test_hello_reports_role_and_protocol(self, worker):
        connection = socket.create_connection(worker.address, timeout=5)
        try:
            reply = request(connection, {"op": "hello"})
            assert reply["role"] == WORKER_ROLE
            assert reply["protocol"] == PROTOCOL_VERSION == 3
            assert "modes" not in reply  # the loaded task knows its kind
        finally:
            connection.close()

    def test_unknown_op_and_run_before_task_fail_cleanly(self, worker):
        connection = socket.create_connection(worker.address, timeout=5)
        try:
            with pytest.raises(RuntimeError, match="unknown op"):
                request(connection, {"op": "fly"})
            with pytest.raises(RuntimeError, match="no task loaded"):
                request(connection, {"op": "run", "start": 0, "stop": 1})
            # A decodable value that is not a TrialTask fails the load.
            with pytest.raises(RuntimeError, match="must encode a TrialTask"):
                request(connection, {"op": "task", "task": encode_blob([1])})
            # The connection survives all three failures.
            assert request(connection, {"op": "ping"})["ok"]
            assert worker.failures == 3
            # The loaded task decides what a span is: a stale ``mode``
            # field that disagrees with it is not read.
            task = TrialTask(seed=5, label="wire", indexed_trial=indexed_measure)
            request(connection, {"op": "task", "task": encode_blob(task)})
            reply = request(
                connection, {"op": "run", "mode": "counts", "start": 0, "stop": 3}
            )
            assert decode_blob(reply["result"]) == tuple(task.run_range(0, 3))
        finally:
            connection.close()


class TestDistributedDeterminism:
    """The contract: counts identical to serial for any worker topology."""

    def test_scalar_counts_match_serial(self, worker_pair):
        reference = TrialEngine().run(
            paired_trial, trials=101, seed=5, label="dist", channels=2
        )
        addresses = [_address(server) for server in worker_pair]
        with DistributedBackend(addresses) as backend:
            result = TrialEngine(backend=backend).run(
                paired_trial, trials=101, seed=5, label="dist", channels=2
            )
        assert result == reference

    def test_batches_match_serial_including_ragged_tail(self, worker):
        reference = TrialEngine().run_batched(
            counting_batch, trials=97, seed=23, label="vb", batch_size=10
        )
        with DistributedBackend([_address(worker)]) as backend:
            result = TrialEngine(backend=backend).run_batched(
                counting_batch, trials=97, seed=23, label="vb", batch_size=10
            )
        assert result == reference
        assert reference.trials == 97

    def test_collect_preserves_index_order(self, worker_pair):
        reference = TrialEngine().map(indexed_measure, trials=23, seed=3)
        addresses = [_address(server) for server in worker_pair]
        with DistributedBackend(addresses, chunk_size=4) as backend:
            values = TrialEngine(backend=backend).map(
                indexed_measure, trials=23, seed=3
            )
        assert values == reference

    def test_adaptive_stopping_identical_to_serial(self, worker):
        kwargs = dict(trials=1000, seed=21, label="tol")
        reference = TrialEngine(tolerance=0.05).run(bernoulli_trial, **kwargs)
        with DistributedBackend([_address(worker)]) as backend:
            result = TrialEngine(backend=backend, tolerance=0.05).run(
                bernoulli_trial, **kwargs
            )
        assert result == reference

    def test_chunk_size_never_observable(self, worker):
        reference = TrialEngine().run(bernoulli_trial, trials=50, seed=9)
        for chunk_size in (1, 7, 64):
            with DistributedBackend(
                [_address(worker)], chunk_size=chunk_size
            ) as backend:
                result = TrialEngine(backend=backend).run(
                    bernoulli_trial, trials=50, seed=9
                )
            assert result == reference, chunk_size

    def test_one_connection_set_across_many_engine_runs(self, worker):
        with DistributedBackend([_address(worker)]) as backend:
            engine = TrialEngine(backend=backend)
            results = [
                engine.run(bernoulli_trial, trials=40, seed=seed)
                for seed in (1, 2, 3)
            ]
        assert results == [
            TrialEngine().run(bernoulli_trial, trials=40, seed=seed)
            for seed in (1, 2, 3)
        ]


class TestDistributedFailureModes:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(ValueError, match="at least one worker"):
            DistributedBackend([])

    def test_unreachable_worker_is_a_connection_error(self):
        # An ephemeral port bound then closed: nothing listens there.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        backend = DistributedBackend([f"127.0.0.1:{port}"])
        with pytest.raises(ConnectionError, match="cannot reach worker"):
            backend.open()

    def test_worker_side_exception_propagates_with_remote_traceback(self, worker):
        with DistributedBackend([_address(worker)]) as backend:
            engine = TrialEngine(backend=backend)
            with pytest.raises(RuntimeError, match="injected batch failure") as info:
                engine.run_batched(
                    failing_batch, trials=40, seed=1, batch_size=10
                )
            # The remote stack rides along — the only clue when a task
            # fails off-host.
            assert "remote traceback" in str(info.value)
            assert "run_batch_range" in str(info.value)  # the worker's stack
            # The connection is still usable for the next task.
            good = engine.run_batched(
                counting_batch, trials=40, seed=1, batch_size=10
            )
        assert good == TrialEngine().run_batched(
            counting_batch, trials=40, seed=1, batch_size=10
        )

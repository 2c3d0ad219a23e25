"""Wire-protocol edge cases: malformed peers must produce *typed* errors.

A distributed client talks to sockets it does not control; every way a
peer can misbehave at the frame layer — truncated length prefixes,
absurd frame sizes, undecodable payloads, silence — must surface as a
:class:`~repro.backends.wire.ProtocolError` (or its
:class:`~repro.backends.wire.WireTimeout` subclass) within a bounded
time, never as a hang or a raw decode exception.  The server side gets
the mirror-image treatment: garbage on a connection drops that
connection, nothing more — and a hostile ``task`` (a pickle, a name
outside the unit table, wrong fields) is refused, never executed.
"""

import base64
import errno
import importlib
import json
import pickle
import socket
import struct
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.distributed import DistributedBackend
from repro.backends.membership import REGISTRY_ROLE, _describe_occupant, announce_worker
from repro.backends.wire import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SERVICE_ROLE,
    UNITS,
    WORKER_ROLE,
    ProtocolError,
    WireTimeout,
    decode_blob,
    encode_blob,
    handshake,
    parse_address,
    probe_worker,
    recv_message,
    request,
    send_message,
)
from repro.backends.worker import WorkerServer
from repro.experiments.executors import TrialTask
from repro.service.client import submit_job
from trial_units import bernoulli_trial


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    try:
        yield a, b
    finally:
        a.close()
        b.close()


@pytest.fixture()
def worker():
    with WorkerServer() as server:
        yield server


def _frame(body: bytes) -> bytes:
    return struct.pack(">I", len(body)) + body


class TestClientSideEdges:
    def test_truncated_length_prefix_is_a_protocol_error(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00")  # half a header
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(b)

    def test_truncated_body_is_a_protocol_error(self, pair):
        a, b = pair
        a.sendall(_frame(b'{"op": "ping"}')[:-4])
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(b)

    def test_oversized_frame_is_refused_without_allocating(self, pair):
        a, b = pair
        a.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(b)

    def test_garbage_json_is_a_protocol_error(self, pair):
        a, b = pair
        a.sendall(_frame(b"\xff\xfenot json at all"))
        with pytest.raises(ProtocolError, match="undecodable"):
            recv_message(b)

    def test_non_object_json_is_a_protocol_error(self, pair):
        a, b = pair
        a.sendall(_frame(json.dumps([1, 2, 3]).encode()))
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_message(b)

    def test_silent_peer_times_out_within_the_idle_window(self, pair):
        a, b = pair
        started = time.monotonic()
        with pytest.raises(WireTimeout, match="no data"):
            recv_message(b, idle_timeout=0.2)
        assert time.monotonic() - started < 2.0

    def test_stall_mid_frame_times_out_within_the_idle_window(self, pair):
        a, b = pair
        a.sendall(b"\x00\x00\x00\xff")  # header promises 255 bytes, then silence
        started = time.monotonic()
        with pytest.raises(WireTimeout):
            recv_message(b, idle_timeout=0.2)
        assert time.monotonic() - started < 2.0

    def test_idle_hook_keeps_a_trickling_frame_alive(self, pair):
        """Partial frames survive idle windows — bytes are never lost."""
        a, b = pair
        payload = _frame(b'{"ok": true}')
        idles = []

        import threading

        def dribble():
            for index in range(0, len(payload), 4):
                a.sendall(payload[index : index + 4])
                time.sleep(0.05)

        feeder = threading.Thread(target=dribble, daemon=True)
        feeder.start()
        reply = recv_message(b, idle_timeout=0.02, on_idle=lambda: idles.append(1))
        feeder.join()
        assert reply == {"ok": True}
        assert idles  # the line did go quiet between dribbles

    def test_request_timeout_is_a_wire_timeout(self, pair):
        a, b = pair
        started = time.monotonic()
        with pytest.raises(WireTimeout, match="timed out"):
            request(b, {"op": "ping"}, timeout=0.2)
        assert time.monotonic() - started < 2.0
        # The socket's timeout was restored afterwards.
        assert b.gettimeout() is None

    def test_wire_timeout_is_retryable_transport_failure(self):
        # The retry logic in DistributedBackend keys on this hierarchy.
        assert issubclass(WireTimeout, ProtocolError)
        assert issubclass(ProtocolError, ConnectionError)


class TestServerSideEdges:
    def test_garbage_bytes_drop_the_connection_but_not_the_server(self, worker):
        rogue = socket.create_connection(worker.address, timeout=5)
        try:
            rogue.sendall(b"\xde\xad\xbe\xef" * 8)
            # The worker drops the torn connection: EOF back to us, or —
            # when it closes with our bytes unread before we shut down —
            # a reset.  Any other error (a recv timeout has no errno)
            # means it did not drop, and fails.
            try:
                rogue.shutdown(socket.SHUT_WR)
                assert rogue.recv(1) == b""
            except OSError as error:
                assert error.errno in (errno.ENOTCONN, errno.ECONNRESET)
        finally:
            rogue.close()
        # ...and keeps serving new ones.
        fresh = socket.create_connection(worker.address, timeout=5)
        try:
            assert request(fresh, {"op": "ping"})["ok"]
        finally:
            fresh.close()

    def test_oversized_frame_header_drops_the_connection(self, worker):
        rogue = socket.create_connection(worker.address, timeout=5)
        try:
            rogue.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            assert rogue.recv(1) == b""
        finally:
            rogue.close()

    def test_probe_worker_heartbeat(self, worker):
        host, port = worker.address
        assert probe_worker(host, port, timeout=2.0)
        # A port nothing listens on: dead within the timeout, not a hang.
        spare = socket.socket()
        spare.bind(("127.0.0.1", 0))
        dead_port = spare.getsockname()[1]
        spare.close()
        started = time.monotonic()
        assert not probe_worker("127.0.0.1", dead_port, timeout=0.5)
        assert time.monotonic() - started < 3.0

    def test_probe_worker_rejects_a_non_worker_service(self):
        """Something listening that is not a repro worker: not alive."""
        impostor = socket.create_server(("127.0.0.1", 0))
        host, port = impostor.getsockname()

        def accept_and_garbage():
            connection, _ = impostor.accept()
            with connection:
                connection.recv(64)
                connection.sendall(_frame(b"[]"))  # valid JSON, wrong shape

        thread = threading.Thread(target=accept_and_garbage, daemon=True)
        thread.start()
        try:
            assert not probe_worker(host, port, timeout=1.0)
        finally:
            impostor.close()
            thread.join(timeout=2)


class _CreatesFile:
    """Pickles to a payload whose unpickling would create ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def _unit(name, **fields):
    return json.dumps({"unit": name, "fields": fields})


_ATTACK_FIELDS = {"malicious_rate": 0.2}

#: ``task`` fields a worker must refuse, each with ``ok: false``.
HOSTILE_TASKS = {
    "a name outside the table": _unit("system", command="touch owned"),
    "a table name given with another module": json.dumps(
        {
            "unit": "CentralAttackBatch",
            "module": "os",
            "fields": {**_ATTACK_FIELDS, "population_size": 100},
        }
    ),
    "a qualified name": _unit("os.system", command="true"),
    "a missing field": _unit("CentralAttackBatch", **_ATTACK_FIELDS),
    "an extra field": _unit(
        "CentralAttackBatch", **_ATTACK_FIELDS, population_size=100, command="true"
    ),
    "a non-object": json.dumps([1, 2, 3]),
    "a bare object, not codec text": {"unit": "TrialTask", "fields": {}},
    "a unit that is not a task": _unit("NodeJointScheme", replication=2, path_length=3),
}


class TestHostilePeer:
    """A ``task`` op builds registered units or nothing: no code runs."""

    TASK = TrialTask(seed=4, label="after", trial=bernoulli_trial)

    def _still_serves(self, connection):
        request(connection, {"op": "task", "task": encode_blob(self.TASK)})
        reply = request(connection, {"op": "run", "start": 0, "stop": 30})
        assert decode_blob(reply["result"]) == tuple(self.TASK.run_range(0, 30))

    def test_a_pickle_is_refused_and_runs_nothing(self, worker, tmp_path):
        target = tmp_path / "owned"
        blob = base64.b64encode(pickle.dumps(_CreatesFile(target))).decode("ascii")
        with socket.create_connection(worker.address, timeout=5) as connection:
            with pytest.raises(RuntimeError, match="worker failed 'task'"):
                request(connection, {"op": "task", "task": blob})
            assert not target.exists()
            self._still_serves(connection)
        assert worker.failures == 1

    @pytest.mark.parametrize("case", sorted(HOSTILE_TASKS))
    def test_a_hostile_task_is_refused_and_the_connection_serves_on(
        self, worker, case
    ):
        with socket.create_connection(worker.address, timeout=5) as connection:
            with pytest.raises(RuntimeError, match="worker failed 'task'"):
                request(connection, {"op": "task", "task": HOSTILE_TASKS[case]})
            self._still_serves(connection)
        assert worker.failures == 1


_NAMES = st.sampled_from(sorted(UNITS) + ["system", "os.system", "eval"])
_FIELD_NAMES = st.sampled_from(
    ["seed", "label", "scheme", "replication", "path_length", "malicious_rate",
     "population_size", "rate", "trial", "command"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**63), 2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=12)
)
_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=3)
        | st.fixed_dictionaries(
            {
                "unit": _NAMES,
                "fields": st.dictionaries(_FIELD_NAMES, children, max_size=4),
            }
        )
    ),
    max_leaves=16,
)


@given(_DOCUMENTS)
def test_decoding_any_json_returns_or_refuses_and_imports_only_the_table(document):
    for module in set(UNITS.values()):
        importlib.import_module(module)  # what a decode may legitimately load
    before = set(sys.modules)
    try:
        decode_blob(json.dumps(document))
    except (ValueError, TypeError):
        pass
    assert set(sys.modules) == before


class StalePeer:
    """A server of one role that says ``hello`` at another protocol version.

    Every op it is sent lands in ``ops``, so a test can assert the client
    hung up before sending it any work.
    """

    def __init__(self, role, protocol=PROTOCOL_VERSION - 1):
        self.hello = {"ok": True, "role": role, "protocol": protocol}
        self.ops = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)  # so _serve notices _stop
        self._stop = threading.Event()
        self.address = "%s:%d" % self._listener.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                connection, _ = self._listener.accept()
            except socket.timeout:
                continue
            with connection:
                connection.settimeout(5)
                while (message := recv_message(connection)) is not None:
                    self.ops.append(message["op"])
                    reply = self.hello if message["op"] == "hello" else {"ok": True}
                    send_message(connection, reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()
        self._listener.close()


class TestHandshake:
    """A peer on another wire protocol is refused at connect, for every role."""

    def test_stale_worker_is_refused_before_any_task_frame(self):
        with StalePeer(WORKER_ROLE) as peer:
            backend = DistributedBackend([peer.address])
            with pytest.raises(ConnectionError) as info:
                backend.open()
        message = str(info.value)  # names the address and both versions
        assert message.startswith(f"{peer.address} is not a repro worker")
        assert f"on wire protocol {PROTOCOL_VERSION} " in message
        assert message.endswith(f"protocol {PROTOCOL_VERSION - 1})")
        assert peer.ops == ["hello"]

    def test_stale_registry_is_refused_before_any_announce_frame(self):
        with StalePeer(REGISTRY_ROLE) as peer:
            assert not announce_worker(peer.address, "127.0.0.1:1")
            assert _describe_occupant(*parse_address(peer.address)) is None
        assert peer.ops == ["hello", "hello"]

    def test_stale_service_is_refused_before_any_submit_frame(self):
        with StalePeer(SERVICE_ROLE) as peer:
            with pytest.raises(ConnectionError, match="not a repro sweep service on"):
                submit_job(peer.address, "smoke", timeout=5)
        assert peer.ops == ["hello"]

    def test_same_version_wrong_role_names_both_roles(self):
        with StalePeer(REGISTRY_ROLE, protocol=PROTOCOL_VERSION) as peer:
            address = parse_address(peer.address)
            with socket.create_connection(address, timeout=5) as sock:
                with pytest.raises(
                    ConnectionError, match="not a repro worker .*role 'repro-registry'"
                ):
                    handshake(sock, WORKER_ROLE)
                # ...and the matching role at the matching version passes.
                assert handshake(sock, REGISTRY_ROLE)["protocol"] == PROTOCOL_VERSION

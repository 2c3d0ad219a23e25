"""Wire-protocol edge cases: malformed peers must produce *typed* errors.

A distributed client talks to sockets it does not control; every way a
peer can misbehave at the frame layer — truncated length prefixes,
absurd frame sizes, undecodable payloads, silence — must surface as a
:class:`~repro.backends.wire.ProtocolError` (or its
:class:`~repro.backends.wire.WireTimeout` subclass) within a bounded
time, never as a hang or a raw decode exception.  The server side gets
the mirror-image treatment: garbage on a connection drops that
connection, nothing more.
"""

import errno
import json
import socket
import struct
import time

import pytest

from repro.backends import WorkerServer, probe_worker
from repro.backends.wire import (
    MAX_FRAME_BYTES,
    ProtocolError,
    WireTimeout,
    recv_message,
    request,
)


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

        import threading

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

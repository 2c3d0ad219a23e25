"""Dynamic worker membership: the announce registry and the hosts watcher.

PR 5 froze a sweep's worker fleet at :meth:`DistributedBackend.open`
time; this module is the membership half of the elastic topology that
lets workers join and leave a *running* sweep.  Two complementary
channels feed the backend's admission sweep (see
:meth:`~repro.backends.distributed.DistributedBackend` — it polls both
between spans and adopts changes without interrupting dispatch):

- :class:`MembershipRegistry` — a driver-side TCP endpoint speaking the
  same length-prefixed JSON frames as the span protocol
  (:mod:`repro.backends.wire`), with two extra ops:

  ========== ============================== ==========================
  op          request fields                 reply
  ========== ============================== ==========================
  ``announce`` ``worker`` (``host:port``)    ``ok``, ``accepted``
  ``retire``   ``worker`` (``host:port``)    ``ok``
  ========== ============================== ==========================

  A worker started with ``repro worker serve --announce HOST:PORT``
  announces its own bound address here (retrying until the driver's
  registry is up, since the sweep may still be starting); a clean
  shutdown sends ``retire`` so the driver drains the departing worker
  instead of striking it.  Announced addresses are heartbeat-probed
  before acceptance — the registry never feeds the backend an address
  that cannot answer a ping — and the design deliberately follows the
  lightning gossip shape: an announcement is *an address plus proof of
  liveness*, and stale/duplicate announcements are idempotently
  dropped, not errors.

- :class:`HostsFileWatcher` — the low-tech path: point the backend at
  the same ``host:port``-per-line file ``--workers @FILE`` reads, and
  edits to it (atomic writes — see
  :func:`repro.backends.pool.write_addresses_file`) become join/leave
  events on the next poll.  This is also the one respawn path: ``repro
  worker pool --respawn K --addresses-file FILE`` rewrites the file when
  it relaunches a dead worker, which reads as a leave plus a join.  Torn
  or momentarily invalid file states are treated as "no change", never
  as a mass departure.

Both channels produce the same thing: ``(joined, left)`` address
batches, drained by the backend under its own admission cadence.  By
the determinism contract membership can never change results — per-span
counts are pure functions of ``(task, span)`` — so joining a worker
mid-sweep only ever changes wall time.
"""

from __future__ import annotations

import errno
import os
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import Callable, List, Optional, Set, Tuple

from repro.backends import distributed
from repro.backends.wire import (
    PROTOCOL_VERSION,
    handshake,
    parse_address,
    probe_worker,
    recv_message,
    request,
    send_message,
)

#: The role string the registry's ``hello`` reply carries, so an
#: announcing worker can tell a driver registry from an unrelated
#: service (or from a span worker) on the same port.
REGISTRY_ROLE = "repro-registry"


class RegistryBusyError(ConnectionError):
    """Another live driver's registry already owns this announce address.

    Raised instead of the raw ``EADDRINUSE`` when the occupant answers a
    ``hello`` with :data:`REGISTRY_ROLE` — two drivers binding the same
    ``--announce-bind`` would split the announcing workers between them
    undefined-ly, so the second one refuses cleanly, naming the live
    driver (its pid when it reports one) so the operator knows *which*
    sweep holds the fleet.
    """


class _RegistryHandler(socketserver.BaseRequestHandler):
    """One announce/retire conversation until EOF; mirrors the worker loop."""

    def handle(self) -> None:
        while True:
            try:
                message = recv_message(self.request)
            except (ConnectionError, OSError):
                return
            if message is None:
                return
            op = message.get("op")
            if op == "hello":
                reply = {
                    "ok": True,
                    "role": REGISTRY_ROLE,
                    "protocol": PROTOCOL_VERSION,
                    # The owning driver's pid: what a refused second
                    # driver reports in its RegistryBusyError.
                    "pid": os.getpid(),
                }
            elif op == "ping":
                reply = {"ok": True}
            elif op == "announce":
                reply = self.server.announce(message.get("worker"))
            elif op == "retire":
                reply = self.server.retire(message.get("worker"))
            else:
                reply = {"ok": False, "error": f"unknown op {op!r}"}
            try:
                send_message(self.request, reply)
            except OSError:  # pragma: no cover - peer vanished mid-reply
                return


class MembershipRegistry(socketserver.ThreadingTCPServer):
    """The driver-side announce endpoint of an elastic sweep.

    Owned by a :class:`~repro.backends.distributed.DistributedBackend`
    built with ``announce_bind=...`` (started in ``open``, stopped in
    ``close``); runs its accept loop on a daemon thread and queues
    join/leave events that :meth:`poll` drains.  Announcements are
    validated (``host:port`` shape) and heartbeat-pinged (within the
    backend's :data:`~repro.backends.distributed.PING_TIMEOUT`) before
    acceptance, so a typo'd or already-dead announcement is refused at
    the door with ``accepted: false`` instead of poisoning the span queue.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        try:
            super().__init__((host, port), _RegistryHandler)
        except OSError as error:
            if error.errno != errno.EADDRINUSE:
                raise
            occupant = _describe_occupant(host, port)
            if occupant is not None:
                raise RegistryBusyError(
                    f"announce address {host}:{port} is already owned by a "
                    f"live driver registry"
                    + (
                        f" (pid {occupant['pid']})"
                        if occupant.get("pid") is not None
                        else ""
                    )
                    + " — a fleet answers to one driver at a time; pick "
                    "another --announce-bind or stop that sweep"
                ) from error
            raise
        self._lock = threading.Lock()
        self._joined: List[str] = []
        self._left: List[str] = []
        self._thread: Optional[threading.Thread] = None
        self._loop_started = threading.Event()
        self._stopping = False
        #: How long stop() waits on the accept loop before abandoning it
        #: and closing the socket out from under it anyway.
        self._stop_timeout = 5.0

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound ``(host, port)`` — resolves ``port=0``."""
        host, port = self.server_address[:2]
        return host, port

    # -- the two membership ops -------------------------------------------

    def announce(self, worker: object) -> dict:
        try:
            host, port = parse_address(str(worker))
        except ValueError as error:
            # Refusal, not protocol failure: the announcer learns its
            # address was rejected instead of seeing a raised error.
            return {"ok": True, "accepted": False, "error": str(error)}
        address = f"{host}:{port}"
        if not probe_worker(host, port, timeout=distributed.PING_TIMEOUT):
            # Refused at the door: an address that cannot answer a ping
            # now would only burn strikes in the dispatch later.
            return {"ok": True, "accepted": False, "error": "worker not answering pings"}
        with self._lock:
            if address not in self._joined:
                self._joined.append(address)
        return {"ok": True, "accepted": True}

    def retire(self, worker: object) -> dict:
        try:
            host, port = parse_address(str(worker))
        except ValueError as error:
            return {"ok": False, "error": str(error)}
        with self._lock:
            self._left.append(f"{host}:{port}")
        return {"ok": True}

    def poll(self) -> Tuple[List[str], List[str]]:
        """Drain pending membership events as ``(joined, left)`` addresses."""
        with self._lock:
            joined, self._joined = self._joined, []
            left, self._left = self._left, []
        return joined, left

    # -- lifecycle ---------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        self._loop_started.set()
        try:
            super().serve_forever(poll_interval=poll_interval)
        except OSError:
            # The listening socket closed under the accept loop: only
            # legitimate when stop() forced it after a wedged shutdown.
            if not self._stopping:
                raise

    def service_actions(self) -> None:
        # Runs once per accept-loop iteration.  After stop() closes the
        # socket out from under a wedged loop, poll() reports the stale
        # fd invalid every pass — without this exit the orphaned thread
        # would spin on it forever.
        if self._stopping and self.socket.fileno() == -1:
            raise OSError("listening socket closed by stop()")

    def start(self) -> "MembershipRegistry":
        """Run the accept loop on a daemon thread; idempotent."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                kwargs={"poll_interval": 0.1},
                name=f"repro-registry-{self.address[1]}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the accept loop and *always* release the listening socket.

        ``shutdown()`` blocks on an event ``serve_forever`` sets on exit,
        so it is (a) skipped when the loop never ran and (b) bounded by a
        helper thread — a wedged accept loop must not turn stop() into a
        hang.  Whatever the loop thread does, ``server_close()`` runs:
        the port is released even when the thread outlives its 5s join
        (the orphaned loop then dies on the closed socket, which
        :meth:`serve_forever` swallows as part of stopping).
        """
        self._stopping = True
        thread, self._thread = self._thread, None
        if thread is not None:
            if self._loop_started.wait(timeout=1):
                waiter = threading.Thread(target=self.shutdown, daemon=True)
                waiter.start()
                waiter.join(timeout=self._stop_timeout)
            thread.join(timeout=self._stop_timeout)
        self.server_close()

    def __enter__(self) -> "MembershipRegistry":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def _describe_occupant(
    host: str, port: int, timeout: float = 2.0
) -> Optional[dict]:
    """Who is listening on a bind address we failed to take?

    A ``hello`` round trip: a reply carrying :data:`REGISTRY_ROLE` means
    a live driver registry owns the port (returns its hello payload, pid
    included when it reports one); anything else — unreachable, wrong
    role, not speaking the protocol — returns ``None`` and the caller
    surfaces the original bind error.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            return handshake(sock, REGISTRY_ROLE)
    except (OSError, ConnectionError, RuntimeError, ValueError):
        return None


def _registry_request(
    registry_address: str, payload: dict, timeout: float = 5.0
) -> dict:
    """One framed round trip to a driver registry, role-checked."""
    host, port = parse_address(registry_address)
    with socket.create_connection((host, port), timeout=timeout) as sock:
        handshake(sock, REGISTRY_ROLE)
        return request(sock, payload)


def resolve_announced_address(
    bound_host: str, bound_port: int, registry_address: str
) -> str:
    """The address a worker should announce as its own.

    A worker bound to a wildcard interface (``0.0.0.0`` / ``::``) has no
    single address to announce; the interface it reaches the registry
    through is, by construction, one the driver can dial back on.
    """
    if bound_host not in ("0.0.0.0", "::", ""):
        return f"{bound_host}:{bound_port}"
    host, port = parse_address(registry_address)
    with socket.create_connection((host, port), timeout=5.0) as sock:
        return f"{sock.getsockname()[0]}:{bound_port}"


def announce_worker(
    registry_address: str,
    worker_address: str,
    timeout: float = 5.0,
    retry_seconds: float = 0.0,
    retry_interval: float = 0.5,
    stop: Optional[threading.Event] = None,
) -> bool:
    """Announce ``worker_address`` to a driver registry; ``True`` if accepted.

    With ``retry_seconds``, keeps retrying connection failures for that
    long — the normal path for a replacement worker started *before* the
    driver's registry is listening (e.g. the CI chaos job races a
    replacement against the sweep's startup).  A reachable registry that
    *refuses* the announcement (probe failed, malformed address) is
    terminal: retrying would not change the answer.  Once ``stop`` is
    set, no new attempt starts (one already sent still gets its answer).
    """
    stop = stop or threading.Event()
    deadline = time.monotonic() + retry_seconds
    while not stop.is_set():
        try:
            reply = _registry_request(
                registry_address,
                {"op": "announce", "worker": worker_address},
                timeout=timeout,
            )
            return bool(reply.get("accepted"))
        except (OSError, ConnectionError):
            if time.monotonic() >= deadline:
                return False
            stop.wait(retry_interval)
    return False


def retire_worker(
    registry_address: str, worker_address: str, timeout: float = 2.0
) -> bool:
    """Best-effort clean departure; ``False`` if the registry is gone."""
    try:
        return bool(
            _registry_request(
                registry_address,
                {"op": "retire", "worker": worker_address},
                timeout=timeout,
            ).get("ok")
        )
    except (OSError, ConnectionError):
        return False


class HostsFileWatcher:
    """Join/leave events from edits to a ``host:port``-per-line file.

    The low-tech membership channel: the operator (or ``repro worker
    pool --addresses-file``, which rewrites the file atomically on
    respawn) edits the same file ``--workers @FILE`` reads, and the
    backend's admission sweep turns the diff into membership changes.
    ``poll`` is cheap — an ``mtime`` check — and deliberately failure-
    deaf: an unreadable, empty, or torn file is "no change", because a
    transient file state must never read as a mass worker departure.
    """

    def __init__(self, path, initial: Tuple[str, ...] = ()) -> None:
        self.path = Path(path)
        self._snapshot: Set[str] = set(initial)
        self._mtime: Optional[float] = None
        try:
            self._mtime = self.path.stat().st_mtime_ns
        except OSError:
            pass

    def poll(self) -> Tuple[List[str], List[str]]:
        """``(joined, left)`` since the last poll (empty when unchanged)."""
        try:
            mtime = self.path.stat().st_mtime_ns
        except OSError:
            return [], []
        if mtime == self._mtime:
            return [], []
        self._mtime = mtime
        from repro.backends.pool import load_hosts_file

        try:
            current = set(load_hosts_file(self.path))
        except (OSError, ValueError):
            return [], []
        joined = sorted(current - self._snapshot)
        left = sorted(self._snapshot - current)
        self._snapshot = current
        return joined, left

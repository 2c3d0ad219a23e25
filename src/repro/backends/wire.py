"""Length-prefixed JSON framing for the distributed sweep protocol.

One frame = a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON.  JSON keeps the protocol inspectable (tcpdump a
sweep and read it).

**Tasks as data.**  A :class:`~repro.experiments.executors.TrialTask` and
a span's result cross a process boundary — to a fork-pool child or to a
TCP worker — one way only: :func:`encode_blob` / :func:`decode_blob`, a
JSON text in which every object is ``{"unit": name, "fields": {...}}``
for a class named in :data:`UNITS`.  Decoding builds those classes and
nothing else, so a peer on the worker port can hand a worker wrong
numbers, never code to run.

The message vocabulary (``protocol`` version :data:`PROTOCOL_VERSION`):

========== =============================================== =======================
op          request fields                                  reply
========== =============================================== =======================
``hello``   —                                               ``role``, ``protocol``
``ping``    —                                               ``ok``
``task``    ``task`` (:func:`encode_blob` of a              ``ok``
            ``TrialTask``)
``run``     ``start``, ``stop`` (half-open span of the      ``result``
            task loaded on this connection)                 (:func:`encode_blob`
                                                            of the span's
                                                            ``run_range``)
``stats``   —                                               ``stats`` (a metrics
                                                            registry snapshot —
                                                            op counts, per-mode
                                                            service times)
``cancel``  —                                               ``ok``, ``cancelled``
                                                            (in-flight spans
                                                            told to abandon)
========== =============================================== =======================

Version 2 dropped the ``mode`` field of ``run`` (and ``modes`` from the
``hello`` reply): the loaded task is one kind of work and says which, so
a request cannot disagree with it.  Version 3 made the task and the span
result codec text, one ``result`` field for every kind of task.
``stats`` and ``cancel`` are additive — a worker that predates them
replies ``ok: false``, which :func:`fetch_worker_stats` and
:func:`cancel_worker` fold into ``None``.

``cancel`` is the cooperative mid-span drain primitive: it bumps the
worker's cancel generation, and every running span (they check between
sub-slices) replies ``ok: true, cancelled: true`` instead of its counts.
The driver requeues a cancelled span verbatim — abandoning is not a
failure — so a draining or deadline-struck worker hands its work back in
milliseconds instead of holding the drain hostage to the span's runtime.

Every reply carries ``ok``; failures carry ``ok: false`` plus ``error``.
Workers compute spans with the exact same ``TrialTask.run_range`` the
local executors use, so per-trial streams — a pure function of
``(seed, label, index)`` — are identical on any machine.

The driver-side membership registry (:mod:`repro.backends.membership`)
speaks the same framing with two additional ops — ``announce`` and
``retire``, each carrying a ``worker`` (``"host:port"``) field — and
identifies itself with its own ``role`` in the ``hello`` reply, so a
worker pointed at the wrong port fails the handshake instead of
misbehaving silently.

**Liveness.**  Three primitives let a client distinguish a *slow* worker
from a *dead* one instead of blocking forever:

- ``timeout=`` on :func:`request` bounds the whole round trip
  (:class:`WireTimeout` on expiry);
- ``idle_timeout=`` on :func:`recv_message`/:func:`request` bounds the
  gap *between bytes* — partial frames survive the wait, so a reply that
  trickles in over many idle windows still arrives intact — and invokes
  the ``on_idle`` hook each time the line goes quiet (return to keep
  waiting, raise to abandon the connection);
- :func:`probe_worker` is the heartbeat: one fresh short-lived
  connection, one ``ping`` frame.  The worker serves connections on
  independent threads, so a ping answers even while every other
  connection is busy computing a span — if the ping fails, the process
  (or the route to it) is gone, not just busy.
"""

from __future__ import annotations

import functools
import importlib
import json
import select
import socket
import struct
from typing import Any, Callable, Dict, FrozenSet, Optional

#: Bumped on incompatible message-vocabulary changes; :func:`handshake` checks it.
PROTOCOL_VERSION = 3

#: Every class a task or span result may carry, by name → defining module:
#: the engine units the scenario kinds build, the values nested in them,
#: and ``TrialTask`` itself.  Decoding resolves a name through this table
#: alone and imports a module only when the table names it.
UNITS: Dict[str, str] = {
    "TrialTask": "repro.experiments.executors",
    "AdaptiveTrial": "repro.scenarios.runners",
    "MultipathAttackBatch": "repro.experiments.attack_kernels",
    "CentralAttackBatch": "repro.experiments.attack_kernels",
    "EpochAvailabilityBatch": "repro.epoch.measure",
    "EpochTimelinessBatch": "repro.epoch.measure",
    "TimelinessTrial": "repro.experiments.timeliness",
    "NodeDisjointScheme": "repro.core.schemes.disjoint",
    "NodeJointScheme": "repro.core.schemes.joint",
}

#: The server role strings ``hello`` replies carry, so a client can tell a
#: repro worker from the sweep-service daemon (``repro serve``) or some
#: unrelated service listening on the same port.
WORKER_ROLE = "repro-worker"
SERVICE_ROLE = "repro-sweep-service"

_HEADER = struct.Struct(">I")

#: Refuse absurd frames instead of allocating them: no legitimate message
#: (even a long collect-mode span result) approaches 256 MiB.
MAX_FRAME_BYTES = 1 << 28


class ProtocolError(ConnectionError):
    """A malformed or out-of-contract frame on a worker connection."""


class WireTimeout(ProtocolError):
    """A bounded wait on a worker connection expired.

    Subclasses :class:`ProtocolError` (and therefore
    :class:`ConnectionError`) on purpose: to a fault-tolerant caller a
    timeout is just another retryable transport failure.
    """


def send_message(sock: socket.socket, payload: Dict[str, Any]) -> None:
    """Send one framed JSON message."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(body)) + body)


def _recv_exact(
    sock: socket.socket,
    count: int,
    idle_timeout: Optional[float] = None,
    on_idle: Optional[Callable[[], None]] = None,
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on a clean EOF at a frame
    boundary, :class:`ProtocolError` on EOF mid-frame.

    With ``idle_timeout``, waits for readability in ``idle_timeout``-sized
    windows instead of blocking in ``recv`` — partially read frames are
    preserved across windows.  Each idle window calls ``on_idle`` (which
    may raise to abandon the wait); without a hook, an idle window raises
    :class:`WireTimeout`.
    """
    chunks = []
    remaining = count
    while remaining:
        if idle_timeout is not None:
            readable, _, _ = select.select([sock], [], [], idle_timeout)
            if not readable:
                if on_idle is None:
                    raise WireTimeout(
                        f"no data on worker connection for {idle_timeout}s "
                        f"({count - remaining} of {count} bytes read)"
                    )
                on_idle()
                continue
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(
    sock: socket.socket,
    idle_timeout: Optional[float] = None,
    on_idle: Optional[Callable[[], None]] = None,
) -> Optional[Dict[str, Any]]:
    """Receive one framed JSON message; ``None`` on clean connection close."""
    header = _recv_exact(sock, _HEADER.size, idle_timeout, on_idle)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    body = _recv_exact(sock, length, idle_timeout, on_idle) if length else b""
    if length and body is None:  # pragma: no cover - EOF between header/body
        raise ProtocolError("connection closed between frame header and body")
    try:
        payload = json.loads((body or b"").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def encode_blob(value: Any) -> str:
    """``value`` as codec text: how a task or span result leaves a process.

    ``None``, bools, numbers and strings pass through; lists and tuples
    become arrays; an instance of a :data:`UNITS` class becomes
    ``{"unit": name, "fields": {...}}`` — its dataclass fields, or its
    attributes for the scheme classes, whose attributes are exactly their
    constructor arguments.  Anything else raises :class:`TypeError`.
    """
    return json.dumps(_to_data(value), separators=(",", ":"))


def decode_blob(text: str) -> Any:
    """The value :func:`encode_blob` wrote, with arrays back as tuples.

    A unit is rebuilt only if the table names it and its fields are
    exactly its constructor's; any other text raises :class:`ValueError`
    or :class:`TypeError`.
    """
    return _from_data(json.loads(text))


def _to_data(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_to_data(item) for item in value]
    kind = type(value)
    if UNITS.get(kind.__name__) != kind.__module__:
        raise TypeError(
            f"{kind.__module__}.{kind.__qualname__} cannot cross a process "
            "boundary: only the classes in repro.backends.wire.UNITS can "
            "(run an ad-hoc callable on the 'serial' backend)"
        )
    import dataclasses  # not at import: `repro jobs` never encodes

    if dataclasses.is_dataclass(value):
        fields = {
            field.name: getattr(value, field.name)
            for field in dataclasses.fields(value)
        }
    else:
        fields = vars(value)
    return {
        "unit": kind.__name__,
        "fields": {name: _to_data(item) for name, item in fields.items()},
    }


def _from_data(data: Any) -> Any:
    if isinstance(data, list):
        return tuple(_from_data(item) for item in data)
    if not isinstance(data, dict):
        return data
    if data.keys() != {"unit", "fields"} or not isinstance(data["fields"], dict):
        raise ValueError(
            f"an object must be {{'unit': name, 'fields': {{...}}}}, "
            f"got keys {sorted(data)}"
        )
    name, fields = data["unit"], data["fields"]
    if not isinstance(name, str) or name not in UNITS:
        raise ValueError(f"unknown unit {name!r}")
    kind = getattr(importlib.import_module(UNITS[name]), name)
    expected = _parameters(kind)
    if fields.keys() != expected:
        raise TypeError(
            f"{name} takes fields {sorted(expected)}, got {sorted(fields)}"
        )
    return kind(**{field: _from_data(item) for field, item in fields.items()})


@functools.lru_cache(maxsize=None)
def _parameters(kind: type) -> FrozenSet[str]:
    import inspect

    return frozenset(inspect.signature(kind).parameters)


def request(
    sock: socket.socket,
    payload: Dict[str, Any],
    timeout: Optional[float] = None,
    idle_timeout: Optional[float] = None,
    on_idle: Optional[Callable[[], None]] = None,
) -> Dict[str, Any]:
    """One round trip; raises on connection loss or an error reply.

    ``timeout`` bounds the whole round trip via the socket timeout
    (restored afterwards); ``idle_timeout``/``on_idle`` bound the gap
    between reply bytes — see :func:`recv_message`.  Both expiries raise
    :class:`WireTimeout`.
    """
    if timeout is not None:
        previous = sock.gettimeout()
        sock.settimeout(timeout)
    try:
        try:
            send_message(sock, payload)
            reply = recv_message(sock, idle_timeout, on_idle)
        except socket.timeout as error:
            # Either direction: a stalled send (peer accepted but never
            # reads) and a stalled reply are the same typed failure.  The
            # expiry may come from a timeout already set on the socket
            # (e.g. the connect-phase hello) rather than our parameter.
            effective = timeout if timeout is not None else sock.gettimeout()
            raise WireTimeout(
                f"worker round trip for {payload.get('op')!r} timed out "
                f"after {effective}s"
            ) from error
    finally:
        if timeout is not None:
            sock.settimeout(previous)
    if reply is None:
        raise ProtocolError(
            f"worker closed the connection during {payload.get('op')!r}"
        )
    if not reply.get("ok"):
        message = (
            f"worker failed {payload.get('op')!r}: "
            f"{reply.get('error', 'unknown error')}"
        )
        remote_traceback = reply.get("traceback")
        if remote_traceback:
            # The remote stack is the only clue when a task fails off-host
            # (version skew, missing module on a worker) — keep it.
            message += f"\nremote traceback:\n{remote_traceback}"
        raise RuntimeError(message)
    return reply


def handshake(sock: socket.socket, role: str) -> Dict[str, Any]:
    """The client half of ``hello``; returns the peer's reply.

    A peer of another role or :data:`PROTOCOL_VERSION` is refused here, at
    connect, not mid-sweep on a frame it no longer understands.
    """
    hello = request(sock, {"op": "hello"})
    if (hello.get("role"), hello.get("protocol")) != (role, PROTOCOL_VERSION):
        host, port = sock.getpeername()[:2]
        raise ConnectionError(
            f"{host}:{port} is not a {role.replace('-', ' ')} on wire protocol "
            f"{PROTOCOL_VERSION} (its hello says role {hello.get('role')!r}, "
            f"protocol {hello.get('protocol')!r})"
        )
    return hello


async def send_message_async(writer, payload: Dict[str, Any]) -> None:
    """Send one framed JSON message on an :mod:`asyncio` stream.

    The exact same frame bytes as :func:`send_message` — the sweep
    service daemon and the synchronous clients/workers interoperate on
    one wire format by construction, not by parallel implementations.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    writer.write(_HEADER.pack(len(body)) + body)
    await writer.drain()


async def recv_message_async(reader) -> Optional[Dict[str, Any]]:
    """Receive one framed JSON message from an :mod:`asyncio` stream.

    ``None`` on a clean EOF at a frame boundary; :class:`ProtocolError`
    on EOF mid-frame, oversized frames, and undecodable bodies — the
    same contract as :func:`recv_message`, minus the idle hooks (an
    asyncio caller bounds waits with ``asyncio.wait_for`` instead).
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{_HEADER.size} bytes read)"
        ) from error
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError as error:
        raise ProtocolError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{length} bytes read)"
        ) from error
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def parse_address(address: str) -> tuple:
    """``"host:port"`` → ``(host, port)``; a clear error otherwise."""
    host, separator, port_text = address.rpartition(":")
    if not separator or not host:
        raise ValueError(
            f"worker address must be 'host:port', got {address!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"worker address must be 'host:port', got {address!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"worker port out of range in {address!r}")
    return host, port


def probe_worker(host: str, port: int, timeout: float = 2.0) -> bool:
    """The heartbeat: can the worker answer a ``ping`` right now?

    Opens a fresh, short-lived connection so the probe never competes
    with an in-flight span on the persistent one; the threaded worker
    answers it even while every other connection is busy computing.
    ``False`` means the process is unreachable or not speaking the
    protocol — a *busy* worker still returns ``True``.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            return bool(request(sock, {"op": "ping"}).get("ok"))
    except (OSError, ProtocolError, RuntimeError):
        return False


def cancel_worker(
    host: str, port: int, timeout: float = 2.0
) -> Optional[int]:
    """Tell a worker to abandon its in-flight spans (the ``cancel`` op).

    Fresh short-lived connection, like :func:`probe_worker` — the
    persistent connection is busy carrying the very span being
    cancelled.  Returns how many spans were in flight when the cancel
    landed, or ``None`` on any failure (unreachable worker, or one
    predating the op) — cancellation is best-effort by design: a worker
    that misses it just finishes the span, which the driver then ignores
    or requeues exactly as before cancellation existed.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            reply = request(sock, {"op": "cancel"})
    except (OSError, ProtocolError, RuntimeError):
        return None
    value = reply.get("cancelled")
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def fetch_worker_stats(
    host: str, port: int, timeout: float = 2.0
) -> Optional[Dict[str, Any]]:
    """Fetch one worker's telemetry snapshot (the ``stats`` op).

    Same fresh-connection discipline as :func:`probe_worker`: telemetry
    collection happens at sweep close, when the persistent connection may
    already be torn down or wedged — and it must never be able to wedge
    the close.  ``None`` on any failure (unreachable, pre-``stats``
    worker, malformed reply); telemetry is a side channel, so callers
    treat ``None`` as "nothing to merge", never as an error.
    """
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            snapshot = request(sock, {"op": "stats"}).get("stats")
    except (OSError, ProtocolError, RuntimeError):
        return None
    return snapshot if isinstance(snapshot, dict) else None

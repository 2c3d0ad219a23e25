"""Synchronous client for the sweep service (``repro jobs ...``).

Plain blocking sockets over the shared wire framing — the CLI, the API
façade, and tests talk to the asyncio daemon through these helpers.
Every connection opens with :func:`~repro.backends.wire.handshake` for the
:data:`~repro.backends.wire.SERVICE_ROLE`, so a client pointed at a worker or
registry port, or at a stale daemon, gets a clear error, not confusing frames.
Nothing here imports the daemon, so ``repro jobs ...`` never loads the
scenario registry or the numerical stack.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Optional

from repro.backends.wire import (
    SERVICE_ROLE,
    ProtocolError,
    handshake,
    parse_address,
    recv_message,
    request,
    send_message,
)

#: Default bound on any single service round trip.
DEFAULT_TIMEOUT = 10.0


def _connect(address: str, timeout: float) -> socket.socket:
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        handshake(sock, SERVICE_ROLE)
    except BaseException:
        sock.close()
        raise
    return sock


def service_request(
    address: str, payload: Dict[str, Any], timeout: float = DEFAULT_TIMEOUT
) -> Dict[str, Any]:
    """One role-checked round trip to a sweep service."""
    with _connect(address, timeout) as sock:
        return request(sock, payload)


def submit_job(
    address: str,
    scenario: str,
    trials: Optional[int] = None,
    tolerance: Optional[float] = None,
    batch_size: Optional[int] = None,
    force: bool = False,
    timeout: float = DEFAULT_TIMEOUT,
) -> Dict[str, Any]:
    """Submit one sweep; returns the accept reply (``job``, ``points``)."""
    payload: Dict[str, Any] = {"op": "submit", "scenario": scenario}
    if trials is not None:
        payload["trials"] = trials
    if tolerance is not None:
        payload["tolerance"] = tolerance
    if batch_size is not None:
        payload["batch_size"] = batch_size
    if force:
        payload["force"] = True
    return service_request(address, payload, timeout=timeout)


def job_status(
    address: str,
    job: Optional[str] = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> Dict[str, Any]:
    """One job's status dict, or (without ``job``) the whole table."""
    payload: Dict[str, Any] = {"op": "status"}
    if job is not None:
        payload["job"] = job
    return service_request(address, payload, timeout=timeout)


def cancel_job(
    address: str, job: str, timeout: float = DEFAULT_TIMEOUT
) -> Dict[str, Any]:
    return service_request(
        address, {"op": "cancel", "job": job}, timeout=timeout
    )


def service_stats(
    address: str, timeout: float = DEFAULT_TIMEOUT
) -> Dict[str, Any]:
    return service_request(address, {"op": "stats"}, timeout=timeout)


def shutdown_service(
    address: str, timeout: float = DEFAULT_TIMEOUT
) -> Dict[str, Any]:
    """Ask the daemon to drain and exit (the ``shutdown`` op)."""
    return service_request(address, {"op": "shutdown"}, timeout=timeout)


def watch_job(
    address: str,
    job: str,
    after: int = 0,
    on_frame: Optional[Callable[[Dict[str, Any]], None]] = None,
    timeout: Optional[float] = None,
    connect_timeout: float = DEFAULT_TIMEOUT,
) -> Dict[str, Any]:
    """Follow a job's progress stream to its end; returns the final status.

    ``on_frame`` receives each progress frame as it arrives (one per
    finished point — what the CLI renders as its per-point lines).
    ``after`` resumes mid-stream: frames with ``seq < after`` were
    already seen and are not resent.  ``timeout`` bounds the wait for
    *each* frame (``None`` waits as long as the job runs).
    """
    with _connect(address, connect_timeout) as sock:
        sock.settimeout(timeout)
        send_message(sock, {"op": "watch", "job": job, "after": after})
        while True:
            reply = recv_message(sock)
            if reply is None:
                raise ProtocolError(
                    f"service closed the watch stream for job {job!r}"
                )
            if not reply.get("ok"):
                raise RuntimeError(
                    f"watch failed: {reply.get('error', 'unknown error')}"
                )
            if reply.get("done"):
                return reply["job"]
            frame = reply.get("frame")
            if frame is not None and on_frame is not None:
                on_frame(frame)

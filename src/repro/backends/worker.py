"""The distributed sweep worker: a TCP server that executes trial spans.

``repro worker serve --bind host:port`` runs one of these next to the
data — any machine with the same codebase on ``PYTHONPATH``.  The
orchestrator side (:class:`~repro.backends.distributed.DistributedBackend`)
connects, ships the encoded :class:`~repro.experiments.executors.TrialTask`
once per engine run, then streams span requests naming only ``start`` and
``stop``; the worker executes each span through the loaded task's own
:meth:`~repro.experiments.executors.TrialTask.run_range` — the *same*
kernels every local executor uses — so per-trial random streams — a pure
function of ``(seed, label, index)`` — are identical across machines and
the determinism contract survives the network hop.

Connections are stateful (one current task per connection) and served one
per thread, so several orchestrators — or several concurrent span threads
of one — can share a worker, and a heartbeat ``ping`` on a fresh
connection answers even while every other connection is busy computing.
A task arrives as data (:func:`~repro.backends.wire.decode_blob`): the
worker builds only the unit classes in :data:`~repro.backends.wire.UNITS`
and refuses anything else with ``ok: false``, so a peer on the port can
make it compute, never run code of the peer's choosing.  Nothing
authenticates a peer yet — one can still feed a driver wrong counts — so
bind it only on interfaces you control (the default is loopback).

**Cancellation.**  Spans execute as ~8 sub-slices with a cooperative
cancel check between each (additive merging keeps results byte-identical
— see :func:`_execute_span`).  The ``cancel`` op bumps a server-wide
generation counter; every in-flight span notices within a sub-slice and
replies ``cancelled: true`` instead of computing the rest, and the
driver requeues it.  This is what lets a draining or deadline-struck
worker hand back a running span in milliseconds.

**Shutdown.**  Open connections are tracked, and every stop path —
:meth:`WorkerServer.stop`, ``SIGTERM``/``Ctrl-C`` on the foreground
:func:`serve` loop — force-closes them after the accept loop exits, so a
client blocked on a reply observes EOF (a typed
:class:`~repro.backends.wire.ProtocolError` at the frame layer)
immediately instead of hanging on a half-open socket.

**Fault injection.**  A server built with a
:class:`~repro.backends.faults.FaultSpec` applies it at the scripted
point in its span stream (see :mod:`repro.backends.faults`):
:meth:`die` is the abrupt worker death (``os._exit`` in a real process,
close-everything in-process), :meth:`wedge` the silent hang.  This is
how the chaos tests and the CI chaos job script "kill worker 1 after 2
spans" deterministically.
"""

from __future__ import annotations

import os
import signal
import socket
import socketserver
import threading
import time
import traceback
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.backends.faults import FaultInjector, FaultSpec
from repro.backends.wire import (
    PROTOCOL_VERSION,
    WORKER_ROLE,
    ProtocolError,
    decode_blob,
    encode_blob,
    recv_message,
    send_message,
)
from repro.experiments.executors import TrialTask
from repro.obs.metrics import MetricsRegistry

#: Ops counted under their own name; anything else lands in
#: ``ops.unknown`` so a misbehaving client cannot mint metric names.
_COUNTED_OPS = ("hello", "ping", "task", "run", "stats", "cancel")

#: How long a ``hang`` fault holds its wedged connection open when the
#: spec does not say (long enough that only liveness probing detects it).
_DEFAULT_HANG_SECONDS = 60.0

#: Cancellation checks per span: each span is executed in roughly this
#: many sub-slices, checking the cancel generation between them.  A
#: task's ranges are additive over *any* disjoint partition (per-trial
#: streams are pure functions of ``(seed, label, index)``), so
#: sub-slicing is invisible in results; it just bounds how long a cancel
#: can go unnoticed to ~1/8 of the span.
_CANCEL_CHECKS = 8


def _execute_span(
    task: TrialTask, start: int, stop: int, should_abandon: Callable[[], bool]
) -> Dict[str, Any]:
    """Run one span of the loaded task; JSON-safe reply.

    The span runs as ~:data:`_CANCEL_CHECKS` sub-slices with a
    cancellation check between each; a fired check abandons the rest and
    replies ``cancelled: true`` — the client requeues the span, so
    abandoning is always safe.  Sub-slice results go through the same
    ``task.merge`` the distributed driver merges spans with, so a span
    that is *not* cancelled returns bytes identical to a single-shot run.
    """
    step = max(1, -(-(stop - start) // _CANCEL_CHECKS))
    parts = []
    for low in range(start, stop, step):
        if should_abandon():
            return {"ok": True, "cancelled": True}
        parts.append(task.run_range(low, min(low + step, stop)))
    return {"ok": True, "result": encode_blob(task.merge(parts))}


def _cancellable_sleep(
    delay: float, should_abandon: Any, step: float = 0.02
) -> bool:
    """Sleep ``delay`` seconds unless cancelled; False means abandoned.

    The ``slow`` fault's sleep must be drain-cancellable too, or a chaos
    worker scripted slow would hold a drain hostage for the very latency
    the test injected.
    """
    deadline = time.monotonic() + max(0.0, delay)
    while True:
        if should_abandon():
            return False
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return True
        time.sleep(min(step, remaining))


class _WorkerHandler(socketserver.BaseRequestHandler):
    """One connection: a hello/task/run conversation until EOF."""

    def handle(self) -> None:
        task: Optional[TrialTask] = None
        while True:
            try:
                message = recv_message(self.request)
            except (ProtocolError, OSError):
                # Garbage, a torn frame, or our own shutdown closing the
                # socket under us: drop the connection.
                return
            if message is None:
                return
            op = message.get("op")
            metrics = self.server.metrics
            metrics.counter(
                f"ops.{op if op in _COUNTED_OPS else 'unknown'}"
            ).inc()
            try:
                if op == "hello":
                    reply: Dict[str, Any] = {
                        "ok": True,
                        "role": WORKER_ROLE,
                        "protocol": PROTOCOL_VERSION,
                    }
                elif op == "ping":
                    reply = {"ok": True}
                elif op == "task":
                    loaded = decode_blob(message["task"])
                    if not isinstance(loaded, TrialTask):
                        raise TypeError(
                            "task must encode a TrialTask, got "
                            f"{type(loaded).__name__}"
                        )
                    task = loaded
                    reply = {"ok": True}
                elif op == "stats":
                    reply = {"ok": True, "stats": metrics.snapshot()}
                elif op == "cancel":
                    # Cooperative mid-span drain: bump the generation so
                    # every in-flight span (they check between
                    # sub-slices) abandons and replies cancelled.
                    reply = {"ok": True, "cancelled": self.server.cancel_spans()}
                elif op == "run":
                    fault = self.server.take_fault()
                    if fault is not None and fault.kind != "slow":
                        # The faulted span is never executed nor answered:
                        # the client must recover it on another worker.
                        if fault.kind == "drop":
                            return
                        if fault.kind == "kill":
                            self.server.die()
                            return
                        # hang: stop accepting (heartbeats now fail) and
                        # hold this connection open, silently.
                        self.server.wedge()
                        time.sleep(fault.delay or _DEFAULT_HANG_SECONDS)
                        return
                    # Any cancel arriving after this point abandons the
                    # span; one arriving before only affects older spans.
                    generation = self.server.cancel_generation

                    def abandoned() -> bool:
                        return self.server.cancel_generation != generation

                    self.server.span_begun()
                    try:
                        if fault is not None and not _cancellable_sleep(
                            fault.delay, abandoned
                        ):
                            # slow: late but correct — unless drained away.
                            reply = {"ok": True, "cancelled": True}
                        else:
                            if task is None:
                                raise RuntimeError(
                                    "no task loaded on this connection "
                                    "(send op=task first)"
                                )
                            start = int(message["start"])
                            stop = int(message["stop"])
                            began = time.perf_counter()
                            reply = _execute_span(task, start, stop, abandoned)
                            if not reply.get("cancelled"):
                                # Only completed spans record service time.
                                metrics.histogram(
                                    f"service_seconds.{task.mode}"
                                ).observe(time.perf_counter() - began)
                                metrics.counter(f"units.{task.mode}").inc(
                                    max(0, stop - start)
                                )
                    finally:
                        self.server.span_ended()
                    if reply.get("cancelled"):
                        metrics.counter("spans_cancelled").inc()
                else:
                    raise ValueError(f"unknown op {op!r}")
            except Exception as error:  # noqa: BLE001 - reply, don't die
                self.server.record_failure()
                metrics.counter("errors").inc()
                reply = {
                    "ok": False,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(),
                }
            try:
                send_message(self.request, reply)
            except OSError:  # pragma: no cover - client vanished mid-reply
                return


class WorkerServer(socketserver.ThreadingTCPServer):
    """A threaded trial-span server with an inspectable lifecycle.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports
    the bound ``(host, port)`` either way.  :meth:`serve_background`
    starts the accept loop on a daemon thread and returns, which is how
    the in-process cross-backend tests and the CLI's foreground
    :func:`serve` both drive it.  ``fault`` scripts this worker's
    failure (see :mod:`repro.backends.faults`); ``exit_on_kill`` makes a
    ``kill`` fault a genuine ``os._exit`` — the CLI's subprocess mode.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault: Optional[FaultSpec] = None,
        exit_on_kill: bool = False,
    ) -> None:
        super().__init__((host, port), _WorkerHandler)
        self._thread: Optional[threading.Thread] = None
        #: Worker-side telemetry: op counts, per-mode service-time
        #: histograms, units executed.  Served whole by the ``stats`` op
        #: and merged into the driver's registry at sweep close.
        self.metrics = MetricsRegistry()
        self._failures = 0
        self._failures_lock = threading.Lock()
        self._injector = FaultInjector(fault) if fault is not None else None
        self._exit_on_kill = exit_on_kill
        self._connections: Set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._loop_started = False
        self._dying = False
        self._wedged = False
        self._cancel_lock = threading.Lock()
        self._cancel_generation = 0
        self._active_spans = 0

    @property
    def address(self) -> Tuple[str, int]:
        """The actually-bound (host, port) — resolves ``port=0``."""
        host, port = self.server_address[:2]
        return host, port

    def record_failure(self) -> None:
        with self._failures_lock:
            self._failures += 1

    @property
    def failures(self) -> int:
        """Requests answered with ``ok: false`` since startup."""
        with self._failures_lock:
            return self._failures

    # -- connection bookkeeping -------------------------------------------

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def _close_connections(self) -> None:
        """Force-close every open connection so blocked peers see EOF."""
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                connection.close()
            except OSError:
                pass

    # -- cooperative cancellation -------------------------------------------

    @property
    def cancel_generation(self) -> int:
        """The current cancel epoch; spans capture it at start and abandon
        when it moves."""
        with self._cancel_lock:
            return self._cancel_generation

    def cancel_spans(self) -> int:
        """Abandon every in-flight span (the ``cancel`` op).

        Server-wide by design: a drain or deadline cancel means "stop
        working for anyone, now" — a span belonging to another driver
        sharing this worker simply requeues on *its* driver, which is
        always safe.  Returns how many spans were in flight.
        """
        with self._cancel_lock:
            self._cancel_generation += 1
            return self._active_spans

    def span_begun(self) -> None:
        with self._cancel_lock:
            self._active_spans += 1

    def span_ended(self) -> None:
        with self._cancel_lock:
            self._active_spans -= 1

    # -- fault application --------------------------------------------------

    def take_fault(self) -> Optional[FaultSpec]:
        """Count one ``run`` request against the fault plan (handler hook)."""
        if self._injector is None:
            return None
        return self._injector.on_span()

    @property
    def spans_served(self) -> int:
        """``run`` requests seen so far (0 without a fault injector)."""
        return 0 if self._injector is None else self._injector.spans_seen

    def die(self) -> None:
        """Abrupt worker death — the ``kill`` fault.

        In ``exit_on_kill`` mode (a real ``repro worker serve`` process)
        the process exits without any cleanup; in-process servers emulate
        that by tearing down the accept loop, the listening socket, and
        every open connection at once.  Either way clients observe EOF
        mid-conversation and reconnects are refused.
        """
        if self._exit_on_kill:
            print("repro worker: injected kill, exiting", flush=True)
            os._exit(1)
        self._dying = True
        self._stop_loop()
        self.server_close()
        self._close_connections()

    def wedge(self) -> None:
        """Stop accepting without touching open connections — the hang.

        Existing conversations go silent (the wedged handler never
        replies) and new connections — including heartbeat probes — are
        refused, which is exactly the signature of a stuck process.
        """
        self._wedged = True
        self.server_close()

    # -- lifecycle -----------------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.1) -> None:
        self._loop_started = True
        try:
            super().serve_forever(poll_interval=poll_interval)
        except OSError:
            # The listening socket vanished under the accept loop: only
            # legitimate when a fault (die/wedge) closed it on purpose.
            if not (self._dying or self._wedged):
                raise

    def _stop_loop(self) -> None:
        # shutdown() blocks on an event serve_forever() sets on exit —
        # calling it when the loop never ran would wait forever.
        if self._loop_started:
            self.shutdown()

    def serve_background(self) -> "WorkerServer":
        """Start the accept loop on a daemon thread; idempotent."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name=f"repro-worker-{self.address[1]}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down: accept loop, listening socket, open connections."""
        self._stop_loop()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self.server_close()
        self._close_connections()

    def __enter__(self) -> "WorkerServer":
        return self.serve_background()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


#: How long ``--announce`` keeps retrying an unreachable driver registry.
#: A replacement worker is routinely started *before* (or racing) the
#: sweep whose registry it joins — the CI chaos job does exactly that —
#: so a refused connection means "keep trying", not "give up".
_ANNOUNCE_RETRY_SECONDS = 60.0

#: How long shutdown waits for an announce request already on the wire
#: (its own timeout): the registry may have recorded the join before
#: replying, and a recorded join must be retired, not struck.
_ANNOUNCE_SETTLE_SECONDS = 5.0


def serve(
    host: str,
    port: int,
    fault: Optional[FaultSpec] = None,
    announce: Optional[str] = None,
) -> None:
    """Run a worker in the foreground until interrupted (the CLI path).

    ``SIGTERM`` and ``Ctrl-C`` both shut down cleanly: the accept loop
    exits, the listening socket and every open connection close (blocked
    clients get an immediate EOF, not a half-open hang), and the process
    returns 0.

    ``announce`` names a driver-side
    :class:`~repro.backends.membership.MembershipRegistry`
    (``"host:port"``): the worker announces its own bound address there
    from a background thread — retrying while the driver is still
    starting — and retires itself on clean shutdown so the driver drains
    it instead of striking it.
    """
    server = WorkerServer(host, port, fault=fault, exit_on_kill=True)
    bound_host, bound_port = server.address
    suffix = f", fault {fault.describe()}" if fault is not None else ""
    print(
        f"repro worker listening on {bound_host}:{bound_port} "
        f"(protocol {PROTOCOL_VERSION}{suffix})",
        flush=True,
    )

    announced_as: Optional[str] = None
    stopping = threading.Event()
    announcer: Optional[threading.Thread] = None
    if announce is not None:
        from repro.backends.membership import (
            announce_worker,
            resolve_announced_address,
        )

        def _announce() -> None:
            nonlocal announced_as
            try:
                own_address = resolve_announced_address(
                    bound_host, bound_port, announce
                )
            except (OSError, ValueError):
                own_address = f"{bound_host}:{bound_port}"
            if announce_worker(
                announce,
                own_address,
                retry_seconds=_ANNOUNCE_RETRY_SECONDS,
                stop=stopping,
            ):
                announced_as = own_address
                print(
                    f"repro worker announced {own_address} to {announce}",
                    flush=True,
                )
            elif not stopping.is_set():
                print(
                    f"repro worker: announce to {announce} not accepted",
                    flush=True,
                )

        announcer = threading.Thread(
            target=_announce, name="repro-announce", daemon=True
        )
        announcer.start()

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    previous_handler = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro worker: shutting down", flush=True)
    finally:
        signal.signal(signal.SIGTERM, previous_handler)
        server.server_close()
        server._close_connections()
        if announcer is not None:
            # End the retry loop, but let a request already sent answer:
            # deciding on ``announced_as`` before it does would leave a
            # join the registry recorded never retired.
            stopping.set()
            announcer.join(timeout=_ANNOUNCE_SETTLE_SECONDS)
        if announced_as is not None:
            from repro.backends.membership import retire_worker

            retire_worker(announce, announced_as)

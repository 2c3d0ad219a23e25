"""The ``repro serve`` daemon: sweep jobs over TCP, one shared fleet.

:class:`SweepService` is a long-running asyncio server speaking the
repository's length-prefixed JSON framing (:mod:`repro.backends.wire` —
the same bytes-on-the-wire as the worker and registry protocols, via the
``*_async`` twins).  Clients submit sweep requests and the service runs
them as concurrent *jobs* over one execution backend and one result
store, fair-sharing points across jobs and deduplicating overlapping
work through the content-addressed store (see
:mod:`repro.service.scheduler`).

The message vocabulary (all replies carry ``ok``):

============ ================================================ ======================
op            request fields                                   reply
============ ================================================ ======================
``hello``     —                                                ``role``, ``protocol``,
                                                               ``pid``
``ping``      —                                                ``ok``
``submit``    ``scenario`` (registered name), optional         ``job``, ``points``
              ``trials``/``tolerance``/``batch_size``/
              ``force``; any other field is refused
``status``    optional ``job``                                 ``job`` dict, or
                                                               ``jobs`` list
``watch``     ``job``, optional ``after`` (frame seq)          a stream: one frame
                                                               per finished point,
                                                               then ``done`` + the
                                                               final ``job`` dict
``cancel``    ``job``                                          ``status``
``stats``     —                                                ``stats`` (service
                                                               counters), ``jobs``
``shutdown``  —                                                ``ok`` (daemon then
                                                               drains and exits)
============ ================================================ ======================

Shutdown — the op, ``SIGTERM``/``SIGINT`` in the foreground CLI, or
:meth:`ServiceHandle.stop` — drains: the listener closes, the point in
flight finishes and persists, every remaining point of every job is
cancelled, watchers receive their final frames, and the backend closes.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Dict, Optional, Tuple, Union

from repro.backends.base import BackendSpec
from repro.backends.registry import get as get_backend
from repro.backends.wire import (
    PROTOCOL_VERSION,
    SERVICE_ROLE,
    ProtocolError,
    recv_message_async,
    send_message_async,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import coerce_tracer
from repro.scenarios.orchestrator import resolve_entries
from repro.scenarios.registry import get_scenario
from repro.scenarios.store import ResultStore
from repro.service.jobs import Job, JobTable
from repro.service.scheduler import JobScheduler

#: Every field a ``submit`` request may carry.
_SUBMIT_FIELDS = {"op", "scenario", "trials", "tolerance", "batch_size", "force"}


class SweepService:
    """The sweep-service daemon: accept jobs, schedule them, stream progress.

    Parameters
    ----------
    store:
        The result store every job reads and writes — a path or a
        :class:`ResultStore`.  One store per daemon; jobs share it, and
        the dedup guarantees hold within it.
    host, port:
        The listen address; port 0 picks an ephemeral port (the bound
        address lands in :attr:`address` once serving).
    jobs, backend:
        The execution substrate, with the same semantics as a CLI sweep
        (``jobs`` sugar, or an explicit backend spec — e.g. distributed
        with a worker pool).  The daemon owns ONE backend for its whole
        lifetime; every job's points run through it.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; the scheduler records
        one ``service.job`` span per served point plus job lifecycle
        events.  A pure side channel, as everywhere else.
    """

    def __init__(
        self,
        store: Union[str, ResultStore],
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: Optional[int] = None,
        backend: Union[str, BackendSpec, None] = None,
        tracer: Any = None,
    ) -> None:
        self.store = (
            store if isinstance(store, ResultStore) else ResultStore(store)
        )
        self.host = host
        self.port = port
        self.jobs = jobs
        self.backend = backend
        self.tracer = coerce_tracer(tracer)
        self.metrics = MetricsRegistry()
        self.table = JobTable()
        self.scheduler: Optional[JobScheduler] = None
        #: The actually-bound ``(host, port)`` once serving.
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None

    # -- lifecycle ---------------------------------------------------------

    async def serve(self, ready: Optional[threading.Event] = None) -> None:
        """Run the daemon until shutdown; returns after the drain."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self.table.condition = asyncio.Condition()
        self._install_signal_handlers()
        executor = get_backend(self.backend, jobs=self.jobs)
        if self.tracer.enabled and hasattr(executor, "tracer"):
            executor.tracer = self.tracer
        self.scheduler = JobScheduler(
            self.store,
            executor,
            self.table,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        with executor:
            server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.address = server.sockets[0].getsockname()[:2]
            scheduler_task = asyncio.create_task(self.scheduler.run())
            if ready is not None:
                ready.set()
            try:
                await self._shutdown.wait()
            finally:
                # Drain: no new connections, no new points — the point
                # in flight finishes (and persists), the rest cancel.
                server.close()
                await server.wait_closed()
                self.scheduler.request_stop()
                await scheduler_task

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (signal handlers, handles, tests)."""
        loop, shutdown = self._loop, self._shutdown
        if loop is None or shutdown is None:
            return
        try:
            loop.call_soon_threadsafe(shutdown.set)
        except RuntimeError:
            pass  # loop already closed — the daemon is gone

    def serve_background(self) -> "ServiceHandle":
        """Run the daemon on a background thread; returns once it listens.

        The returned :class:`ServiceHandle` carries the bound address
        and stops the daemon on ``stop()`` (or context-manager exit) —
        how tests and embedding callers own a service without blocking.
        """
        ready = threading.Event()
        failure: list = []

        def runner() -> None:
            try:
                asyncio.run(self.serve(ready))
            except BaseException as error:  # noqa: BLE001 - surfaced via handle
                failure.append(error)
                ready.set()

        thread = threading.Thread(
            target=runner, name="repro-sweep-service", daemon=True
        )
        thread.start()
        ready.wait()
        if failure:
            raise failure[0]
        return ServiceHandle(self, thread)

    def _install_signal_handlers(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return
        import signal

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self._shutdown.set
                )
            except (NotImplementedError, RuntimeError, ValueError):
                return  # platform without loop signal support

    # -- the wire protocol -------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    message = await recv_message_async(reader)
                except ProtocolError:
                    break
                if message is None:
                    break
                op = message.get("op")
                if op == "watch":
                    if not await self._op_watch(writer, message):
                        break
                    continue
                reply = self._dispatch(op, message)
                await send_message_async(writer, reply)
                if op == "shutdown" and reply.get("ok"):
                    self._shutdown.set()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, op: Any, message: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if op == "hello":
                return {
                    "ok": True,
                    "role": SERVICE_ROLE,
                    "protocol": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                }
            if op == "ping":
                return {"ok": True}
            if op == "submit":
                return self._op_submit(message)
            if op == "status":
                return self._op_status(message)
            if op == "cancel":
                return self._op_cancel(message)
            if op == "stats":
                return self._op_stats()
            if op == "shutdown":
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as error:  # noqa: BLE001 - protocol boundary
            return {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }

    def _op_submit(self, message: Dict[str, Any]) -> Dict[str, Any]:
        name = message.get("scenario")
        if not isinstance(name, str) or not name:
            return {"ok": False, "error": "submit needs a scenario name"}
        unknown = sorted(set(message) - _SUBMIT_FIELDS)
        if unknown:
            return {"ok": False, "error": f"submit does not take {unknown}"}
        try:
            spec = get_scenario(name)
        except ValueError as error:
            return {"ok": False, "error": str(error)}
        try:
            spec, trials, entries = resolve_entries(
                spec,
                trials=message.get("trials"),
                tolerance=message.get("tolerance"),
                batch_size=message.get("batch_size"),
            )
        except (TypeError, ValueError) as error:
            return {"ok": False, "error": str(error)}
        job = Job(
            self.table.next_id(),
            spec,
            trials,
            entries,
            force=bool(message.get("force", False)),
        )
        self.table.add(job)
        self.metrics.counter("service.jobs_submitted").inc()
        self.tracer.event(
            "service.job_submitted",
            job=job.id,
            scenario=spec.name,
            points=job.points,
        )
        self.scheduler.wake()
        return {
            "ok": True,
            "job": job.id,
            "scenario": spec.name,
            "points": job.points,
        }

    def _op_status(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job_id = message.get("job")
        if job_id is None:
            return {
                "ok": True,
                "jobs": [job.describe() for job in self.table.all()],
            }
        job = self.table.get(job_id)
        if job is None:
            return {"ok": False, "error": f"unknown job {job_id!r}"}
        return {"ok": True, "job": job.describe()}

    def _op_cancel(self, message: Dict[str, Any]) -> Dict[str, Any]:
        job = self.table.get(message.get("job"))
        if job is None:
            return {
                "ok": False,
                "error": f"unknown job {message.get('job')!r}",
            }
        if job.finished:
            return {"ok": True, "status": job.status, "cancelled": False}
        job.cancel_requested = True
        self.scheduler.wake()
        return {"ok": True, "status": job.status, "cancelled": True}

    def _op_stats(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "role": SERVICE_ROLE,
            "stats": self.metrics.counter_values("service.", strip=True),
            "jobs": len(self.table),
        }

    async def _op_watch(self, writer, message: Dict[str, Any]) -> bool:
        """Stream a job's progress frames; returns False to drop the line."""
        job = self.table.get(message.get("job"))
        if job is None:
            await send_message_async(
                writer,
                {"ok": False, "error": f"unknown job {message.get('job')!r}"},
            )
            return True
        after = message.get("after", 0)
        if not isinstance(after, int) or after < 0:
            after = 0
        condition = self.table.condition
        while True:
            async with condition:
                while len(job.progress) <= after and not job.finished:
                    await condition.wait()
                frames = job.progress[after:]
                after += len(frames)
                finished = job.finished
            for frame in frames:
                await send_message_async(writer, {"ok": True, "frame": frame})
            if finished:
                await send_message_async(
                    writer,
                    {"ok": True, "done": True, "job": job.describe()},
                )
                return True


class ServiceHandle:
    """A background daemon's lifeline: address, stop, join."""

    def __init__(self, service: SweepService, thread: threading.Thread) -> None:
        self.service = service
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.address

    def stop(self, timeout: float = 30.0) -> None:
        """Trigger the drain and wait for the daemon thread to exit."""
        self.service.request_shutdown()
        self._thread.join(timeout=timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        self._thread.join(timeout=timeout)

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

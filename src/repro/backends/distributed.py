"""The distributed execution backend: spans over TCP workers, elastically.

:class:`DistributedBackend` implements the
:class:`~repro.experiments.executors.ExecutionBackend` interface against
one or more ``repro worker serve`` processes (see :mod:`repro.backends.worker`),
reachable as ``host:port`` addresses — or spawned on demand as a local
:class:`~repro.backends.pool.WorkerPool` via ``pool=N``.  One persistent
connection per worker is opened by :meth:`~DistributedBackend.open` and
reused for every engine run of a sweep — the remote analogue of the
one-pool-per-sweep contract.

Execution model per span call:

1. :meth:`start` encodes the task once
   (:func:`~repro.backends.wire.encode_blob`, which refuses anything but
   the registered unit classes); each worker receives it lazily, the
   first time (per engine run) a span is dispatched on its connection —
   which is also what makes reconnects transparent.
2. :meth:`run` carves its half-open range on demand: each live worker's
   driver thread pulls the next span off a shared cursor, sized for
   *that* worker (``chunk_size`` trials; default balances the range
   across live workers; ``"auto"`` sizes spans from the worker's own
   observed rate — see :mod:`repro.backends.autotune`), so slow workers
   naturally take less and fast ones more.  The ``run`` request names
   only the span: the task loaded on the connection knows its own kind.
3. The per-span results go through the task's own ``merge`` in span
   order: counts are summed — exact integer addition over per-span
   counts that are pure functions of ``(task, span)``, so *any* disjoint
   partition of the range gives identical totals — and collect values
   are re-assembled in trial-index order.

**Fault tolerance.**  A span dispatch that fails at the transport level
(EOF, refused reconnect, a torn frame, a wire timeout, a heartbeat
declaring the worker dead) *requeues the span* for the surviving
workers, up to :data:`SPAN_RETRIES` attempts per span (a refused connect
never sent the span, so it strikes the worker but is no attempt).
Because every span's counts are a pure function of the task and the
span bounds, re-executing a span — even one the dying worker may have
half-finished — produces the exact same numbers, so results and
result-store cache keys stay
**byte-identical** to a clean run; the fault-injection suite
(``tests/backends/test_faults.py``) and the CI ``chaos`` job assert
exactly that.  Per-worker failures are tracked as consecutive *strikes*
(reset by any completed span, and reset again at every engine-run
boundary so one run's blips never poison the next): at
:data:`BREAKER_THRESHOLD` strikes the circuit breaker opens.  A worker
that stops sending reply bytes for :data:`HEARTBEAT_INTERVAL` seconds is
probed with a ``ping`` on a fresh connection (see
:func:`~repro.backends.wire.probe_worker`): a *slow* worker answers and
the client keeps waiting; a *dead* one fails the probe and its span is
requeued immediately.

The timing values are module constants, not options: no operator flag
reaches them and none can change a result.  Each is read where it is
used, so a test can monkeypatch it for fast fault detection.

**Elasticity.**  The fleet is no longer frozen at :meth:`open`:

- *Breaker re-admission* — an open breaker is a cooldown, not a death
  sentence.  Each trip schedules an exponentially backed-off cooldown
  (:data:`BREAKER_COOLDOWN` doubling per trip, capped at
  :data:`BREAKER_COOLDOWN_MAX`); once it expires, a successful heartbeat
  probe re-admits the worker with reset strikes.  Re-admission probes
  are counted separately (``readmission_probes``) and never as
  ``worker_failures``.
- *Dynamic membership* — with ``announce_bind="host:port"`` the backend
  runs a :class:`~repro.backends.membership.MembershipRegistry`;
  ``repro worker serve --announce HOST:PORT`` joins a *running* sweep,
  and a clean worker shutdown retires itself so the backend drains it
  (finish the in-flight span, take no more) instead of striking it.
  ``watch_hosts=PATH`` watches a ``--workers @FILE``-style hosts file
  for the same events — which is also how a ``repro worker pool
  --respawn K --addresses-file FILE`` replacement joins: the rewritten
  file reads as one leave plus one join.  New members get a driver
  thread on the next admission sweep and start pulling spans
  immediately.
- *Work-stealing* — a requeued span sized for a slower (or dead) worker
  is split when a faster worker picks it up: the thief takes a span
  sized for itself and the remainder goes back on the queue for the
  next idle worker (``spans_split`` in :attr:`stats`).

Only when every avenue is exhausted — all workers dead or cooling down,
nobody announcing — does the dispatch raise
(:class:`NoWorkersLeft`); and because the sweep orchestrator persists
completed points, ``repro sweep resume`` continues even that sweep
without recomputing anything.

Worker-side *task* errors (an ``ok: false`` reply) are deterministic —
the same span would fail identically on every worker — so they abort the
dispatch immediately with the remote traceback, exactly as before.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.backends.wire import (
    WORKER_ROLE,
    cancel_worker,
    decode_blob,
    encode_blob,
    fetch_worker_stats,
    handshake,
    parse_address,
    probe_worker,
    request,
)
from repro.experiments.executors import ExecutionBackend, TrialTask
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.util.validation import check_positive_int

#: Re-dispatch attempts allowed per span before the run is declared failed.
SPAN_RETRIES = 5

#: Seconds allowed for TCP connect + hello handshake per worker.
CONNECT_TIMEOUT = 10.0

#: Consecutive failures that open a worker's circuit breaker.
BREAKER_THRESHOLD = 3

#: Seconds of reply silence before a heartbeat probe checks the worker.
HEARTBEAT_INTERVAL = 5.0

#: Seconds any liveness probe may take before counting as dead: the
#: heartbeat, the re-admission probe, the announce registry's admission
#: probe, and the close-time ``stats`` / ``cancel`` round trips.
PING_TIMEOUT = 2.0

#: Base cooldown after a breaker trips (doubles per consecutive trip).
#: Long enough that the fast chaos tests never re-admit by accident,
#: short enough that a restarted worker rejoins a real sweep promptly.
BREAKER_COOLDOWN = 5.0

#: Cap on the exponential breaker cooldown (a longer base cooldown wins).
BREAKER_COOLDOWN_MAX = 60.0

#: How often a running dispatch sweeps for membership changes (announce
#: registry, hosts file, cooldown expiries).  Span completion wakes the
#: sweep early, so this adds no happy-path latency.
MEMBERSHIP_INTERVAL = 0.25

#: Every fault/elasticity counter the backend keeps, registered at zero
#: so :attr:`DistributedBackend.stats` always carries the full key set.
STAT_NAMES = (
    "spans_completed",
    "spans_requeued",
    "spans_split",
    "spans_cancelled",
    "worker_failures",
    "workers_broken",
    "workers_readmitted",
    "workers_joined",
    "workers_left",
    "heartbeat_probes",
    "readmission_probes",
)

#: Counter → typed trace event: every fault/membership increment that
#: deserves a timestamped point in the trace (probes and completions are
#: volume, not incident — the span records already carry them).
_STAT_EVENTS = {
    "spans_requeued": "requeue",
    "spans_split": "steal",
    "spans_cancelled": "cancel",
    "worker_failures": "worker_failure",
    "workers_broken": "breaker_trip",
    "workers_readmitted": "readmit",
    "workers_joined": "join",
    "workers_left": "leave",
}


class WorkerLost(ConnectionError):
    """A worker stopped responding mid-span (its heartbeat went silent)."""


class WorkerUnreachable(ConnectionError):
    """A worker refused (or timed out) the connect: no span reached it."""


class NoWorkersLeft(ConnectionError):
    """Every worker is dead or circuit-broken with spans still pending."""


class PointDeadlineExceeded(RuntimeError):
    """A sweep point blew its wall-clock budget (driver watchdog).

    Raised *into* a dispatch via :meth:`DistributedBackend.cancel_active`
    — the orchestrator's per-point watchdog fires it, busy workers are
    told to abandon their spans, and the orchestrator's degradation
    ladder decides whether the point reruns locally or the sweep aborts.
    """


class _Worker:
    """Client-side state of one worker: connection, breaker, rate."""

    def __init__(self, address: str) -> None:
        self.address = address
        self.host, self.port = parse_address(address)
        self.sock: Optional[socket.socket] = None
        #: The task payload loaded on the current connection, if any.
        self.loaded: Optional[str] = None
        #: Consecutive transport failures; any completed span resets it,
        #: as does every engine-run boundary (:meth:`DistributedBackend.start`).
        self.strikes = 0
        #: Circuit breaker: open means "cooling down", not "out for good" —
        #: after :attr:`cooldown_until` a successful probe re-admits.
        self.broken = False
        #: Departing cleanly (retired via the registry / removed from the
        #: hosts file): finish nothing new, never probe, never strike.
        self.draining = False
        self.breaker_trips = 0
        self.cooldown_until = 0.0
        #: Observed throughput accounting for per-worker span sizing.
        self.trials_done = 0
        self.busy_seconds = 0.0

    def connect(self) -> None:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=CONNECT_TIMEOUT
            )
        except OSError as error:
            raise WorkerUnreachable(
                f"cannot reach worker {self.address}: {error}"
            ) from error
        try:
            handshake(sock, WORKER_ROLE)
        except BaseException:
            sock.close()
            raise
        # Handshake done: span requests may run arbitrarily long (the
        # idle/heartbeat machinery bounds them, not the socket timeout).
        sock.settimeout(None)
        self.sock = sock
        self.loaded = None

    def drop_connection(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - close on a dead socket
                pass
            self.sock = None
        self.loaded = None

    def probe(self) -> bool:
        return probe_worker(self.host, self.port, timeout=PING_TIMEOUT)

    # -- breaker lifecycle -------------------------------------------------

    def schedule_cooldown(self) -> None:
        """Start (or extend, doubling) this worker's breaker cooldown."""
        self.breaker_trips += 1
        base = BREAKER_COOLDOWN
        backoff = min(
            base * (2 ** (self.breaker_trips - 1)),
            max(base, BREAKER_COOLDOWN_MAX),
        )
        self.cooldown_until = time.monotonic() + backoff

    def trip_breaker(self) -> None:
        self.broken = True
        self.schedule_cooldown()

    def readmit(self) -> None:
        """Close the breaker: fresh strikes, fresh connection next span."""
        self.broken = False
        self.draining = False
        self.strikes = 0
        self.drop_connection()

    # -- observed throughput ----------------------------------------------

    def record_span(self, trials: int, elapsed: float) -> None:
        self.trials_done += max(0, trials)
        self.busy_seconds += max(0.0, elapsed)

    def observed_rate(self) -> Optional[float]:
        """Trials/second this worker has demonstrated (``None`` if unknown)."""
        if self.trials_done <= 0 or self.busy_seconds < 1e-9:
            return None
        return self.trials_done / self.busy_seconds


class _SpanSource:
    """The demand-carved span supply one dispatch's drivers pull from.

    Instead of a precomputed partition, spans are carved off a shared
    cursor *when a worker asks*, sized by ``sizer(worker)`` — which is
    what lets span sizes track per-worker observed rates.  Failed spans
    re-enter a requeue deque as ``(low, high, attempts)``; a requeued
    span much larger than the asking worker's target size is *split*
    (the work-stealing half: the thief takes its own-sized piece, the
    remainder stays queued for the next idle worker).  Any disjoint
    partition of the range yields identical totals — per-span counts are
    pure functions of ``(task, span)`` — so demand carving and splitting
    are invisible in results.

    Drivers come and go (elastic membership), so exhaustion is *not*
    decided here: :meth:`get` simply returns ``None`` for a broken or
    draining worker, and the dispatch controller — which can admit new
    members and re-admit cooled-down ones — owns the only abort.
    """

    def __init__(
        self,
        start: int,
        stop: int,
        sizer: Callable[[_Worker], int],
        on_split: Optional[Callable[[], None]] = None,
    ) -> None:
        self._cursor = start
        self._stop = stop
        self._sizer = sizer
        self._on_split = on_split
        self._requeued: deque = deque()
        self._active = 0
        self._drivers = 0
        self._error: Optional[BaseException] = None
        self._condition = threading.Condition()

    @property
    def error(self) -> Optional[BaseException]:
        with self._condition:
            return self._error

    @property
    def drivers(self) -> int:
        with self._condition:
            return self._drivers

    def _settled_locked(self) -> bool:
        return self._error is not None or (
            self._cursor >= self._stop
            and not self._requeued
            and self._active == 0
        )

    @property
    def settled(self) -> bool:
        """Finished or aborted: no span will ever be handed out again."""
        with self._condition:
            return self._settled_locked()

    def get(self, worker: _Worker) -> Optional[Tuple[int, int, int]]:
        """The next span for ``worker`` as ``(low, high, attempts)``.

        ``None`` means this driver is done: the dispatch settled, or the
        worker itself is out (broken/draining).  Blocks — waking
        periodically to re-check the worker's standing — while other
        drivers hold spans that may yet be requeued.
        """
        with self._condition:
            while True:
                if self._settled_locked():
                    return None
                if worker.broken or worker.draining:
                    return None
                size = max(1, int(self._sizer(worker)))
                if self._requeued:
                    low, high, attempts = self._requeued.popleft()
                    if high - low >= 2 * size:
                        # Steal-split: take an own-sized bite, leave the
                        # rest for the next idle worker.
                        self._requeued.append((low + size, high, attempts))
                        if self._on_split is not None:
                            self._on_split()
                        high = low + size
                    self._active += 1
                    return low, high, attempts
                if self._cursor < self._stop:
                    low = self._cursor
                    high = min(low + size, self._stop)
                    self._cursor = high
                    self._active += 1
                    return low, high, 0
                self._condition.wait(0.05)

    def complete(self) -> None:
        with self._condition:
            self._active -= 1
            self._condition.notify_all()

    def requeue(self, low: int, high: int, attempts: int) -> None:
        with self._condition:
            self._active -= 1
            self._requeued.append((low, high, attempts))
            self._condition.notify_all()

    def abort(self, error: BaseException) -> None:
        """Fail the dispatch — unless it already settled.

        The settled guard matters for *external* aborts (the driver
        watchdog racing a completing point): once every span is done the
        dispatch's result is committed, and a late cancel must not turn
        a finished point into a failure.  Internal callers are unaffected
        — a driver aborting over its own failed span still holds that
        span active, so the source cannot have settled under it.
        """
        with self._condition:
            if self._error is None and not self._settled_locked():
                self._error = error
            self._condition.notify_all()

    def add_driver(self) -> None:
        with self._condition:
            self._drivers += 1

    def driver_exited(self) -> None:
        with self._condition:
            self._drivers -= 1
            self._condition.notify_all()

    def wait(self, timeout: float) -> None:
        """Park the dispatch controller until progress or ``timeout``."""
        with self._condition:
            if not self._settled_locked():
                self._condition.wait(timeout)


class DistributedBackend(ExecutionBackend):
    """Dispatch trial spans to remote ``repro worker`` processes.

    Parameters
    ----------
    workers:
        Sequence of ``"host:port"`` worker addresses.  May be empty when
        ``pool`` is given.
    chunk_size:
        Trials (batches, in batch mode) per dispatched span.  ``None``
        balances the range across live workers; ``"auto"`` sizes each
        worker's spans from its own observed rate
        (:mod:`repro.backends.autotune`), targeting sub-second spans so
        retry/rebalancing stays granular.  Never observable in results.
    pool:
        Spawn a local :class:`~repro.backends.pool.WorkerPool` of this
        many ``repro worker serve`` processes in :meth:`open` and own
        its lifecycle — sweeps and tests stand up a pool in one call.
    announce_bind:
        ``"host:port"`` to run a
        :class:`~repro.backends.membership.MembershipRegistry` on (port
        0 binds ephemeral; see :attr:`registry_address`).  Workers
        started with ``repro worker serve --announce`` join through it.
    watch_hosts:
        Path to a ``host:port``-per-line file to watch for membership
        edits (the ``--workers @FILE`` file, typically).
    """

    def __init__(
        self,
        workers: Sequence[str] = (),
        chunk_size: Union[int, str, None] = None,
        pool: Optional[int] = None,
        announce_bind: Optional[str] = None,
        watch_hosts: Optional[Any] = None,
    ) -> None:
        addresses = [
            worker.strip() for worker in workers if str(worker).strip()
        ]
        if pool is not None:
            check_positive_int(pool, "pool")
            if addresses:
                # Refusing beats silently ignoring one of them: an
                # operator who names a fleet AND asks for a pool would
                # otherwise run on fewer workers than they believe.
                raise ValueError(
                    "pass either workers=[...] or pool=N, not both"
                )
        if not addresses and pool is None:
            raise ValueError(
                "DistributedBackend needs at least one worker address "
                "('host:port') or pool=N to spawn a local worker pool"
            )
        self.workers: Tuple[str, ...] = tuple(addresses)
        for address in self.workers:
            parse_address(address)  # fail fast on typos
        if chunk_size not in (None, "auto"):
            check_positive_int(chunk_size, "chunk_size")
        self.chunk_size = chunk_size
        self.pool_size = pool
        if announce_bind is not None:
            parse_address(announce_bind)  # fail fast; port 0 is fine
        self.announce_bind = announce_bind
        self.watch_hosts = watch_hosts
        self._pool: Optional[Any] = None
        self._registry: Optional[Any] = None
        self._watcher: Optional[Any] = None
        self._workers: Optional[List[_Worker]] = None
        self._membership_lock = threading.Lock()
        self._payload: Optional[str] = None
        #: The span source of the dispatch currently in flight, if any —
        #: what :meth:`cancel_active` aborts from watchdog threads.
        self._active_source: Optional[_SpanSource] = None
        #: The numeric half of this backend's telemetry.  Fault counters
        #: live under ``backend.*`` (pre-registered at zero so the
        #: :attr:`stats` view always carries the full key set); worker
        #: snapshots merge in under ``worker.<address>.*`` at close.
        self.metrics = MetricsRegistry()
        self._stat_counters = {
            stat: self.metrics.counter(f"backend.{stat}")
            for stat in STAT_NAMES
        }
        #: Set by the sweep orchestrator so dispatch spans and
        #: fault/membership events join the sweep's trace tree.  A pure
        #: side channel: results are byte-identical with or without it.
        self.tracer: Any = NULL_TRACER

    @property
    def stats(self) -> Dict[str, int]:
        """The fault/elasticity counters as a plain short-keyed dict.

        A *view* over :attr:`metrics` (the ``backend.*`` counters with
        the prefix stripped), so the dict consumers have always read —
        ``stats["spans_requeued"]`` and friends — keeps working while
        the registry remains the single source of truth.
        """
        return self.metrics.counter_values("backend.", strip=True)

    def _count(self, stat: str, amount: int = 1, **attrs: Any) -> None:
        """Bump one fault/elasticity counter, tracing it when typed.

        ``attrs`` ride on the trace event only (worker address, span
        bounds, ...) — the counter itself stays a bare int.
        """
        self._stat_counters[stat].inc(amount)
        event = _STAT_EVENTS.get(stat)
        if event is not None and self.tracer.enabled:
            self.tracer.event(event, **attrs)

    # -- lifecycle ---------------------------------------------------------

    def open(self) -> "DistributedBackend":
        """Connect and handshake every worker; idempotent.

        Unreachable workers fail *loudly* here — at open time a bad
        address is an operator mistake, not churn; fault tolerance
        begins once the sweep is running.  The elastic machinery (the
        announce registry, the hosts watcher) also comes up here.
        """
        if self._workers is not None:
            return self
        if self.pool_size is not None:
            from repro.backends.pool import WorkerPool

            self._pool = WorkerPool(workers=self.pool_size).start()
            self.workers = tuple(self._pool.addresses)
        workers = [_Worker(address) for address in self.workers]
        try:
            for worker in workers:
                worker.connect()
        except BaseException:
            for worker in workers:
                worker.drop_connection()
            if self._pool is not None:
                self._pool.stop()
                self._pool = None
            raise
        self._workers = workers
        if self.announce_bind is not None:
            from repro.backends.membership import MembershipRegistry

            host, port = parse_address(self.announce_bind)
            self._registry = MembershipRegistry(host, port).start()
        if self.watch_hosts is not None:
            from repro.backends.membership import HostsFileWatcher

            self._watcher = HostsFileWatcher(
                self.watch_hosts, initial=self.workers
            )
        return self

    def close(self) -> None:
        self._collect_worker_stats()
        if self._registry is not None:
            self._registry.stop()
            self._registry = None
        self._watcher = None
        if self._workers is not None:
            for worker in self._workers:
                worker.drop_connection()
            self._workers = None
        if self._pool is not None:
            self._pool.stop()
            self._pool = None
            self.workers = ()
        self._payload = None

    def start(self, task: TrialTask) -> None:
        # Encoded first: a refused task opens no connection.
        self._payload = encode_blob(task)
        self.open()
        # Per-run state: strikes are *consecutive* failures within a run;
        # carrying them across engine runs let a transient blip in sweep A
        # permanently break the worker early in sweep B.
        for worker in self._workers or ():
            if not worker.broken:
                worker.strikes = 0
        # A run boundary is also a natural admission point: adopt joins,
        # drains, and any cooled-down breakers before spans fly.
        self._admit_members()

    def finish(self) -> None:
        self._payload = None

    # -- introspection -----------------------------------------------------

    def live_workers(self) -> Tuple[str, ...]:
        """Addresses currently pulling spans (not broken, not draining)."""
        with self._membership_lock:
            if self._workers is None:
                return self.workers
            return tuple(
                worker.address
                for worker in self._workers
                if not worker.broken and not worker.draining
            )

    @property
    def registry_address(self) -> Optional[str]:
        """The announce registry's bound ``host:port`` (``None`` if off)."""
        if self._registry is None:
            return None
        host, port = self._registry.address
        return f"{host}:{port}"

    def _collect_worker_stats(self) -> None:
        """Pull every live worker's telemetry and merge it into ours.

        Runs at close, over fresh short-lived connections (the
        persistent sockets may be mid-teardown), bounded by
        :data:`PING_TIMEOUT` per worker.  Failures — dead worker, a worker
        predating the ``stats`` op — just skip that worker: telemetry
        must never be able to fail a sweep that already finished.
        """
        with self._membership_lock:
            workers = list(self._workers or ())
        for worker in workers:
            if worker.broken or worker.draining:
                continue
            snapshot = fetch_worker_stats(
                worker.host, worker.port, timeout=PING_TIMEOUT
            )
            if snapshot is None:
                continue
            self.metrics.merge(snapshot, prefix=f"worker.{worker.address}.")
            if self.tracer.enabled:
                counters = snapshot.get("counters") or {}
                self.tracer.event(
                    "worker_stats", worker=worker.address, **counters
                )

    # -- membership --------------------------------------------------------

    def _admit_members(self, force: bool = False) -> None:
        """One membership sweep: announces, drains, re-admissions.

        ``force`` ignores breaker cooldowns — the dispatch controller's
        last resort before declaring :class:`NoWorkersLeft`.
        """
        if self._workers is None:
            return
        with self._membership_lock:
            by_address = {worker.address: worker for worker in self._workers}
            joined: List[str] = []
            left: List[str] = []
            if self._registry is not None:
                registry_joined, registry_left = self._registry.poll()
                joined += registry_joined
                left += registry_left
            if self._watcher is not None:
                watcher_joined, watcher_left = self._watcher.poll()
                joined += watcher_joined
                left += watcher_left
            for address in joined:
                worker = by_address.get(address)
                if worker is None:
                    try:
                        worker = _Worker(address)
                    except ValueError:  # pragma: no cover - registry validates
                        continue
                    self._workers.append(worker)
                    by_address[address] = worker
                    self._count("workers_joined", worker=address)
                elif worker.broken or worker.draining:
                    # A known address announcing again is a restart: treat
                    # it as the re-admission it is.
                    worker.readmit()
                    self._count(
                        "workers_readmitted", worker=address, via="announce"
                    )
            for address in left:
                worker = by_address.get(address)
                if worker is not None and not worker.draining:
                    worker.draining = True
                    self._count("workers_left", worker=address)
                    # Mid-span drain: a retiring worker abandons its
                    # running span *now* (it requeues elsewhere) instead
                    # of the drain waiting for the span to finish.
                    self._cancel_worker_spans(worker)
            now = time.monotonic()
            for worker in self._workers:
                if not worker.broken or worker.draining:
                    continue
                if not force and now < worker.cooldown_until:
                    continue
                # A re-admission probe is diagnostic, not a failure: it
                # must never count toward worker_failures.
                self._count("readmission_probes")
                if worker.probe():
                    worker.readmit()
                    self._count(
                        "workers_readmitted",
                        worker=worker.address,
                        via="probe",
                    )
                else:
                    worker.schedule_cooldown()

    def _dispatchable_workers(self) -> List[_Worker]:
        with self._membership_lock:
            return [
                worker
                for worker in self._workers or ()
                if not worker.broken and not worker.draining
            ]

    # -- cancellation ------------------------------------------------------

    def _cancel_worker_spans(self, worker: _Worker) -> None:
        """Best-effort: tell one worker to abandon its in-flight spans.

        Fire-and-forget on a fresh short-lived connection (the
        persistent one is busy carrying the very span being cancelled).
        Failure is fine — a worker that cannot be reached is dead or
        deaf, and either way its span requeues through the normal fault
        path.  Workers predating the ``cancel`` op ignore it the same
        way: the drain then waits for the span, exactly the old
        behaviour.
        """
        cancel_worker(worker.host, worker.port, timeout=PING_TIMEOUT)

    def cancel_active(self, error: BaseException) -> bool:
        """Abort the in-flight dispatch (if any) from another thread.

        The driver watchdog's entry point: aborts the active span source
        with ``error`` — a no-op if the dispatch already settled, so a
        cancel racing a completing point cannot fail it — then tells
        every dispatchable worker to abandon its running span, so the
        abort takes effect mid-span rather than after the slowest worker
        finishes.  Returns whether there was a live dispatch to cancel.
        """
        source = self._active_source
        if source is None or source.settled:
            return False
        source.abort(error)
        for worker in self._dispatchable_workers():
            self._cancel_worker_spans(worker)
        return True

    # -- span dispatch -----------------------------------------------------

    def _make_sizer(
        self, start: int, stop: int, trials_per_unit: int
    ) -> Callable[[_Worker], int]:
        """Per-worker span sizing (in range *units*) for one dispatch."""
        total_units = stop - start
        if isinstance(self.chunk_size, int):
            size = self.chunk_size
            return lambda worker: size
        if self.chunk_size is None:
            live = max(1, len(self.live_workers()))
            size = max(1, -(-total_units // live))
            return lambda worker: size
        # "auto": each worker's demonstrated rate sizes its own spans —
        # slow workers get small spans (cheap to requeue or steal), fast
        # ones get spans near the target wall time.
        from repro.backends.autotune import DEFAULT_RATE, suggest_chunk_size

        total_trials = total_units * trials_per_unit

        def sizer(worker: _Worker) -> int:
            live = max(1, len(self.live_workers()))
            rate = worker.observed_rate() or DEFAULT_RATE
            trials = suggest_chunk_size(
                "distributed", total_trials, workers=live, rate=rate
            )
            return max(1, trials // trials_per_unit)

        return sizer

    def _worker_request(
        self, worker: _Worker, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """One request on a worker's persistent connection, liveness-checked.

        Reply silence beyond :data:`HEARTBEAT_INTERVAL` triggers a
        ``ping`` probe on a fresh connection: an answering (merely slow)
        worker is waited on — the orchestrator's point deadline, not this
        loop, bounds an over-budget span — while a silent one raises
        :class:`WorkerLost` so the span is requeued.
        """
        interval = HEARTBEAT_INTERVAL
        waited = 0.0

        def on_idle() -> None:
            nonlocal waited
            waited += interval
            self._count("heartbeat_probes")
            if not worker.probe():
                raise WorkerLost(
                    f"worker {worker.address} stopped answering heartbeat "
                    f"pings after {waited:.1f}s of silence"
                )

        return request(
            worker.sock, payload, idle_timeout=interval, on_idle=on_idle
        )

    def _ensure_ready(self, worker: _Worker) -> None:
        """(Re)connect and load the current task onto the connection."""
        if worker.sock is None:
            worker.connect()
        if worker.loaded != self._payload:
            self._worker_request(worker, {"op": "task", "task": self._payload})
            worker.loaded = self._payload

    def _dispatch(self, task: TrialTask, start: int, stop: int) -> List[Any]:
        """Run the whole range on the live fleet; replies in span order.

        Each live worker gets a driver thread pulling demand-carved spans
        off one shared :class:`_SpanSource`; transport failures requeue
        the span (bounded by :data:`SPAN_RETRIES`) and strike the worker
        (breaker at :data:`BREAKER_THRESHOLD`), task failures abort the
        dispatch.  Between spans the controller thread sweeps membership —
        admitting announced or watched workers, draining departed ones,
        re-admitting cooled-down breakers — and spawns drivers for every
        newcomer, so the fleet flexes *while the range is running*.
        Raises only after every driver thread has stopped touching its
        socket.
        """
        assert self._workers is not None
        mode = task.mode
        trials_per_unit = task.trials_per_unit
        sizer = self._make_sizer(start, stop, trials_per_unit)
        source = _SpanSource(
            start, stop, sizer, on_split=lambda: self._count("spans_split")
        )
        results: List[Tuple[int, Any]] = []
        results_lock = threading.Lock()
        #: One driver thread per address; a thread is only ever replaced
        #: once it has exited, so joining these joins every driver.
        threads: Dict[str, threading.Thread] = {}

        def drive(worker: _Worker, dispatch_span: Any) -> None:
            try:
                while True:
                    item = source.get(worker)
                    if item is None:
                        return
                    low, high, attempts = item
                    try:
                        with self.tracer.span(
                            "backend.span",
                            parent=dispatch_span,
                            worker=worker.address,
                            mode=mode,
                            low=low,
                            high=high,
                            attempt=attempts,
                        ):
                            try:
                                self._ensure_ready(worker)
                            except RuntimeError as error:
                                # An ok:false reply to the task *load* is
                                # worker-specific (version skew, a module
                                # missing on that host) — the other workers
                                # may load it fine, so strike this one
                                # rather than abort the dispatch.
                                raise WorkerLost(
                                    f"worker {worker.address} cannot load the "
                                    f"task: {error}"
                                ) from error
                            began = time.monotonic()
                            reply = self._worker_request(
                                worker, {"op": "run", "start": low, "stop": high}
                            )
                    except (ConnectionError, OSError) as error:
                        # Transport failure: strike the worker, requeue
                        # the span for whoever is still alive.  A refused
                        # connect never sent the span, so it costs the span
                        # no attempt: a dead worker fails in microseconds
                        # and re-pulls the span it just requeued, and two
                        # dead workers' refusals alone used to exhaust
                        # SPAN_RETRIES before the survivor got to it.
                        if not isinstance(error, WorkerUnreachable):
                            attempts += 1
                        worker.drop_connection()
                        worker.strikes += 1
                        self._count(
                            "worker_failures",
                            worker=worker.address,
                            low=low,
                            high=high,
                            error=type(error).__name__,
                        )
                        if (
                            worker.strikes >= BREAKER_THRESHOLD
                            and not worker.broken
                        ):
                            worker.trip_breaker()
                            self._count(
                                "workers_broken",
                                worker=worker.address,
                                trips=worker.breaker_trips,
                            )
                        if attempts >= SPAN_RETRIES:
                            source.abort(
                                NoWorkersLeft(
                                    f"span [{low}, {high}) failed on "
                                    f"{attempts} workers, giving up: "
                                    f"{error}"
                                )
                            )
                            return
                        source.requeue(low, high, attempts)
                        self._count(
                            "spans_requeued",
                            worker=worker.address,
                            low=low,
                            high=high,
                            attempt=attempts,
                        )
                        if worker.broken:
                            return
                        continue
                    except RuntimeError as error:
                        # An ok:false reply: the task itself failed, and
                        # deterministically would everywhere — abort with
                        # the remote traceback, connection left healthy.
                        source.abort(error)
                        return
                    except BaseException as error:  # pragma: no cover
                        source.abort(error)  # surface bugs, don't hang
                        return
                    if reply.get("cancelled"):
                        # The worker cooperatively abandoned the span
                        # (drain or deadline cancel).  Not a failure: no
                        # strike, and the attempt count stays — the span
                        # simply goes back for whoever still pulls.
                        source.requeue(low, high, attempts)
                        self._count(
                            "spans_cancelled",
                            worker=worker.address,
                            low=low,
                            high=high,
                        )
                        continue
                    with results_lock:
                        results.append((low, reply))
                    worker.strikes = 0
                    worker.record_span(
                        (high - low) * trials_per_unit,
                        time.monotonic() - began,
                    )
                    self._count("spans_completed")
                    source.complete()
            finally:
                source.driver_exited()

        def spawn_drivers(dispatch_span: Any) -> bool:
            spawned = False
            for worker in self._dispatchable_workers():
                existing = threads.get(worker.address)
                if existing is not None and existing.is_alive():
                    continue
                source.add_driver()
                thread = threading.Thread(
                    target=drive,
                    args=(worker, dispatch_span),
                    name=f"repro-dispatch-{worker.address}",
                    daemon=True,
                )
                threads[worker.address] = thread
                thread.start()
                spawned = True
            return spawned

        self._active_source = source
        try:
            # Opened (and closed) by this controller thread; driver threads
            # parent their per-span records on it explicitly, since they
            # never see the controller's thread-local stack.
            with self.tracer.span(
                "backend.dispatch", mode=mode, start=start, stop=stop
            ) as dispatch_span:
                spawn_drivers(dispatch_span)
                if source.drivers == 0:
                    # Nobody to even begin with: give the elastic paths one
                    # shot (cooldown overridden) before refusing the dispatch.
                    self._admit_members(force=True)
                    if not spawn_drivers(dispatch_span):
                        raise NoWorkersLeft(
                            "every worker is dead or circuit-broken; restart "
                            "workers (or join replacements via --announce) "
                            "and retry — completed sweep points are in the "
                            "store (`repro sweep resume` recomputes nothing)"
                        )
                while not source.settled:
                    self._admit_members()
                    spawn_drivers(dispatch_span)
                    if source.drivers == 0 and not source.settled:
                        # Every driver is gone with spans still pending.
                        # Last resort: probe even cooling-down breakers,
                        # adopt any late joiner, then concede.
                        self._admit_members(force=True)
                        spawn_drivers(dispatch_span)
                        if source.drivers == 0 and not source.settled:
                            source.abort(
                                NoWorkersLeft(
                                    "span(s) still pending but every worker "
                                    "is dead or circuit-broken (and no "
                                    "replacement joined)"
                                )
                            )
                            break
                    source.wait(MEMBERSHIP_INTERVAL)
                for thread in threads.values():
                    thread.join()
                error = source.error
                if error is not None:
                    raise error
                dispatch_span.set_attr("spans", len(results))
        finally:
            self._active_source = None
        results.sort(key=lambda pair: pair[0])
        return [reply for _, reply in results]

    def run(self, task: TrialTask, start: int, stop: int) -> List[Any]:
        if start >= stop:
            return task.merge(())
        return task.merge(
            decode_blob(reply["result"])
            for reply in self._dispatch(task, start, stop)
        )

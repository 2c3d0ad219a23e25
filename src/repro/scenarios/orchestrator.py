"""The sweep orchestrator: expand a spec's grid, run it, cache it, resume it.

One :meth:`SweepOrchestrator.run` call owns the whole sweep:

- the point grid comes from :meth:`ScenarioSpec.points` (axes cross
  product, last axis fastest);
- **one** execution backend serves every point, resolved through
  :func:`repro.backends.registry.get` (explicit ``backend`` argument, else the
  spec's pinned ``engine.backend``, else the ``jobs`` sugar: serial for
  1, ``process-pool`` above) and opened exactly once per sweep — a
  ``distributed`` backend connects its workers once and streams every
  point's spans through the same sockets;
- each point gets its *own* :class:`~repro.experiments.engine.TrialEngine`
  (engines are cheap; the executor is the expensive part) so tolerance can
  vary per point: a spec's :class:`~repro.scenarios.spec.ToleranceSchedule`
  decides how hard to pin each point;
- with a :class:`~repro.scenarios.store.ResultStore`, finished points are
  persisted under their content hash and *skipped* on re-runs — re-running
  a completed sweep performs zero new trials, and a sweep interrupted at
  point N resumes with N points served from disk.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.backends.registry import get as get_backend
from repro.backends.base import BackendSpec
from repro.backends.distributed import NoWorkersLeft, PointDeadlineExceeded
from repro.experiments.engine import TrialEngine
from repro.experiments.executors import ExecutionBackend
from repro.obs.trace import NULL_TRACER, coerce_tracer
from repro.scenarios.journal import SweepJournal, sweep_spec_hash
from repro.scenarios.runners import get_runner
from repro.scenarios.spec import ScenarioSpec, SweepPoint
from repro.scenarios.store import (
    STORE_GENERATION,
    ResultStore,
    StoreIntegrityError,
    content_key,
    finalize_record,
    key_base,
)
from repro.util.validation import check_positive_int

#: Per-point progress hook: (point, record, served_from_cache).
ProgressFn = Callable[[SweepPoint, Dict[str, Any], bool], None]

#: How often :func:`serve_point`, blocked on another process's in-flight
#: claim, re-checks for the record or a released/expired claim.
CLAIM_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class PointEntry:
    """One resolved grid point: values, tolerance, cache key, display label.

    The sweep's unit of work, shared between the orchestrator's point
    loop and the sweep service's job scheduler — both iterate the same
    resolved entries, so a submitted job and a CLI sweep of the same
    scenario agree on every cache key by construction.
    """

    point: SweepPoint
    tolerance: Optional[float]
    key: str
    label: str


def resolve_entries(
    spec: ScenarioSpec,
    trials: Optional[int] = None,
    tolerance: Optional[float] = None,
    batch_size: Optional[int] = None,
) -> Tuple[ScenarioSpec, int, List[PointEntry]]:
    """Resolve a spec's whole grid up front: effective spec, trials, entries.

    ``batch_size`` is folded into the spec *before* any cache key is
    derived (the partition is result-shaping); per-point tolerance is
    the base ``tolerance`` scaled by the spec's schedule.
    Returns the effective spec (use it, not the argument, from here on),
    the effective trial budget, and one :class:`PointEntry` per point in
    grid order.
    """
    if batch_size is not None:
        spec = replace(
            spec, engine=replace(spec.engine, batch_size=batch_size)
        )
    effective_trials = spec.trials if trials is None else trials
    check_positive_int(effective_trials, "trials", minimum=0)
    entries: List[PointEntry] = []
    base = key_base(spec, effective_trials)
    for point in spec.points():
        resolved = spec.point_tolerance(point.values, base=tolerance)
        key = content_key(base, {**spec.fixed, **point.values}, resolved)
        label = (
            " ".join(
                f"{name}={value}" for name, value in point.values.items()
            )
            or spec.name
        )
        entries.append(PointEntry(point, resolved, key, label))
    return spec, effective_trials, entries


def load_cached_record(
    store: ResultStore, scenario: str, key: str, span: Any
) -> Optional[Dict[str, Any]]:
    """Load a stored record if one exists, quarantining damage.

    The one cache read of the commit path (the daemon also calls it on
    its event loop, to answer a hit without a thread hop).  ``None`` means
    the store has nothing usable under ``key``: either no record, or one
    that failed verification and has been moved to the store's
    quarantine (a ``quarantine`` event on ``span`` says which) — the
    caller recomputes the point, so resumes heal a damaged store rather
    than abort on it.
    """
    try:
        record = store.load_verified(scenario, key)
    except FileNotFoundError:
        return None
    except StoreIntegrityError as damage:
        quarantined = store.quarantine(damage.path)
        span.event(
            "quarantine",
            key=key,
            status=damage.status,
            path=str(quarantined),
        )
        return None
    record["from_cache"] = True
    return record


def compute_point_result(
    runner: Callable[..., Any],
    executor: ExecutionBackend,
    spec: ScenarioSpec,
    entry: PointEntry,
    trials: int,
    tracer: Any = None,
) -> Any:
    """Run one point's trials on ``executor`` through a fresh engine.

    Engines are cheap; the executor is the expensive shared part — which
    is exactly why the service can serialize many jobs' points through
    one backend with one of these calls at a time.
    """
    engine = TrialEngine(
        backend=executor,
        tolerance=entry.tolerance,
        min_trials=spec.engine.min_trials,
        check_interval=spec.engine.check_interval,
        checkpoint_batches=spec.engine.checkpoint_batches,
        ci_method=spec.engine.ci_method,
        tracer=tracer,
    )
    return runner(
        entry.point.params(spec),
        trials,
        spec.seed,
        engine,
        spec.engine.batch_size,
    )


def build_point_record(
    spec: ScenarioSpec,
    entry: PointEntry,
    trials: int,
    result: Any,
) -> Dict[str, Any]:
    """Finalize one computed point into its store-record shape."""
    return finalize_record(
        {
            "key": entry.key,
            "scenario": spec.name,
            "kind": spec.kind,
            "point": dict(entry.point.values),
            "params": entry.point.params(spec),
            "trials": trials,
            "seed": spec.seed,
            "tolerance": entry.tolerance,
            "result": result,
            # Finalized (generation + checksum) here as well as in
            # save() so a report's record shape never depends on cache
            # state.
            "store_generation": STORE_GENERATION,
        }
    )


def serve_point(
    store: Optional[ResultStore],
    spec: ScenarioSpec,
    entry: PointEntry,
    trials: int,
    compute: Callable[[], Any],
    span: Any,
    force: bool = False,
    skip_first_read: bool = False,
    journal: Optional[SweepJournal] = None,
) -> Tuple[Dict[str, Any], str]:
    """The one commit path of a point: read, claim or follow, compute, save.

    Returns ``(record, status)``.  ``"cached"``: the store already held
    a verified record.  ``"followed"``: a concurrent driver held the
    point's claim and finished first — its record is ours by content
    address, so the point is never computed twice.  ``"computed"``:
    ``compute()`` ran here and its record is committed.  The CLI driver
    and the daemon both serve every point through this function (the
    daemon from a worker thread: the poll blocks).

    ``force`` recomputes: the first read is skipped and a claim holder's
    record is never adopted, so this returns only once the claim is ours.
    ``skip_first_read`` skips only that — the CLI driver sets it for a key
    a dead predecessor left mid-flight in the journal (whatever sits in
    the store under it is suspect), the daemon because it has just read
    the key itself — while a record a *live* holder commits during the
    wait is adopted as usual.
    A holder that dies mid-point is handled by claim expiry (dead-pid
    check inside :meth:`ResultStore.claim`), so the wait cannot wedge.

    With a ``journal`` the order is write-ahead: ``point_started`` is on
    disk before the claim is taken and the point computes — a SIGKILL
    between there and ``point_finished`` (the last thing this function
    does, for all three statuses) marks the point mid-flight, never
    silently committed.  Without a ``store`` there is nothing to read,
    claim or commit: the point is computed and its record returned.
    """
    if store is None:
        return build_point_record(spec, entry, trials, compute()), "computed"
    scenario, key, index = spec.name, entry.key, entry.point.index
    record = None
    status = "cached"
    if not (force or skip_first_read):
        record = load_cached_record(store, scenario, key, span)
    if record is None:
        if journal is not None:
            journal.point_started(key, index)
        status = "followed"
        waited = False
        while True:
            claim = store.claim(scenario, key)
            if claim is not None:
                break
            if not waited:
                waited = True
                span.event("claim_wait", key=key)
            time.sleep(CLAIM_POLL_SECONDS)
            if not force:
                record = load_cached_record(store, scenario, key, span)
                if record is not None:
                    break
        if claim is not None:
            status = "computed"
            try:
                record = build_point_record(spec, entry, trials, compute())
                store.save(scenario, key, record)
            finally:
                # Released *after* the save: a waiter that sees the claim
                # disappear finds the record already renamed in.
                claim.release()
    if journal is not None:
        journal.point_finished(key, index)
    return record, status


class _ComputeLadder:
    """How a sweep's points compute: on its backend, under the watchdog,
    degrading one-way to the local backend under ``fallback="local"``.

    With a ``point_deadline``, each computation arms a timer against a
    cancellable backend: when it fires, the in-flight dispatch is
    aborted with :class:`PointDeadlineExceeded` and busy workers are
    told to abandon their spans.  Backends without ``cancel_active``
    (all the local ones) cannot be interrupted from outside, so the
    deadline no-ops for them.  On :class:`NoWorkersLeft` or a fired
    deadline the ladder either propagates the error or — ``"local"`` —
    reruns the failed point, and every later one, on the ``jobs`` sugar's
    backend.  Same task, same spans, same bytes.
    """

    def __init__(
        self,
        executor: ExecutionBackend,
        run_point: Callable[[ExecutionBackend, PointEntry], Any],
        sweep_span: Any,
        tracer: Any,
        jobs: Optional[int],
        fallback: Optional[str],
        point_deadline: Optional[float],
    ) -> None:
        self.executor = executor
        #: What points compute on now: ``executor`` until degraded.
        self.active = executor
        self.run_point = run_point
        self.sweep_span = sweep_span
        self.tracer = tracer
        self.jobs = jobs
        self.fallback = fallback
        self.point_deadline = point_deadline
        self.degraded = 0
        #: Times the deadline fired.  A firing that loses the race with
        #: a completing point is a harmless no-op abort but still counts
        #: — this is "fired", not "point failed".
        self.watchdog_fired = 0

    def compute(self, entry: PointEntry) -> Any:
        index = entry.point.index
        while True:
            try:
                with self._deadline(index):
                    return self.run_point(self.active, entry)
            except (NoWorkersLeft, PointDeadlineExceeded) as failure:
                if self.fallback != "local" or self.active is not self.executor:
                    raise
                self._degrade(index, failure)

    @contextmanager
    def _deadline(self, index: int):
        cancel = getattr(self.active, "cancel_active", None)
        if self.point_deadline is None or cancel is None:
            yield
            return

        def expire() -> None:
            self.watchdog_fired += 1
            self.tracer.event(
                "watchdog",
                span=self.sweep_span,
                point=index,
                deadline_seconds=self.point_deadline,
            )
            cancel(
                PointDeadlineExceeded(
                    f"point {index} exceeded its {self.point_deadline}s deadline"
                )
            )

        timer = threading.Timer(self.point_deadline, expire)
        timer.daemon = True
        timer.start()
        try:
            yield
        finally:
            timer.cancel()

    def _degrade(self, index: int, failure: Exception) -> None:
        self.degraded += 1
        self.tracer.event(
            "degraded",
            span=self.sweep_span,
            reason=(
                "point_deadline"
                if isinstance(failure, PointDeadlineExceeded)
                else "no_workers_left"
            ),
            point=index,
            from_backend=type(self.active).__name__,
            to_backend="local",
        )
        self.active = get_backend(None, jobs=self.jobs)
        if self.tracer is not NULL_TRACER and hasattr(self.active, "tracer"):
            self.active.tracer = self.tracer
        self.active.open()

    def counters(self) -> Dict[str, int]:
        """The non-zero degradation counters, for ``backend_stats``."""
        counters = {
            "degraded": self.degraded,
            "watchdog_fired": self.watchdog_fired,
        }
        return {name: count for name, count in counters.items() if count}

    def close(self) -> None:
        """Close the fallback backend, if the sweep degraded onto one."""
        if self.active is not self.executor:
            self.active.close()


@dataclass(frozen=True)
class SweepReport:
    """The outcome of one orchestrated sweep."""

    spec: ScenarioSpec
    records: Tuple[Dict[str, Any], ...]
    computed: int
    cached: int
    #: The executor's fault/elasticity counters (``backend.stats``),
    #: snapshotted before close for executors that expose them —
    #: requeues, breaker trips, re-admissions, mid-sweep joins.  ``None``
    #: for executors without stats (all the local ones).
    backend_stats: Optional[Dict[str, int]] = None

    @property
    def points(self) -> int:
        return len(self.records)

    @property
    def trials_run(self) -> int:
        """Trials executed this run (cached points contribute zero)."""
        return sum(
            record["result"].get("trials_run", 0)
            for record in self.records
            if not record.get("from_cache")
        )

    def results(self) -> List[Dict[str, Any]]:
        """The per-point result dicts, in grid order."""
        return [record["result"] for record in self.records]


class SweepOrchestrator:
    """Runs scenario specs through one shared backend and a result store.

    Parameters
    ----------
    store:
        Optional :class:`ResultStore`; with one, completed points are
        cached and re-runs/resumes skip them.
    jobs:
        Worker-count sugar for the default backend (``1`` = serial,
        above that one shared ``process-pool``).  An explicit value is
        merged into a named ``backend`` that accepts a ``jobs`` option
        (including ``jobs=1`` → a one-worker pool); ``None`` keeps a
        named backend's own default.
    backend:
        A backend registry name, a
        :class:`~repro.backends.base.BackendSpec` — e.g.
        ``"distributed"`` with ``workers=[...]`` options — or a
        pre-built :class:`~repro.backends.ExecutionBackend` instance
        (its ``open``/``close`` lifecycle still brackets each
        :meth:`run`).  Overrides a spec's pinned ``engine.backend``.
    tolerance:
        Base tolerance override; ``None`` defers to each spec's.
    batch_size:
        Override of each spec's pinned engine ``batch_size`` — i.e. of
        the batch *partition*, which (unlike any backend choice) is
        allowed to change results, so the override is folded into the
        effective engine settings *before* cache keys are derived: runs
        sharing a ``batch_size`` share store entries, runs differing in
        it never collide.  What the chaos harness uses to carve the
        smoke sweep into enough spans to kill a worker mid-point.
    tracer:
        A :class:`~repro.obs.trace.Tracer`: each :meth:`run` records a
        ``sweep`` span wrapping one ``point`` span per grid point
        (cached points carry a ``cache_hit`` event; computed ones nest
        the engine's spans), hands the tracer to the per-point engines,
        and — when the resolved backend accepts one — to the backend
        itself, so distributed dispatch detail lands in the same tree.
        Tracing is a pure side channel: results, store records, and
        cache keys are byte-identical with it on, off, or failing.
    fallback:
        The degradation policy when the sweep's backend collapses.
        ``None`` (default) keeps the historical behaviour: the error
        propagates and the sweep aborts (with partial ``backend_stats``
        preserved).  ``"local"`` degrades the sweep one-way: on
        :class:`NoWorkersLeft` or a watchdog
        :class:`PointDeadlineExceeded`, the failed point — and every
        later point — reruns on the default local backend (the ``jobs``
        sugar), emitting a typed ``degraded`` event and a ``degraded``
        stats counter.  The determinism contract makes the switch
        invisible in the results: store bytes match a never-degraded
        run.
    point_deadline:
        Optional per-point wall-clock budget in seconds.  A driver-side
        watchdog arms per computed point; expiry cancels the backend's
        in-flight dispatch (requeueing worker spans mid-flight) and
        raises :class:`PointDeadlineExceeded` into the degradation
        ladder.  Only enforceable against executors exposing
        ``cancel_active`` (the distributed backend); local executors
        ignore it.

    Every store-backed run keeps a per-sweep write-ahead journal
    (:class:`~repro.scenarios.journal.SweepJournal`) distinguishing
    committed from mid-flight points across driver crashes.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: Optional[int] = None,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
        tolerance: Optional[float] = None,
        batch_size: Optional[int] = None,
        tracer: Any = None,
        fallback: Optional[str] = None,
        point_deadline: Optional[float] = None,
    ) -> None:
        self.store = store
        self.jobs = None if jobs is None else check_positive_int(jobs, "jobs")
        self.backend = backend
        self.tolerance = tolerance
        self.batch_size = (
            None
            if batch_size is None
            else check_positive_int(batch_size, "batch_size")
        )
        self.tracer = coerce_tracer(tracer)
        if fallback not in (None, "local"):
            raise ValueError(
                f"unknown fallback policy {fallback!r} (expected None or 'local')"
            )
        self.fallback = fallback
        if point_deadline is not None and not point_deadline > 0:
            raise ValueError("point_deadline must be a positive number of seconds")
        self.point_deadline = point_deadline
        #: The most recent run's backend-stats snapshot — taken in a
        #: ``finally``, so it survives (and gets traced) even when the
        #: backend dies mid-run and no :class:`SweepReport` is returned.
        self.last_backend_stats: Optional[Dict[str, int]] = None

    def _backend_for(self, spec: ScenarioSpec) -> ExecutionBackend:
        """Resolve one run's backend: backend > spec.engine.backend > jobs."""
        backend = self.backend
        if backend is None:
            backend = spec.engine.backend
        return get_backend(backend, jobs=self.jobs)

    def run(
        self,
        spec: ScenarioSpec,
        trials: Optional[int] = None,
        force: bool = False,
        progress: Optional[ProgressFn] = None,
    ) -> SweepReport:
        """Run (or resume) every point of ``spec``.

        ``trials`` overrides the spec's per-point budget; ``force``
        recomputes even cached points (and overwrites their records).
        Interrupting a run is safe at any moment — even ``kill -9``:
        completed points are already persisted, the journal names the
        point that was mid-flight, and the next ``run`` recomputes
        exactly that point (byte-identically, by the determinism
        contract) while serving the rest from the store.
        """
        runner = get_runner(spec.kind)
        # Resolve the whole grid up front: the journal's spec hash covers
        # every point's identity, so it must exist before the first point
        # runs.  (batch_size is folded into the spec there — the
        # partition is result-shaping, so overridden runs get their own
        # cache entries.)
        spec, effective_trials, entries = resolve_entries(
            spec,
            trials=trials,
            tolerance=self.tolerance,
            batch_size=self.batch_size,
        )
        records: List[Dict[str, Any]] = []
        computed = cached = 0
        executor = self._backend_for(spec)
        if self.tracer is not NULL_TRACER and hasattr(executor, "tracer"):
            # Backends that trace their own dispatch (distributed spans,
            # membership events) join the sweep's tree.
            executor.tracer = self.tracer
        journal: Optional[SweepJournal] = None
        midflight: frozenset = frozenset()
        if self.store is not None:
            journal = SweepJournal(self.store.root, spec.name)
            # Takes the owner lease: a second driver racing this journal
            # gets JournalBusyError here — fail fast, never interleave.
            midflight = frozenset(
                journal.begin(
                    sweep_spec_hash([entry.key for entry in entries]),
                    len(entries),
                )
            )
        with self.tracer.span(
            "sweep",
            scenario=spec.name,
            kind=spec.kind,
            points=len(entries),
            trials=effective_trials,
            backend=type(executor).__name__,
        ) as sweep_span:
            if midflight:
                # A predecessor died with these points half-done: their
                # records (if any) are untrusted and will recompute.
                self.tracer.event(
                    "journal_recovery",
                    span=sweep_span,
                    midflight=len(midflight),
                )
            ladder = _ComputeLadder(
                executor,
                lambda backend, entry: compute_point_result(
                    runner,
                    backend,
                    spec,
                    entry,
                    effective_trials,
                    tracer=self.tracer,
                ),
                sweep_span,
                tracer=self.tracer,
                jobs=self.jobs,
                fallback=self.fallback,
                point_deadline=self.point_deadline,
            )
            with executor:
                try:
                    for entry in entries:
                        with self.tracer.span(
                            "point",
                            index=entry.point.index,
                            label=entry.label,
                            key=entry.key,
                        ) as point_span:
                            record, status = serve_point(
                                self.store,
                                spec,
                                entry,
                                effective_trials,
                                partial(ladder.compute, entry),
                                point_span,
                                force=force,
                                skip_first_read=entry.key in midflight,
                                journal=journal,
                            )
                            if status == "computed":
                                computed += 1
                                result = record["result"]
                                point_span.set_attr(
                                    "trials_run",
                                    result.get("trials_run", 0)
                                    if isinstance(result, dict)
                                    else 0,
                                )
                            else:
                                cached += 1
                                point_span.set_attr("cached", True)
                                point_span.event(
                                    "cache_hit"
                                    if status == "cached"
                                    else "dedup_follow",
                                    key=entry.key,
                                )
                            records.append(record)
                            if progress is not None:
                                progress(
                                    entry.point, record, status != "computed"
                                )
                    if journal is not None:
                        journal.complete()
                finally:
                    # Snapshot in a finally, *inside* the with-block: a
                    # backend that dies mid-run (or mid-finish) must not
                    # take its counters down with it — partial-run stats
                    # survive for callers and land in the trace — and
                    # close() may tear down the very state (workers,
                    # pool) the stats describe.  The ladder's own
                    # degradation counters ride in the same dict.
                    stats = getattr(executor, "stats", None)
                    backend_stats = (
                        dict(stats) if isinstance(stats, dict) else None
                    )
                    degradation = ladder.counters()
                    if degradation:
                        backend_stats = {**(backend_stats or {}), **degradation}
                    self.last_backend_stats = backend_stats
                    if backend_stats:
                        self.tracer.event(
                            "backend_stats", span=sweep_span, **backend_stats
                        )
                    ladder.close()
                    if journal is not None:
                        # Drop the owner lease whatever happened: a
                        # completed sweep already sealed it (no-op), an
                        # aborted one must not leave a live-looking
                        # lease for the next driver to wait out.
                        journal.release()
        return SweepReport(
            spec=spec,
            records=tuple(records),
            computed=computed,
            cached=cached,
            backend_stats=backend_stats,
        )

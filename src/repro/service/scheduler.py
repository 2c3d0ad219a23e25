"""The fair-share job scheduler: many jobs, one fleet, no duplicate work.

One :class:`JobScheduler` owns the daemon's single execution backend and
serves every accepted job's points through it, one point at a time (the
distributed backend carries one task payload at a time, so a second
concurrent engine run through it would be unsafe — serialising the
compute lane is correctness, not a simplification).  Three properties
hold by construction:

**Fair share.**  Each iteration admits the runnable job that has been
served the *fewest* entries so far; two concurrent jobs therefore
alternate points instead of running back-to-back, and a short job
submitted behind a long one starts immediately rather than queueing
behind it.  The admission order is recorded in :attr:`admission_log` —
the fairness property is asserted, not assumed.

**Deduplication.**  Before computing, every entry checks the
content-addressed store; a record that exists is adopted (cache hit).
A record another job of *this* service produced counts as a
``dedup_hits`` — the overlapping work two concurrent jobs share is
computed exactly once, with the second job adopting the first's bytes.
Against drivers *outside* the service (a racing CLI sweep on the same
store), the point-level claim files arbitrate: whoever claims computes,
the other adopts.  A miss runs the orchestrator's
:func:`~repro.scenarios.orchestrator.serve_point` — claim or follow,
compute, save; the one commit path a CLI sweep also runs — in a worker
thread (:func:`asyncio.to_thread`), so the event loop keeps answering
``status``/``watch``/``submit`` while a point is in flight.

**No journal, on purpose.**  A per-scenario
:class:`~repro.scenarios.journal.SweepJournal` admits one owner at a
time — exactly wrong for a service interleaving jobs over one scenario.
The service *is* the single in-process coordination point, and the
store's claims + content addressing carry crash consistency: a daemon
killed mid-point loses only that point's work, never a committed record.
"""

from __future__ import annotations

import asyncio
import time
from functools import partial
from typing import Any, Dict, Optional, Tuple

from repro.experiments.executors import ExecutionBackend
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import coerce_tracer
from repro.scenarios.orchestrator import (
    PointEntry,
    compute_point_result,
    load_cached_record,
    serve_point,
)
from repro.scenarios.runners import get_runner
from repro.scenarios.store import ResultStore
from repro.service.jobs import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_FAILED,
    JOB_RUNNING,
    Job,
    JobTable,
)


def result_half_width(result: Any) -> Optional[float]:
    """Best-effort CI half-width of a point result, for progress lines.

    Runner results that embed Monte-Carlo estimates (``low``/``high``
    pairs, possibly nested under ``measured``) yield their widest
    half-interval; results without interval fields yield ``None`` — the
    progress frame then simply omits the figure.
    """
    if not isinstance(result, dict):
        return None

    def from_estimate(estimate: Any) -> Optional[float]:
        if (
            isinstance(estimate, dict)
            and isinstance(estimate.get("low"), (int, float))
            and isinstance(estimate.get("high"), (int, float))
        ):
            return (estimate["high"] - estimate["low"]) / 2.0
        return None

    widths = []
    for value in result.values():
        direct = from_estimate(value)
        if direct is not None:
            widths.append(direct)
        elif isinstance(value, dict):
            widths.extend(
                width
                for width in (from_estimate(v) for v in value.values())
                if width is not None
            )
    return max(widths) if widths else None


class JobScheduler:
    """Serves every job's entries through one shared executor, fairly."""

    def __init__(
        self,
        store: ResultStore,
        executor: ExecutionBackend,
        table: JobTable,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Any = None,
    ) -> None:
        self.store = store
        self.executor = executor
        self.table = table
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = coerce_tracer(tracer)
        #: Job id per served entry, in admission order — the evidence
        #: the fair-share tests (and curious operators) inspect.
        self.admission_log: list = []
        #: ``(scenario, key) → job id`` for every record computed while
        #: this service ran — how a later entry for the same key is
        #: recognised as deduplicated shared work, not a mere cache hit.
        self._produced: Dict[Tuple[str, str], str] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._stopping = False

    # -- control ----------------------------------------------------------

    def wake(self) -> None:
        """Nudge the scheduling loop (new job, cancel, shutdown)."""
        if self._wakeup is not None:
            self._wakeup.set()

    def request_stop(self) -> None:
        """Begin the drain: cancel every open job and let :meth:`run` exit.

        The entry in flight (if any) finishes and persists — points are
        never torn — and every remaining entry of every job is dropped,
        the jobs finishing ``cancelled``.
        """
        self._stopping = True
        for job in self.table.open_jobs():
            job.cancel_requested = True
        self.wake()

    # -- the scheduling loop ----------------------------------------------

    async def run(self) -> None:
        """Serve entries until stopped; returns once the drain completes."""
        self._wakeup = asyncio.Event()
        while True:
            await self._finalize_settled()
            job = self._pick()
            if job is None:
                if self._stopping:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            if job.status != JOB_RUNNING:
                job.status = JOB_RUNNING
                self.metrics.counter("service.jobs_started").inc()
            entry = job.entries[job.cursor]
            try:
                await self._serve_entry(job, entry)
            except Exception as failure:  # noqa: BLE001 - job-scoped failure
                # One job's bad point must not take the daemon (or the
                # other jobs) down with it.
                job.error = f"{type(failure).__name__}: {failure}"
                job.finish(JOB_FAILED)
                self.metrics.counter("service.jobs_failed").inc()
                self.tracer.event(
                    "service.job_failed", job=job.id, error=job.error
                )
            else:
                job.cursor += 1
                job.served += 1
                if job.cursor == job.points:
                    job.finish(JOB_DONE)
                    self.metrics.counter("service.jobs_completed").inc()
                    self.tracer.event(
                        "service.job_done",
                        job=job.id,
                        computed=job.computed,
                        cached=job.cached,
                        dedup_hits=job.dedup_hits,
                    )
            await self._notify()

    def _pick(self) -> Optional[Job]:
        """The fair-share gate: the least-served runnable job wins.

        Ties break by submission order (dict order is insertion order),
        so the alternation between equally-served jobs is deterministic.
        """
        runnable = self.table.runnable()
        if not runnable:
            return None
        return min(runnable, key=lambda job: job.served)

    async def _finalize_settled(self) -> None:
        """Turn pending cancel requests into terminal states."""
        settled = False
        for job in self.table.open_jobs():
            if job.cancel_requested:
                job.finish(JOB_CANCELLED)
                self.metrics.counter("service.jobs_cancelled").inc()
                self.tracer.event("service.job_cancelled", job=job.id)
                settled = True
        if settled:
            await self._notify()

    # -- serving one entry -------------------------------------------------

    async def _serve_entry(self, job: Job, entry: PointEntry) -> None:
        scenario = job.spec.name
        self.admission_log.append(job.id)
        started = time.perf_counter()
        with self.tracer.span(
            "service.job",
            job=job.id,
            scenario=scenario,
            index=entry.point.index,
            key=entry.key,
        ) as span:
            record, status = await self._adopt_or_compute(job, entry, span)
            elapsed = time.perf_counter() - started
            span.set_attr("status", status)
            result = record.get("result", {})
            trials_run = (
                result.get("trials_run", 0) if isinstance(result, dict) else 0
            )
            if status == "computed":
                job.computed += 1
                job.trials_run += trials_run
                self.metrics.counter("service.points_computed").inc()
            else:
                job.cached += 1
                self.metrics.counter("service.points_cached").inc()
                if status == "dedup":
                    job.dedup_hits += 1
                    self.metrics.counter("service.dedup_hits").inc()
            frame = {
                "seq": len(job.progress),
                "job": job.id,
                "index": entry.point.index,
                "points": job.points,
                "done": job.served + 1,
                "label": entry.label,
                "status": status,
                "trials_run": trials_run,
                "trials_per_second": (
                    trials_run / elapsed if elapsed > 1e-9 else 0.0
                ),
                "ci_half_width": result_half_width(result),
                "elapsed": elapsed,
            }
            job.progress.append(frame)

    async def _adopt_or_compute(
        self, job: Job, entry: PointEntry, span: Any
    ) -> Tuple[Dict[str, Any], str]:
        """Satisfy one entry: adopt an existing record or compute one.

        Returns ``(record, status)`` with status ``"cached"`` (the store
        already held it), ``"dedup"`` (another job — or a racing external
        driver whose claim this entry waited on — produced it while the
        service ran), or ``"computed"``.

        A hit is answered right here on the event loop; only a miss pays
        the hop to a worker thread, where the orchestrator's
        :func:`~repro.scenarios.orchestrator.serve_point` — the same
        commit path a CLI sweep runs — claims or follows, computes and
        saves (in-service jobs are serialised through this very loop, so
        a claim it has to wait on belongs to another process).
        """
        scenario = job.spec.name
        key = entry.key
        status = "cached"
        record = None
        if not job.force:
            record = load_cached_record(self.store, scenario, key, span)
        if record is None:
            record, status = await asyncio.to_thread(
                serve_point,
                self.store,
                job.spec,
                entry,
                job.trials,
                partial(
                    compute_point_result,
                    get_runner(job.spec.kind),
                    self.executor,
                    job.spec,
                    entry,
                    job.trials,
                ),
                span,
                force=job.force,
                skip_first_read=True,  # it just missed, above
            )
        if status == "computed":
            self._produced[(scenario, key)] = job.id
        elif status == "followed":
            status = "dedup"
        elif self._produced.get((scenario, key), job.id) != job.id:
            # Already on disk, but another job of this service put it there.
            status = "dedup"
        return record, status

    async def _notify(self) -> None:
        condition = self.table.condition
        if condition is None:
            return
        async with condition:
            condition.notify_all()

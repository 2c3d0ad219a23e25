"""The sweep service's job table: submitted sweeps and their lifecycles.

A :class:`Job` is one submitted sweep — a resolved scenario grid plus
live progress state — and the :class:`JobTable` is the daemon's shared
view of every job it has accepted.  Both are plain state holders: the
scheduler (:mod:`repro.service.scheduler`) mutates them from the event
loop, the server (:mod:`repro.service.server`) reads them to answer
``status``/``watch`` requests, and a single :class:`asyncio.Condition`
on the table lets watchers sleep until *any* job makes progress.

A job moves ``queued → running → done`` (or ``failed``/``cancelled``).
Cancellation is cooperative and entry-grained: ``cancel_requested`` is a
flag the scheduler honours between points, never mid-point — a point in
flight always finishes (and persists) so the store stays consistent at
entry boundaries, exactly like a CLI sweep interrupted between points.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.scenarios.orchestrator import PointEntry
from repro.scenarios.spec import ScenarioSpec

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

#: States a job never leaves.
TERMINAL_STATES = frozenset({JOB_DONE, JOB_FAILED, JOB_CANCELLED})


class Job:
    """One submitted sweep: its resolved grid and its live progress."""

    def __init__(
        self,
        job_id: str,
        spec: ScenarioSpec,
        trials: int,
        entries: List[PointEntry],
        force: bool = False,
    ) -> None:
        self.id = job_id
        #: The *effective* spec (batch_size already folded in) — cache
        #: keys derived from it match a CLI sweep's by construction.
        self.spec = spec
        self.trials = trials
        #: The resolved grid, released once the job is finished: a
        #: finished job answers ``status`` and ``watch`` from its counters
        #: and frames, so a long-lived daemon does not keep every grid.
        self.entries = entries
        self.points = len(entries)
        self.force = force
        self.status = JOB_QUEUED
        #: Next entry index the scheduler will serve.
        self.cursor = 0
        #: Entries finished — the fair-share key: the scheduler always
        #: admits the runnable job that has been served least.
        self.served = 0
        self.computed = 0
        self.cached = 0
        #: Points satisfied by a record some *other* job (or a racing
        #: external driver) produced while this service ran — the shared
        #: work the service deduplicated instead of recomputing.
        self.dedup_hits = 0
        self.trials_run = 0
        self.error: Optional[str] = None
        self.cancel_requested = False
        self.submitted_at = time.time()
        self.finished_at: Optional[float] = None
        #: One frame per finished entry, in service order — what
        #: ``watch`` streams.  Frames are JSON-safe dicts carrying a
        #: monotonically increasing ``seq`` so a watcher can resume
        #: after any frame it has already seen.
        self.progress: List[Dict[str, Any]] = []

    @property
    def finished(self) -> bool:
        return self.status in TERMINAL_STATES

    @property
    def runnable(self) -> bool:
        """Whether the scheduler still has entries to serve for this job."""
        return (
            self.status in (JOB_QUEUED, JOB_RUNNING)
            and not self.cancel_requested
            and self.cursor < self.points
        )

    def finish(self, status: str) -> None:
        """Enter terminal ``status`` and release the resolved grid."""
        self.status = status
        self.finished_at = time.time()
        self.entries = []

    def describe(self) -> Dict[str, Any]:
        """The job as one JSON-safe status dict (the ``status`` reply)."""
        return {
            "job": self.id,
            "scenario": self.spec.name,
            "status": self.status,
            "points": self.points,
            "served": self.served,
            "computed": self.computed,
            "cached": self.cached,
            "dedup_hits": self.dedup_hits,
            "trials_run": self.trials_run,
            "trials": self.trials,
            "force": self.force,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "finished_at": self.finished_at,
        }


class JobTable:
    """Every job the daemon has accepted, in submission order."""

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}
        self._sequence = 0
        #: Created by the server once its event loop exists; every
        #: progress update and state change notifies it, and ``watch``
        #: handlers wait on it.
        self.condition: Optional[Any] = None

    def next_id(self) -> str:
        self._sequence += 1
        return f"job-{self._sequence:04d}"

    def add(self, job: Job) -> None:
        self._jobs[job.id] = job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def all(self) -> List[Job]:
        return list(self._jobs.values())

    def runnable(self) -> List[Job]:
        return [job for job in self._jobs.values() if job.runnable]

    def open_jobs(self) -> List[Job]:
        """Jobs not yet in a terminal state (queued or running)."""
        return [job for job in self._jobs.values() if not job.finished]

    def __len__(self) -> int:
        return len(self._jobs)

"""The public programmatic façade.

Programmatic users previously imported five internal modules to run a
sweep (`scenarios.registry`, `scenarios.orchestrator`, `scenarios.store`,
`experiments.engine`, `experiments.executors`).  This module is the one
front door::

    from repro import api

    report = api.run_scenario("fig6a", trials=200, jobs=4)
    report = api.run_sweep("fig7", store=".repro-store", backend="process-pool",
                           jobs=8, tolerance=0.02)
    records = api.load_results(".repro-store", "fig7")
    job = api.submit_sweep("127.0.0.1:7272", "fig7", watch=True)
    for backend in api.list_backends():
        print(backend["name"], backend["description"])

Scenario arguments accept either a registered name or a full
:class:`~repro.scenarios.spec.ScenarioSpec`; backend arguments accept a
registry name, a :class:`~repro.backends.base.BackendSpec`, or an
already-open :class:`~repro.backends.ExecutionBackend` instance.
Everything here is a thin composition of the stable subsystems — specs,
backends, orchestrator, store — so anything the façade can do, the
underlying modules can too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.backends.base import BackendSpec
from repro.backends.registry import list_backends as _registry_list_backends
from repro.experiments.executors import ExecutionBackend
from repro.scenarios.orchestrator import SweepOrchestrator, SweepReport
from repro.scenarios.registry import get_scenario, scenario_names
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultStore, VerifyReport

#: What every ``scenario`` parameter accepts.
ScenarioLike = Union[str, ScenarioSpec]

#: What every ``backend`` parameter accepts.
BackendLike = Union[str, BackendSpec, ExecutionBackend, None]

#: What every ``store`` parameter accepts.
StoreLike = Union[str, Path, ResultStore, None]

__all__ = [
    "ScenarioSpec",
    "BackendSpec",
    "SweepReport",
    "VerifyReport",
    "get_scenario",
    "job_status",
    "scenario_names",
    "list_backends",
    "load_results",
    "repair_store",
    "run_scenario",
    "run_sweep",
    "submit_sweep",
    "verify_store",
]


def _resolve_scenario(scenario: ScenarioLike) -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario
    return get_scenario(scenario)


def _resolve_store(store: StoreLike) -> Optional[ResultStore]:
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(store)


def run_scenario(
    scenario: ScenarioLike,
    *,
    trials: Optional[int] = None,
    tolerance: Optional[float] = None,
    backend: BackendLike = None,
    jobs: Optional[int] = None,
    trace: Optional[Any] = None,
) -> SweepReport:
    """Run every point of one scenario, without persistence.

    The in-memory sibling of :func:`run_sweep`: same grid expansion,
    same per-point tolerance schedule, same single-backend-per-run
    execution — results come back in the report only.
    """
    return run_sweep(
        scenario,
        store=None,
        trials=trials,
        tolerance=tolerance,
        backend=backend,
        jobs=jobs,
        trace=trace,
    )


def run_sweep(
    scenario: ScenarioLike,
    *,
    store: StoreLike = None,
    trials: Optional[int] = None,
    tolerance: Optional[float] = None,
    backend: BackendLike = None,
    jobs: Optional[int] = None,
    force: bool = False,
    progress: Optional[Any] = None,
    trace: Optional[Any] = None,
    fallback: Optional[str] = None,
    point_deadline: Optional[float] = None,
) -> SweepReport:
    """Run (or resume) a scenario sweep through the orchestrator.

    With a ``store``, completed points are persisted under their content
    hash and skipped on re-runs — calling this twice performs zero new
    trials the second time, and an interrupted sweep resumes from the
    last persisted point.  ``backend`` picks the execution substrate
    (``"serial"``, ``"process-pool"``, ``"distributed"`` with a workers
    option, or any registered/pre-built backend) and wins over the
    spec's pinned ``engine.backend``, which wins over the ``jobs``
    sugar.  None of them changes results or cache keys.

    ``trace`` records the run's span tree and typed events — a
    :class:`~repro.obs.trace.Tracer`, or a path to write a JSONL trace
    to (the tracer is then owned, and closed, by this call).  Tracing is
    a pure side channel: results and store records are byte-identical
    with it on, off, or failing.

    Crash-safety knobs (see :mod:`repro.scenarios.orchestrator`):
    ``fallback="local"`` opts into the degradation ladder — when the
    fleet collapses (``NoWorkersLeft``) or a point blows its
    ``point_deadline`` (seconds), the sweep finishes on a local backend
    instead of aborting; records stay byte-identical either way.  With
    a ``store`` the per-sweep write-ahead journal is always kept: it is
    what lets a resume after SIGKILL tell committed points from
    mid-flight ones.
    """
    spec = _resolve_scenario(scenario)
    tracer, owned = _resolve_trace(trace)
    orchestrator = SweepOrchestrator(
        store=_resolve_store(store),
        jobs=jobs,
        backend=backend,
        tolerance=tolerance,
        tracer=tracer,
        fallback=fallback,
        point_deadline=point_deadline,
    )
    try:
        return orchestrator.run(
            spec, trials=trials, force=force, progress=progress
        )
    finally:
        if owned and tracer is not None:
            tracer.close()


def _resolve_trace(trace: Optional[Any]):
    """``trace`` → ``(tracer, owned)``: paths become owned Tracers."""
    if trace is None:
        return None, False
    if isinstance(trace, (str, Path)):
        from repro.obs import JsonlSink, Tracer

        return Tracer(JsonlSink(trace)), True
    return trace, False


def load_results(store: StoreLike, scenario: ScenarioLike) -> List[Dict[str, Any]]:
    """Load every cached point record of a scenario from a result store.

    Records come back in deterministic (content-key) order; each is the
    exact dict a sweep persisted — ``point``, ``params``, ``result``,
    ``trials``, ``seed``, ``tolerance``, ``store_generation``.  An
    empty list means the store holds nothing for that scenario.
    """
    resolved = _resolve_store(store)
    if resolved is None:
        raise ValueError("load_results needs a store path or ResultStore")
    name = (
        scenario.name
        if isinstance(scenario, ScenarioSpec)
        else str(scenario)
    )
    return [resolved.load(name, key) for key in resolved.keys(name)]


def verify_store(
    store: StoreLike, scenario: Optional[ScenarioLike] = None
) -> VerifyReport:
    """Checksum-verify a result store (or one scenario within it).

    Every record is re-hashed against its embedded ``checksum``; the
    report buckets records as ok / corrupt (torn JSON) / mismatched
    (bytes changed since write, or checksum stripped), and lists
    orphaned temp files.  Read-only — pair with
    :func:`repair_store` to quarantine what it flags.
    """
    resolved = _resolve_store(store)
    if resolved is None:
        raise ValueError("verify_store needs a store path or ResultStore")
    name = None
    if scenario is not None:
        name = (
            scenario.name
            if isinstance(scenario, ScenarioSpec)
            else str(scenario)
        )
    return resolved.verify(name)


def repair_store(
    store: StoreLike, scenario: Optional[ScenarioLike] = None
) -> VerifyReport:
    """Verify a store and quarantine every damaged record it finds.

    Quarantined records move to the store's ``.quarantine/`` directory
    (out of the content-addressed namespace), so the next sweep or
    ``resume`` recomputes just those points.  Returns the verify report
    with ``quarantined`` filled in.
    """
    resolved = _resolve_store(store)
    if resolved is None:
        raise ValueError("repair_store needs a store path or ResultStore")
    name = None
    if scenario is not None:
        name = (
            scenario.name
            if isinstance(scenario, ScenarioSpec)
            else str(scenario)
        )
    return resolved.repair(name)


def submit_sweep(
    address: str,
    scenario: ScenarioLike,
    *,
    trials: Optional[int] = None,
    tolerance: Optional[float] = None,
    batch_size: Optional[int] = None,
    force: bool = False,
    watch: bool = False,
    on_progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Submit a sweep to a running ``repro serve`` daemon.

    The daemon runs the scenario as a *job* over its own store and
    backend, fair-sharing points with any other jobs in flight and
    deduplicating overlapping work — a point being computed for one job
    is adopted by every other, never recomputed.  Returns the accept
    reply (``job`` id, ``points``); with ``watch=True``, follows the
    progress stream (``on_progress`` receives each per-point frame) and
    returns the job's *final* status dict instead — ``status``,
    ``computed``, ``cached``, ``dedup_hits``, ``trials_run``.

    The daemon runs registered scenarios only, by name: a spec that
    differs from the registered one of its name (say, from
    ``with_overrides``) raises ``ValueError`` before anything connects —
    pass its trials and tolerance as arguments instead.
    """
    from repro.service import submit_job, watch_job

    if isinstance(scenario, ScenarioSpec):
        if scenario != get_scenario(scenario.name):
            raise ValueError(
                f"spec {scenario.name!r} differs from the registered "
                "scenario of that name; the daemon runs registered "
                "scenarios only"
            )
        name = scenario.name
    else:
        name = str(scenario)
    accepted = submit_job(
        address,
        name,
        trials=trials,
        tolerance=tolerance,
        batch_size=batch_size,
        force=force,
    )
    if not watch:
        return accepted
    return watch_job(address, accepted["job"], on_frame=on_progress)


def job_status(
    address: str, job: Optional[str] = None
) -> Dict[str, Any]:
    """One service job's status dict — or, without ``job``, all of them.

    Thin wrapper over the daemon's ``status`` op: a single job comes
    back as its describe dict, no job argument returns
    ``{"jobs": [...]}`` covering every job the daemon has accepted.
    """
    from repro.service import job_status as _job_status

    reply = _job_status(address, job)
    return reply["job"] if job is not None else reply


def list_backends() -> List[Dict[str, Any]]:
    """Describe every registered execution backend (JSON-safe dicts)."""
    return _registry_list_backends()

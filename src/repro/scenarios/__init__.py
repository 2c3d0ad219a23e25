"""Declarative scenarios: specs, registry, sweep orchestration, result store.

The subsystem that makes every figure and extension sweep a piece of data:

- :mod:`repro.scenarios.spec` — frozen, JSON-round-trippable
  :class:`ScenarioSpec` dataclasses describing a complete workload;
- :mod:`repro.scenarios.registry` — every paper figure and extension as a
  named scenario, plus workloads beyond the paper's figures;
- :mod:`repro.scenarios.runners` — per-kind point runners (register your
  own with :func:`register_kind` to declare a brand-new workload);
- :mod:`repro.scenarios.orchestrator` — grid expansion, one shared
  executor pool per sweep, per-point tolerance schedules;
- :mod:`repro.scenarios.store` — the content-addressed result store that
  makes sweeps incremental and resumable.

CLI: ``repro scenarios list/show`` and ``repro sweep run/resume``.
"""

from repro.scenarios.journal import (
    JournalBusyError,
    JournalOwnershipLost,
    SweepJournal,
    sweep_spec_hash,
)
from repro.scenarios.orchestrator import SweepOrchestrator, SweepReport
from repro.scenarios.registry import builtin_scenarios, get_scenario, scenario_names
from repro.scenarios.runners import get_runner, kind_names, register_kind
from repro.scenarios.spec import (
    Axis,
    EngineSettings,
    ScenarioSpec,
    SweepPoint,
    ToleranceRule,
    ToleranceSchedule,
)
from repro.scenarios.store import (
    PointClaim,
    ResultStore,
    StoreIntegrityError,
    VerifyReport,
    point_cache_key,
)

__all__ = [
    "Axis",
    "EngineSettings",
    "JournalBusyError",
    "JournalOwnershipLost",
    "PointClaim",
    "ResultStore",
    "ScenarioSpec",
    "StoreIntegrityError",
    "SweepJournal",
    "SweepOrchestrator",
    "SweepPoint",
    "SweepReport",
    "ToleranceRule",
    "ToleranceSchedule",
    "VerifyReport",
    "builtin_scenarios",
    "get_runner",
    "get_scenario",
    "kind_names",
    "point_cache_key",
    "register_kind",
    "scenario_names",
    "sweep_spec_hash",
]

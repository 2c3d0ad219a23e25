"""Declarative scenarios: specs, registry, sweep orchestration, result store.

The subsystem that makes every figure and extension sweep a piece of data:

- :mod:`repro.scenarios.spec` — frozen, JSON-round-trippable
  :class:`ScenarioSpec` dataclasses describing a complete workload;
- :mod:`repro.scenarios.registry` — every paper figure and extension as a
  named scenario, plus workloads beyond the paper's figures;
- :mod:`repro.scenarios.runners` — per-kind point runners (register your
  own with :func:`~repro.scenarios.runners.register_kind` to declare a
  brand-new workload);
- :mod:`repro.scenarios.orchestrator` — grid expansion, one shared
  executor pool per sweep, per-point tolerance schedules;
- :mod:`repro.scenarios.store` / :mod:`repro.scenarios.journal` — the
  content-addressed result store that makes sweeps incremental and
  resumable, and the sweep journal.

The package re-exports the spec, registry, store and journal names only,
so listing or showing a scenario loads neither numpy nor scipy.  Import
the orchestrator's and the runners' names from their modules.

CLI: ``repro scenarios list/show`` and ``repro sweep run/resume``.
"""

from repro.scenarios.journal import SweepJournal, sweep_spec_hash
from repro.scenarios.registry import builtin_scenarios, get_scenario
from repro.scenarios.spec import Axis, ScenarioSpec
from repro.scenarios.store import ResultStore, point_cache_key

__all__ = [
    "Axis",
    "ResultStore",
    "ScenarioSpec",
    "SweepJournal",
    "builtin_scenarios",
    "get_scenario",
    "point_cache_key",
    "sweep_spec_hash",
]

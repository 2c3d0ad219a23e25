"""Unified execution backends: one protocol, many substrates.

The repository's execution layer in one subsystem:

- :class:`ExecutionBackend` — the one interface (open/close +
  start/finish lifecycles; one ``run(task, start, stop)`` span call —
  the :class:`~repro.experiments.executors.TrialTask` knows its own
  kind), defined beside the local implementations in
  :mod:`repro.experiments.executors`;
- :mod:`repro.backends.base` — the JSON-round-trippable
  :class:`BackendSpec`;
- :mod:`repro.backends.registry` — ``get("serial" | "process-pool" |
  "distributed")``, the one resolver (``backend=`` >
  ``spec.engine.backend`` > ``jobs``), plus :func:`register_backend`
  for new substrates;
- :mod:`repro.backends.distributed` / :mod:`repro.backends.worker` —
  the TCP span protocol: ``repro worker serve --bind`` on the worker
  side, :class:`DistributedBackend` on the orchestrator side, with
  worker-failure retry/rebalancing, heartbeat liveness probing, and a
  per-worker circuit breaker;
- :mod:`repro.backends.pool` — :class:`WorkerPool`: spawn a local pool
  of serve processes (or adopt a remote host list) in one call, with
  bounded respawn of dead children;
- :mod:`repro.backends.membership` — elastic-fleet membership: the
  driver-side announce registry (``repro worker serve --announce``) and
  the hosts-file watcher that let workers join/leave a *running* sweep;
- :mod:`repro.backends.faults` — deterministic, seedable fault
  injection (:class:`FaultPlan`): how the chaos tests and the CI chaos
  job prove counts survive worker failure bit-identically;
- :mod:`repro.backends.autotune` — span sizing from in-run observed
  rates (``chunk_size="auto"``).

Every backend honours the determinism contract — streams keyed by
``(seed, label, index)`` and exact integer aggregation make results
backend-invariant — so backends are interchangeable at run time and
excluded from result-store cache keys.
"""

from repro.backends.base import BackendSpec
from repro.backends.autotune import suggest_chunk_size
from repro.backends.distributed import (
    DistributedBackend,
    NoWorkersLeft,
    WorkerLost,
)
from repro.backends.faults import FaultPlan, FaultSpec
from repro.backends.membership import (
    HostsFileWatcher,
    MembershipRegistry,
    RegistryBusyError,
    announce_worker,
    retire_worker,
)
from repro.backends.pool import WorkerPool, load_hosts_file, write_addresses_file
from repro.backends.registry import (
    BackendEntry,
    backend_names,
    get,
    list_backends,
    register_backend,
    resolve_spec,
    spec_for_jobs,
)
from repro.backends.wire import probe_worker
from repro.backends.worker import WorkerServer, serve
from repro.experiments.executors import ExecutionBackend

__all__ = [
    "BackendEntry",
    "BackendSpec",
    "DistributedBackend",
    "ExecutionBackend",
    "FaultPlan",
    "FaultSpec",
    "HostsFileWatcher",
    "MembershipRegistry",
    "NoWorkersLeft",
    "RegistryBusyError",
    "WorkerLost",
    "WorkerPool",
    "WorkerServer",
    "announce_worker",
    "backend_names",
    "get",
    "list_backends",
    "load_hosts_file",
    "probe_worker",
    "register_backend",
    "resolve_spec",
    "retire_worker",
    "serve",
    "spec_for_jobs",
    "suggest_chunk_size",
    "write_addresses_file",
]

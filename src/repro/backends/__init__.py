"""Unified execution backends: one protocol, many substrates.

The repository's execution layer in one subsystem.  This package
re-exports nothing — import each name from the module that defines it,
so a caller that needs only the wire framing (``repro jobs``, the worker)
never loads the numerical stack:

- :class:`~repro.experiments.executors.ExecutionBackend` — the one
  interface (open/close + start/finish lifecycles; one
  ``run(task, start, stop)`` span call — the
  :class:`~repro.experiments.executors.TrialTask` knows its own kind),
  defined beside the local implementations in
  :mod:`repro.experiments.executors`;
- :mod:`repro.backends.base` — the JSON-round-trippable ``BackendSpec``;
- :mod:`repro.backends.registry` — ``get("serial" | "process-pool" |
  "distributed")``, the one resolver (``backend=`` >
  ``spec.engine.backend`` > ``jobs``), plus ``register_backend`` for new
  substrates; each entry accepts only the options an operator can set;
- :mod:`repro.backends.wire` — the length-prefixed JSON framing, the
  ``hello`` handshake and the worker and sweep-service role strings;
- :mod:`repro.backends.distributed` / :mod:`repro.backends.worker` —
  the TCP span protocol: ``repro worker serve --bind`` on the worker
  side, ``DistributedBackend`` on the orchestrator side, with
  worker-failure retry/rebalancing, heartbeat liveness probing, and a
  per-worker circuit breaker (its timing values are module constants);
- :mod:`repro.backends.pool` — ``WorkerPool``: spawn a local pool of
  serve processes in one call, with bounded respawn of dead children;
- :mod:`repro.backends.membership` — elastic-fleet membership: the
  driver-side announce registry (``repro worker serve --announce``) and
  the hosts file watcher that let workers join/leave a *running* sweep;
- :mod:`repro.backends.faults` — deterministic, seedable fault
  injection (``FaultPlan``): how the chaos tests prove counts survive
  worker failure bit-identically;
- :mod:`repro.backends.autotune` — span sizing from in-run observed
  rates (``chunk_size="auto"``).

Every backend honours the determinism contract — streams keyed by
``(seed, label, index)`` and exact integer aggregation make results
backend-invariant — so backends are interchangeable at run time and
excluded from result-store cache keys.
"""

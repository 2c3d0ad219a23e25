"""The units behind the paper's evaluation (Section IV).

The sweeps are the registered ``fig6a``…``fig8`` scenarios
(:mod:`repro.scenarios.registry`) and a point is one scenario kind
(:mod:`repro.scenarios.runners`); the modules here hold what a kind
ships to the engine — the trial and batch units, each a class in
:data:`repro.backends.wire.UNITS`, so every backend can ship it — or,
where the model is a product of independent events, the closed form a
kind returns without the engine:

- :mod:`repro.experiments.attack_resilience` — Fig. 6(a)-(d): the
  finite-population attack measurement (N = 10,000 and N = 100) shared
  by the ``attack_resilience`` and ``sensitivity`` kinds;
- :mod:`repro.experiments.churn_model` — the epoch churn model of
  Fig. 7(a)-(d) (α = T / t_life in {1, 2, 3, 5}) and Fig. 8 (key-share
  resilience vs available-node budget N in {100, 1000, 5000, 10000}), in
  closed form (DESIGN.md §5);
- :mod:`repro.experiments.availability` — the unavailability
  extension (the ``availability`` kind) in closed form;
- :mod:`repro.experiments.timeliness` — the end-to-end protocol trial
  (the ``timeliness`` kind).

The ``epoch_availability`` and ``epoch_timeliness`` kinds measure the
same two extensions under lifetime churn; their batch units live in
:mod:`repro.epoch.measure`.  Shared machinery:

- :mod:`repro.experiments.engine` — the batched parallel Monte-Carlo
  trial engine (pluggable execution backends, streaming aggregation,
  adaptive early stopping) every measured experiment runs through;
- :mod:`repro.experiments.attack_kernels` — the vectorised
  finite-population attack kernels behind Fig. 6's measured curves;
- :mod:`repro.experiments.executors` — the ``ExecutionBackend``
  interface, its determinism contract, and the serial and process-pool
  implementations;
- :mod:`repro.experiments.reporting` — textual tables and series, the
  format the benchmarks print.
"""

from repro.experiments.engine import TrialEngine

__all__ = ["TrialEngine"]

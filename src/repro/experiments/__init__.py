"""The per-point experiment units behind the paper's evaluation (Section IV).

One module per figure, each exposing the typed ``*_point`` function the
scenario runners call (the sweeps themselves are the registered
``fig6a``…``fig8`` scenarios — :mod:`repro.scenarios.registry`):

- :mod:`repro.experiments.attack_resilience` — Fig. 6(a)-(d): attack
  resilience and node cost vs malicious rate, N = 10,000 and N = 100;
- :mod:`repro.experiments.churn_resilience` — Fig. 7(a)-(d): resilience
  under churn for α = T / t_life in {1, 2, 3, 5};
- :mod:`repro.experiments.cost` — Fig. 8: key-share scheme resilience vs
  available-node budget N in {100, 1000, 5000, 10000};

plus shared machinery:

- :mod:`repro.experiments.engine` — the batched parallel Monte-Carlo
  trial engine (pluggable execution backends, streaming aggregation,
  adaptive early stopping) every experiment runs through;
- :mod:`repro.experiments.attack_kernels` — the vectorised
  finite-population attack kernels behind Fig. 6's default
  ``kernel="vectorized"`` lane;
- :mod:`repro.experiments.executors` — the ``ExecutionBackend``
  interface, its determinism contract, and the serial and process-pool
  implementations;
- :mod:`repro.experiments.churn_model` — the vectorised epoch churn model
  (DESIGN.md §5);
- :mod:`repro.experiments.reporting` — textual tables and series, the
  format the benchmarks print.
"""

from repro.experiments.attack_kernels import (
    CentralAttackBatch,
    MultipathAttackBatch,
    attack_batch_for,
)
from repro.experiments.attack_resilience import (
    AttackResiliencePoint,
    attack_resilience_point,
)
from repro.experiments.availability import AvailabilityPoint, availability_point
from repro.experiments.churn_resilience import ChurnPoint, churn_resilience_point
from repro.experiments.cost import CostPoint, share_cost_point
from repro.experiments.engine import (
    EngineResult,
    MonteCarloEstimate,
    PairedEstimate,
    TrialEngine,
)
from repro.experiments.reporting import format_series_table

__all__ = [
    "attack_resilience_point",
    "AttackResiliencePoint",
    "attack_batch_for",
    "CentralAttackBatch",
    "MultipathAttackBatch",
    "churn_resilience_point",
    "ChurnPoint",
    "share_cost_point",
    "CostPoint",
    "availability_point",
    "AvailabilityPoint",
    "TrialEngine",
    "EngineResult",
    "MonteCarloEstimate",
    "PairedEstimate",
    "format_series_table",
]

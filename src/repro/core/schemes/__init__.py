"""The four self-emerging key routing schemes (paper §III).

Every scheme exposes the same surface:

- ``name`` — the label the paper's figures use;
- ``resilience(p)`` — closed-form (or Algorithm-1) no-churn resilience;
- ``sample_structure(population, rng)`` — draw the holder structure the
  sender would build;
- ``evaluate_attacks(structure, population)`` — static attack outcome for
  one sampled structure (the Monte-Carlo inner loop).

The churn-aware resilience (closed form) lives in
:mod:`repro.experiments.churn_model` because it is shared across schemes.
"""

from repro.core.schemes.base import Scheme
from repro.core.schemes.centralized import CentralizedScheme
from repro.core.schemes.disjoint import NodeDisjointScheme
from repro.core.schemes.joint import NodeJointScheme
from repro.core.schemes.keyshare import KeyShareScheme, algorithm1, plan_share_scheme

__all__ = [
    "Scheme",
    "CentralizedScheme",
    "NodeDisjointScheme",
    "NodeJointScheme",
    "KeyShareScheme",
    "algorithm1",
    "plan_share_scheme",
]

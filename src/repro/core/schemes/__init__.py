"""The self-emerging key routing schemes (paper §III).

The centralized, node-disjoint and node-joint schemes are objects with one
surface:

- ``name`` — the label the paper's figures use;
- ``resilience(p)`` — closed-form no-churn resilience;
- ``node_cost`` — distinct holders the structure consumes.

The two multipath schemes share :class:`~repro.core.schemes.base.MultipathScheme`,
which adds the adaptive adversary's inner loop:

- ``sample_structure(population, rng)`` — draw the ``k x l`` holder grid
  the sender would build;
- ``evaluate_attacks(grid, population)`` — static attack outcome for one
  grid, by :func:`repro.core.analysis.evaluate_multipath_masks`.

Key share routing is Algorithm 1 (:func:`algorithm1`,
:func:`plan_share_scheme`): a plan, not a sampled structure.

The churn-aware resilience (closed form) lives in
:mod:`repro.experiments.churn_model` because it is shared across schemes.
"""

from repro.core.schemes.base import Scheme
from repro.core.schemes.centralized import CentralizedScheme
from repro.core.schemes.disjoint import NodeDisjointScheme
from repro.core.schemes.joint import NodeJointScheme
from repro.core.schemes.keyshare import algorithm1, plan_share_scheme

__all__ = [
    "Scheme",
    "CentralizedScheme",
    "NodeDisjointScheme",
    "NodeJointScheme",
    "algorithm1",
    "plan_share_scheme",
]

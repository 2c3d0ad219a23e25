"""Churn models for the DHT population (paper §II-C).

Two phenomena are modelled, following the paper's taxonomy:

- **node death** (long-term churn): a node leaves forever; its id and stored
  data are lost.  Lifetimes are exponentially distributed with mean
  ``t_life`` (the decay model of Bhagwan et al. that Algorithm 1 assumes:
  ``p_dead = 1 - exp(-t / t_life)``).
- **node unavailability** (short-term churn): a node departs transiently and
  rejoins; storage survives but the node cannot send or receive meanwhile.

:mod:`repro.churn.process` drives these against a simulated network on the
event loop; :mod:`repro.epoch` measures them, with the column-replica
repair the multipath schemes rely on and its release-ahead exposure cost
(every repair hands the column key to one more node), on whole node
populations.
"""

from repro.churn.lifetime import ExponentialLifetime
from repro.churn.process import ChurnProcess

__all__ = ["ExponentialLifetime", "ChurnProcess"]

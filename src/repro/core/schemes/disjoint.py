"""Node-disjoint multipath routing (paper §III-B).

``k`` replicated, node-disjoint onion paths of length ``l``.  Layer keys
``K_1..K_l`` are pre-assigned to the holders at the start time: every
column-``j`` holder (one per path) stores the same ``K_j``.  The onion
forces the adversary to capture one holder in *every* column for early
release (Eq. 1); the ``k`` replicated paths force it to cut every path for
a drop (Eq. 2).
"""

from __future__ import annotations

from repro.core.analysis import ResiliencePair, disjoint_resilience
from repro.core.schemes.base import MultipathScheme


class NodeDisjointScheme(MultipathScheme):
    """The ``k``-path, length-``l`` node-disjoint onion routing scheme."""

    name = "disjoint"
    joint = False

    def resilience(self, malicious_rate: float) -> ResiliencePair:
        return disjoint_resilience(
            malicious_rate, self.replication, self.path_length
        )

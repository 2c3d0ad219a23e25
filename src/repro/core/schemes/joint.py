"""Node-joint multipath routing (paper §III-C).

Same ``k x l`` holder grid and key pre-assignment as the node-disjoint
scheme, but every column-``j`` holder forwards the onion to *every* column
``j + 1`` holder, multiplying the effective path count to ``k^l`` without
extra nodes.  Release-ahead resilience is unchanged (Eq. 1); drop now
requires owning a whole column (Eq. 3), and Lemma 1 guarantees
``Rr + Rd > 1`` for ``p < 0.5``.
"""

from __future__ import annotations

from repro.core.analysis import ResiliencePair, joint_resilience
from repro.core.schemes.base import MultipathScheme


class NodeJointScheme(MultipathScheme):
    """The ``k x l`` node-joint (full column fan-out) routing scheme."""

    name = "joint"
    joint = True

    def resilience(self, malicious_rate: float) -> ResiliencePair:
        return joint_resilience(malicious_rate, self.replication, self.path_length)

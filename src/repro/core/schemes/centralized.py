"""The centralized scheme (paper §III-A): one node holds the key for all of T.

The baseline in every figure.  Both attacks reduce to "is that one node
malicious" — ``Rr = Rd = 1 - p`` — and churn reduces ``Rd`` further because
a dead holder loses the key with nobody to repair from.
"""

from __future__ import annotations

from repro.core.analysis import ResiliencePair, centralized_resilience
from repro.core.schemes.base import Scheme


class CentralizedScheme(Scheme):
    """Store the secret key on a single pseudo-randomly chosen holder."""

    name = "central"

    def resilience(self, malicious_rate: float) -> ResiliencePair:
        return centralized_resilience(malicious_rate)

    @property
    def node_cost(self) -> int:
        return 1

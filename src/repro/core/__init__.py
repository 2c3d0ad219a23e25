"""The paper's contribution: self-emerging key routing in a DHT.

Layout:

- :mod:`repro.core.timeline` — emerging-period arithmetic (``ts``, ``tr``,
  ``T``, holding period ``th``, period boundaries).
- :mod:`repro.core.paths` — pseudo-random holder grid / share lattice
  construction.
- :mod:`repro.core.onion` — layered onion packages (build and peel).
- :mod:`repro.core.wire` — the byte-level serialization the onion and the
  protocol messages share.
- :mod:`repro.core.analysis` — the closed-form resilience equations
  (Eqs. 1-3 and Lemma 1) and their exact finite-population form.
- :mod:`repro.core.planner` — choosing ``(k, l)`` for a target resilience.
- :mod:`repro.core.schemes` — the schemes (centralized, node-disjoint,
  node-joint, and key-share routing as Algorithm 1).
- :mod:`repro.core.protocol` — holder runtime for end-to-end simulation on
  the DHT substrate.
- :mod:`repro.core.sender` / :mod:`repro.core.receiver` — Alice and Bob.
"""

from repro.core.planner import plan_configuration
from repro.core.receiver import DataReceiver
from repro.core.sender import DataSender
from repro.core.timeline import ReleaseTimeline

__all__ = ["ReleaseTimeline", "plan_configuration", "DataSender", "DataReceiver"]

"""Adversary models (paper §II-B).

The threat model: a single adversary (or colluding group) controls a
fraction ``p`` of the DHT population — obtained through Sybil or Eclipse
attacks — and pursues one of two goals against a self-emerging key:

- **release-ahead**: reconstruct the secret key before the release time
  by pooling everything malicious holders observe;
- **drop**: destroy the key so it can never be released, by having
  malicious holders refuse to forward.

The static success rules (Eqs. 1-3) are stated once, in
:func:`repro.core.analysis.evaluate_multipath_masks`; the live protocol
plays both attacks out in :mod:`repro.core.protocol`.

:mod:`repro.adversary.population` marks the malicious node set exactly the
way the paper's experiments do (``10000 * p`` non-repeated random nodes);
:mod:`repro.adversary.knowledge` is the collusion pool where malicious
holders deposit captured onions, keys and shares;
:mod:`repro.adversary.adaptive` is the traffic-observing extension.
"""

from repro.adversary.population import SybilPopulation

__all__ = ["SybilPopulation"]

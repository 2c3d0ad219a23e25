"""Adversary models (paper §II-B).

The threat model: a single adversary (or colluding group) controls a
fraction ``p`` of the DHT population — obtained through Sybil or Eclipse
attacks — and pursues one of two goals against a self-emerging key:

- **release-ahead** (:mod:`repro.adversary.release_ahead`): reconstruct the
  secret key before the release time by pooling everything malicious
  holders observe;
- **drop** (:mod:`repro.adversary.drop`): destroy the key so it can never
  be released, by having malicious holders refuse to forward.

:mod:`repro.adversary.population` marks the malicious node set exactly the
way the paper's experiments do (``10000 * p`` non-repeated random nodes);
:mod:`repro.adversary.knowledge` is the collusion pool where malicious
holders deposit captured onions, keys and shares.
"""

from repro.adversary.population import SybilPopulation

__all__ = ["SybilPopulation"]

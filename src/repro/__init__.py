"""repro - Timed-Release of Self-Emerging Data Using Distributed Hash Tables.

A from-scratch Python reproduction of Li & Palanisamy, ICDCS 2017: securely
hiding a data-decryption key inside a DHT so that it automatically emerges
at a predetermined release time, with resilience against release-ahead and
drop attacks and against DHT churn.

Quick tour (see README.md for a runnable quickstart):

- :mod:`repro.core` - the four self-emerging key routing schemes, the
  closed-form resilience analysis, Algorithm 1, the onion/package formats
  and the executable holder protocol.
- :mod:`repro.dht` - the Kademlia-style overlay substrate.
- :mod:`repro.crypto` - cipher, Shamir sharing, key handling.
- :mod:`repro.sim` - the deterministic discrete-event simulator.
- :mod:`repro.churn` - exponential lifetime churn and replica repair.
- :mod:`repro.adversary` - Sybil populations and the two attack models.
- :mod:`repro.cloud` - the encrypted-blob store.
- :mod:`repro.experiments` - the trial engine and the typed per-point
  units behind every figure of the paper's evaluation (Figs. 6, 7, 8).
- :mod:`repro.backends` - the unified execution layer: one
  ``ExecutionBackend`` interface over serial / process-pool / distributed
  (TCP worker) substrates.
- :mod:`repro.scenarios` - declarative sweep specs, orchestrator, and the
  content-addressed result store.
- :mod:`repro.api` - the public façade: ``run_scenario`` / ``run_sweep`` /
  ``load_results`` / ``list_backends`` without touching internals.
"""

__version__ = "1.0.0"

"""Vectorized epoch-stepped churn simulator for million-node populations.

The scalar ``repro.churn`` / ``repro.dht`` layers walk one node at a
time; this package re-expresses the same epoch semantics — lifetime
sampling, session up/down state, share placement, simultaneous-death
loss, repair/republish — as numpy arrays over ``(trials, path, replica)``
slabs backed by a shared node population, so availability and
timeliness can be *measured* on 10^6-node populations instead of
approximated analytically.

Layout mirrors the PR 3 attack-kernel split:

- :mod:`repro.epoch.population` — lifetime sampling + per-epoch masks,
- :mod:`repro.epoch.placement` — share→node assignment bookkeeping,
- :mod:`repro.epoch.repair` — the vectorized per-epoch repair round,
- :mod:`repro.epoch.measure` — ``TrialEngine``-compatible batch units.

The scalar reference walker the batch units are held to lives with the
tests (``tests/epoch_oracle.py``).
"""

from repro.epoch.measure import EPOCH_METRICS

__all__ = ["EPOCH_METRICS"]

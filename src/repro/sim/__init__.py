"""Deterministic discrete-event simulator.

The DHT, the churn process and the self-emerging key protocol all run on a
single :class:`~repro.sim.event_loop.EventLoop`: a priority queue of timed
events with a monotonically advancing virtual clock.  Determinism is total —
events at the same timestamp fire in insertion order, and all randomness
comes from :class:`~repro.util.rng.RandomSource` streams — so every test and
experiment is exactly reproducible from its seed.

Timelines are :mod:`repro.obs.trace` events: an overlay built with
``build_network(trace=sink)`` stamps them with this loop's virtual clock.
"""

"""Extension: release timeliness — how close to ``tr`` does the key land?

The paper evaluates *whether* the key is released and stolen/dropped; a
deployment also cares *when* it lands relative to the promised release
time.  This experiment runs the live protocol end to end on overlays with
varying network latency and reports the lateness distribution
(arrival − tr) per scheme, confirming the embedded-schedule design holds
the release instant to within one network hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cloud.storage import CloudStore
from repro.core.protocol import ProtocolContext, install_holders
from repro.core.receiver import DataReceiver
from repro.core.sender import DataSender
from repro.core.timeline import ReleaseTimeline
from repro.dht.bootstrap import build_network
from repro.experiments.engine import TrialEngine
from repro.sim.latency import UniformLatency
from repro.util.rng import RandomSource


@dataclass(frozen=True)
class TimelinessResult:
    """Lateness statistics for one (scheme, latency) setting."""

    scheme: str
    max_latency: float
    delivered: int
    runs: int
    mean_lateness: float
    worst_lateness: float
    early_releases: int  # arrivals before tr: must always be zero

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.runs


def _run_one(
    scheme: str,
    max_latency: float,
    seed: int,
    path_length: int,
) -> Optional[float]:
    """One end-to-end run; returns lateness (arrival - tr) or None."""
    latency = UniformLatency(0.001, max_latency, rng=RandomSource(seed, "lat"))
    overlay = build_network(100, seed=seed, latency=latency)
    context = ProtocolContext(
        network=overlay.network, resolve_targets=(scheme == "share")
    )
    install_holders(overlay, context)
    alice = DataSender(
        overlay.nodes[overlay.node_ids[0]],
        CloudStore(overlay.loop.clock),
        RandomSource(seed + 1, "alice"),
    )
    bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])
    timeline = ReleaseTimeline(0.0, 100.0 * path_length, path_length)
    if scheme == "central":
        result = alice.send_centralized(b"m", timeline.with_path_length(1), bob.node_id)
        timeline = result.timeline
    elif scheme in ("disjoint", "joint"):
        result = alice.send_multipath(
            b"m", timeline, bob.node_id, replication=3, joint=(scheme == "joint")
        )
    elif scheme == "share":
        result = alice.send_key_share(
            b"m",
            timeline,
            bob.node_id,
            share_rows=5,
            secret_rows=2,
            thresholds=[1] + [3] * (path_length - 1),
        )
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    overlay.loop.run(until=timeline.release_time + 60.0)
    arrival = bob.release_time_of(result.key_id)
    if arrival is None:
        return None
    return arrival - timeline.release_time


@dataclass(frozen=True)
class TimelinessTrial:
    """One end-to-end run as a picklable collect-mode trial callable."""

    scheme: str
    max_latency: float
    seed: int
    path_length: int

    def __call__(self, index: int, rng) -> Optional[float]:
        return _run_one(
            self.scheme, self.max_latency, self.seed + index * 13, self.path_length
        )


#: Kernel lanes ``timeliness_point`` dispatches between.  "event" is the
#: historical end-to-end event-loop protocol run; the epoch lanes measure
#: delivery lateness in holding epochs under churn (repro.epoch).
TIMELINESS_KERNELS = ("event", "epoch", "epoch-scalar")


def timeliness_point(
    scheme: str,
    max_latency: float,
    runs: int = 10,
    path_length: int = 3,
    seed: int = 31337,
    engine: Optional[TrialEngine] = None,
    kernel: str = "event",
    uptime: float = 0.9,
    alpha: float = 2.0,
    malicious_rate: float = 0.0,
    population_size: int = 10000,
    replication: int = 3,
    retry_epochs: int = 8,
    lifetime: str = "exponential",
    lifetime_shape: Optional[float] = None,
    batch_size: Optional[int] = None,
) -> TimelinessResult:
    """One (scheme, latency) point of the sweep — the sweepable unit.

    Each end-to-end run is one collect-mode engine trial; the per-run
    seeds are a function of the run index alone, keeping results identical
    for any executor.

    ``kernel="event"`` (the default — the only lane historical cache keys
    ever pinned) runs the live protocol on the simulated overlay; the
    ``"epoch"`` / ``"epoch-scalar"`` lanes measure lateness in *holding
    epochs* on the ``repro.epoch`` churn simulator, where the churn knobs
    (``uptime``, ``alpha``, ``malicious_rate``, ``population_size``,
    ``replication``, ``retry_epochs``, ``lifetime``) apply and
    ``max_latency`` is carried through for labeling only.  Epoch lateness
    is right-censored at ``retry_epochs``.
    """
    if engine is None:
        engine = TrialEngine()
    if kernel not in TIMELINESS_KERNELS:
        raise ValueError(
            f"unknown timeliness kernel {kernel!r}; "
            f"expected one of {TIMELINESS_KERNELS}"
        )
    if kernel != "event":
        from repro.epoch.measure import epoch_timeliness_result

        delivered, trials_run, mean_lateness, worst = epoch_timeliness_result(
            scheme,
            uptime,
            malicious_rate,
            population_size=population_size,
            alpha=alpha,
            lifetime=lifetime,
            lifetime_shape=lifetime_shape,
            path_length=path_length,
            replication=replication,
            retry_epochs=retry_epochs,
            trials=runs,
            seed=seed,
            engine=engine,
            batch_size=batch_size,
            scalar=(kernel == "epoch-scalar"),
        )
        return TimelinessResult(
            scheme=scheme,
            max_latency=max_latency,
            delivered=delivered,
            runs=trials_run,
            mean_lateness=mean_lateness,
            worst_lateness=worst,
            early_releases=0,
        )
    raw = engine.map(
        TimelinessTrial(scheme, max_latency, seed, path_length),
        trials=runs,
        seed=seed,
        label=f"timeliness-{scheme}-{max_latency}",
    )
    latenesses: List[float] = []
    early = 0
    for lateness in raw:
        if lateness is None:
            continue
        if lateness < 0:
            early += 1
        latenesses.append(lateness)
    return TimelinessResult(
        scheme=scheme,
        max_latency=max_latency,
        delivered=len(latenesses),
        runs=runs,
        mean_lateness=(sum(latenesses) / len(latenesses) if latenesses else 0.0),
        worst_lateness=max(latenesses) if latenesses else 0.0,
        early_releases=early,
    )

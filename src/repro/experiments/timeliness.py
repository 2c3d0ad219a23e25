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
from typing import Optional

from repro.cloud.storage import CloudStore
from repro.core.protocol import ProtocolContext, install_holders
from repro.core.receiver import DataReceiver
from repro.core.sender import DataSender
from repro.core.timeline import ReleaseTimeline
from repro.dht.bootstrap import build_network
from repro.sim.latency import UniformLatency
from repro.util.rng import RandomSource


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
    """One end-to-end run as a collect-mode engine unit."""

    scheme: str
    max_latency: float
    seed: int
    path_length: int

    def __call__(self, index: int, rng) -> Optional[float]:
        return _run_one(
            self.scheme, self.max_latency, self.seed + index * 13, self.path_length
        )

#!/usr/bin/env python3
"""Pins for the deterministic Kademlia lane (``tests/dht/test_lane_parity.py``).

    PYTHONPATH=src python3 tests/dht/golden/regen.py

rewrites ``lane_parity.json`` beside this file from whatever ``repro`` is
on the path.  The committed golden was generated on the commit *before*
the PR 13 rewrite of ``NodeId``/``RoutingTable``/the iterative lookup, so
it states what "same RPCs, same trace, same routing tables" means.  Only
rerun it in a PR that says why the lane's observable behaviour changed.

Node ids are digested through ``.value`` so the pins do not depend on
``NodeId``'s own encoding helpers; the trace digest does cover the
``str(NodeId)`` text inside every message.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Iterable, Optional

from repro.cloud import CloudStore
from repro.core import DataReceiver, DataSender, ReleaseTimeline
from repro.core.protocol import ProtocolContext, install_holders
from repro.dht import build_network
from repro.dht.node_id import NodeId
from repro.obs.sink import ListSink
from repro.sim.latency import UniformLatency
from repro.util import RandomSource

GOLDEN = Path(__file__).with_name("lane_parity.json")
SCHEMES = ("central", "disjoint", "joint", "share")
SEEDS = (41, 2017)
PATH_LENGTH = 3


def _hex(node_id: NodeId) -> str:
    return format(node_id.value, "040x")


def _ids(ids: Iterable[NodeId]) -> str:
    return hashlib.sha256(",".join(_hex(i) for i in ids).encode()).hexdigest()


def tables_digest(overlay) -> str:
    """Every node's contacts, bucket by bucket in LRS order."""
    digest = hashlib.sha256()
    for node_id in overlay.node_ids:
        contacts = overlay.nodes[node_id].routing_table.all_contacts()
        digest.update(f"{_hex(node_id)}:{','.join(_hex(c) for c in contacts)};".encode())
    return digest.hexdigest()


def trace_digest(sink: ListSink) -> str:
    """Time, name, message and the other attrs of every event, in order."""
    digest = hashlib.sha256()
    for event in sink.records:
        details = dict(event["attrs"])
        message = details.pop("message")
        digest.update(
            repr((event["t"], event["name"], message, sorted(details.items()))).encode()
        )
    return digest.hexdigest()


def lookup_pin(result, elapsed: bool = True) -> Dict[str, Any]:
    pin = {
        "closest": _ids(result.closest),
        "closest_count": len(result.closest),
        "rounds": result.rounds,
        "contacted": result.contacted,
        "failures": _ids(result.failures),
        "failure_count": len(result.failures),
    }
    if elapsed:
        pin["elapsed"] = repr(result.elapsed)
    return pin


def run_release(scheme: str, seed: int, trace: Optional[Any] = None):
    """One release in the shape of ``experiments.timeliness._run_one``.

    Returns the overlay and the pins a run has whether or not it is traced.
    """
    latency = UniformLatency(0.001, 0.5, rng=RandomSource(seed, "lat"))
    overlay = build_network(100, seed=seed, latency=latency, trace=trace)
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
    timeline = ReleaseTimeline(0.0, 100.0 * PATH_LENGTH, PATH_LENGTH)
    message = b"lane-parity" * 8
    if scheme == "central":
        result = alice.send_centralized(message, timeline.with_path_length(1), bob.node_id)
        timeline = result.timeline
    elif scheme == "share":
        result = alice.send_key_share(
            message, timeline, bob.node_id,
            share_rows=5, secret_rows=2, thresholds=[1] + [3] * (PATH_LENGTH - 1),
        )
    else:
        result = alice.send_multipath(
            message, timeline, bob.node_id, replication=3, joint=(scheme == "joint")
        )
    overlay.loop.run(until=timeline.release_time + 60.0)
    arrival: Optional[float] = bob.release_time_of(result.key_id)
    return overlay, {
        "rpc_count": overlay.network.rpc_count,
        "processed_count": overlay.loop.processed_count,
        "arrival": None if arrival is None else repr(arrival),
        "tables": tables_digest(overlay),
    }


def release(scheme: str, seed: int) -> Dict[str, Any]:
    """The pins of one release traced to a :class:`ListSink`."""
    trace = ListSink()
    _, pin = run_release(scheme, seed, trace)
    return {"events": len(trace.records), "trace": trace_digest(trace), **pin}


def full_join() -> Dict[str, Any]:
    """Real bootstrap of 64 nodes."""
    trace = ListSink()
    overlay = build_network(64, seed=11, full_join=True, trace=trace)
    pin: Dict[str, Any] = {
        "rpc_count": overlay.network.rpc_count,
        "trace": trace_digest(trace),
        "tables": tables_digest(overlay),
        "bucket_sizes": hashlib.sha256(
            repr(
                [overlay.nodes[i].routing_table.bucket_sizes() for i in overlay.node_ids]
            ).encode()
        ).hexdigest(),
    }
    return pin


def churned() -> Dict[str, Any]:
    """Lookups across an overlay with a third of its nodes dead.

    ``elapsed`` is left out: PR 13 deliberately starts charging failed
    probes their timeout, everything else about these lookups is pinned.
    """
    overlay = build_network(120, seed=5)
    for node_id in overlay.node_ids[2::3]:
        overlay.network.kill(node_id)
    origin = overlay.nodes[overlay.node_ids[0]]
    rng = RandomSource(99, "targets")
    lookups = [
        lookup_pin(origin.iterative_find_node(NodeId.random(rng)), elapsed=False)
        for _ in range(6)
    ]
    closest = origin.find_closest_online(NodeId.hash_of(b"churned-target"))
    return {
        "lookups": lookups,
        "closest_online": None if closest is None else _hex(closest),
        "rpc_count": overlay.network.rpc_count,
        "tables": tables_digest(overlay),
    }


def compute() -> Dict[str, Any]:
    return {
        "releases": {
            f"{scheme}-{seed}": release(scheme, seed) for scheme in SCHEMES for seed in SEEDS
        },
        "full_join": full_join(),
        "churned": churned(),
    }


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(compute(), handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN}")

#!/usr/bin/env python
"""Quickstart: send a message to the future over a simulated DHT.

Alice encrypts a message, parks the ciphertext in the cloud, and routes the
decryption key through a node-joint multipath structure in a 200-node
Kademlia overlay.  Bob can fetch the ciphertext at any time but the key
only emerges at the release time.

Run:  python examples/quickstart.py
"""

from repro.cloud import CloudStore
from repro.core import DataReceiver, DataSender, ReleaseTimeline
from repro.core.protocol import ProtocolContext, install_holders
from repro.dht import build_network
from repro.obs.sink import ListSink
from repro.util import RandomSource


def main() -> None:
    # 1. Stand up a 200-node overlay on a deterministic event loop.
    trace = ListSink()
    overlay = build_network(200, seed=7, trace=trace)
    context = ProtocolContext(network=overlay.network)
    install_holders(overlay, context)

    # 2. Alice and Bob own two of the overlay's nodes.
    alice = DataSender(
        overlay.nodes[overlay.node_ids[0]],
        CloudStore(overlay.loop.clock),
        RandomSource(42, "alice"),
    )
    bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])

    # 3. Release in one simulated hour, routed over 4 columns x 3 paths.
    timeline = ReleaseTimeline(start_time=0.0, release_time=3600.0, path_length=4)
    result = alice.send_multipath(
        b"attack at dawn",
        timeline,
        bob.node_id,
        replication=3,
        joint=True,
    )
    print(f"sent: key {result.secret_key.fingerprint} over a "
          f"{result.structure.replication}x{result.structure.path_length} grid, "
          f"cloud blob {result.blob.blob_id}")
    print(f"holding period: {timeline.holding_period:.0f}s per column\n")

    # 4. Before the release time the key simply does not exist for Bob.
    overlay.loop.run(until=3599.0)
    print(f"t={overlay.loop.clock.now:7.1f}s  Bob has key: {bob.has_key(result.key_id)}")

    # 5. At tr the terminal holders hand the key over; Bob decrypts.
    overlay.loop.run(until=3700.0)
    print(f"t={overlay.loop.clock.now:7.1f}s  Bob has key: {bob.has_key(result.key_id)}")
    message = bob.decrypt_from_cloud(
        alice.cloud, result.blob.blob_id, result.key_id
    )
    print(f"decrypted message: {message!r}")
    print(f"key emerged at t={bob.release_time_of(result.key_id):.2f}s "
          f"(release time was {timeline.release_time:.0f}s)\n")

    # 6. A peek at the protocol timeline.
    holder_events = [event for event in trace.records if event["name"] == "holder"]
    print("onion progress (first 8 holder events):")
    for event in holder_events[:8]:
        message = event["attrs"]["message"]
        print(f"  [t={event['t']:12.3f}] {event['name']:>18}: {message}")


if __name__ == "__main__":
    main()

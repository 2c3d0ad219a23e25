"""Protocol edge cases: duplicates, misdeliveries, receiver conflicts."""

import pytest

from repro.adversary.population import SybilPopulation
from repro.cloud.storage import CloudStore
from repro.core.packages import OnionPackage, SecretPackage
from repro.core.protocol import HolderService, ProtocolContext, install_holders
from repro.core.receiver import DataReceiver
from repro.core.sender import DataSender
from repro.core.timeline import ReleaseTimeline
from repro.dht.bootstrap import build_network
from repro.dht.rpc import Deliver
from repro.util.rng import RandomSource


def small_world(seed=501):
    overlay = build_network(80, seed=seed)
    context = ProtocolContext(network=overlay.network)
    services = install_holders(overlay, context)
    alice = DataSender(
        overlay.nodes[overlay.node_ids[0]],
        CloudStore(overlay.loop.clock),
        RandomSource(seed + 1, "alice"),
    )
    bob = DataReceiver(overlay.nodes[overlay.node_ids[1]])
    return overlay, context, services, alice, bob


class TestHolderEdges:
    def test_duplicate_onion_copies_processed_once(self):
        overlay, context, _, alice, bob = small_world()
        timeline = ReleaseTimeline(0.0, 300.0, 3)
        result = alice.send_multipath(
            b"m", timeline, bob.node_id, replication=3, joint=True
        )
        overlay.loop.run()
        # Joint fan-in delivers k copies per holder; receiver still sees
        # exactly k terminal copies (one per terminal holder), and the
        # message decrypts once.
        record = bob.received(result.key_id)
        assert record.copies == 3

    def test_secret_delivered_to_plain_holder_raises(self):
        overlay, context, _, alice, bob = small_world()
        victim = overlay.nodes[overlay.node_ids[5]]
        package = SecretPackage(key_id=b"kid", secret=b"s")
        with pytest.raises(RuntimeError, match="non-receiver"):
            victim.handle_request(
                Deliver(
                    sender=alice.node.node_id,
                    channel=package.channel,
                    payload=package.to_bytes(),
                )
            )

    def test_onion_without_key_stays_pending(self):
        overlay, context, services, alice, bob = small_world()
        holder_node = overlay.nodes[overlay.node_ids[10]]
        service = next(s for s in services if s.node is holder_node)
        package = OnionPackage(key_id=b"orphan", row=1, blob=b"\x00" * 80)
        holder_node.handle_request(
            Deliver(
                sender=alice.node.node_id,
                channel=package.channel,
                payload=package.to_bytes(),
            )
        )
        assert (b"orphan", 1) in service._pending
        overlay.loop.run(until=10.0)
        assert (b"orphan", 1) in service._pending  # still waiting, no crash

    def test_wrong_key_never_misprocesses(self):
        """A layer key for another instance must not peel this onion."""
        overlay, context, services, alice, bob = small_world()
        timeline = ReleaseTimeline(0.0, 300.0, 3)
        first = alice.send_multipath(
            b"first", timeline, bob.node_id, replication=2, joint=True
        )
        second = alice.send_multipath(
            b"second", timeline, bob.node_id, replication=2, joint=True
        )
        overlay.loop.run()
        assert bob.received(first.key_id) is not None
        assert bob.received(second.key_id) is not None
        cloud = alice.cloud
        assert bob.decrypt_from_cloud(cloud, first.blob.blob_id, first.key_id) == b"first"
        assert (
            bob.decrypt_from_cloud(cloud, second.blob.blob_id, second.key_id)
            == b"second"
        )


class TestReceiverEdges:
    def test_conflicting_secrets_rejected(self):
        overlay, _, _, alice, bob = small_world()
        good = SecretPackage(key_id=b"kid", secret=b"real")
        evil = SecretPackage(key_id=b"kid", secret=b"fake")
        sender = alice.node.node_id
        bob.node.handle_request(
            Deliver(sender=sender, channel=good.channel, payload=good.to_bytes())
        )
        with pytest.raises(RuntimeError, match="conflicting"):
            bob.node.handle_request(
                Deliver(sender=sender, channel=evil.channel, payload=evil.to_bytes())
            )

    def test_receiver_ignores_non_secret_traffic(self):
        overlay, _, _, alice, bob = small_world()
        package = OnionPackage(key_id=b"kid", row=1, blob=b"blob")
        bob.node.handle_request(
            Deliver(
                sender=alice.node.node_id,
                channel=package.channel,
                payload=package.to_bytes(),
            )
        )
        assert not bob.has_key(b"kid")

    def test_decrypt_before_emergence_raises(self):
        overlay, _, _, alice, bob = small_world()
        timeline = ReleaseTimeline(0.0, 300.0, 3)
        result = alice.send_multipath(
            b"m", timeline, bob.node_id, replication=2, joint=True
        )
        overlay.loop.run(until=100.0)
        with pytest.raises(KeyError, match="not emerged"):
            bob.decrypt_from_cloud(alice.cloud, result.blob.blob_id, result.key_id)


class TestSenderEdges:
    def test_grid_length_mismatch_rejected(self):
        overlay, _, _, alice, bob = small_world()
        from repro.core.paths import build_grid

        population = [
            node_id
            for node_id in overlay.node_ids
            if node_id not in (alice.node.node_id, bob.node_id)
        ]
        grid = build_grid(population, 2, 4, RandomSource(3))
        with pytest.raises(ValueError, match="grid length"):
            alice.send_multipath(
                b"m",
                ReleaseTimeline(0.0, 300.0, 3),
                bob.node_id,
                replication=2,
                joint=True,
                grid=grid,
            )

    def test_sends_are_independent_instances(self):
        overlay, _, _, alice, bob = small_world()
        timeline = ReleaseTimeline(0.0, 100.0, 1)
        first = alice.send_centralized(b"a", timeline, bob.node_id)
        second = alice.send_centralized(b"b", timeline, bob.node_id)
        assert first.key_id != second.key_id
        assert first.secret_key != second.secret_key

    def test_start_time_in_future_defers_everything(self):
        overlay, _, _, alice, bob = small_world()
        timeline = ReleaseTimeline(start_time=50.0, release_time=350.0, path_length=3)
        result = alice.send_multipath(
            b"m", timeline, bob.node_id, replication=2, joint=True
        )
        overlay.loop.run(until=49.0)
        # Nothing has been delivered to anyone before ts.
        assert all(
            not service_pending
            for service_pending in []
        )
        overlay.loop.run()
        assert bob.release_time_of(result.key_id) >= 350.0

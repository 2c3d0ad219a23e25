"""End-to-end key-share routing (§III-D) on the DHT.

The distinguishing behaviours under test:

- shares travel with the onions and no holder stores a key across periods;
- hop targets are re-resolved by DHT lookup, so a dead target's row is
  taken over by the node now closest to the target id (churn resilience);
- the (m, n) threshold absorbs lost shares;
- capture of m carriers lets the pooled adversary reconstruct column keys.
"""

import pytest

from repro.adversary.population import SybilPopulation
from repro.cloud.storage import CloudStore
from repro.core.protocol import (
    ATTACK_DROP,
    ATTACK_RELEASE_AHEAD,
    ProtocolContext,
    install_holders,
)
from repro.core.receiver import DataReceiver
from repro.core.sender import DataSender
from repro.core.timeline import ReleaseTimeline
from repro.dht.bootstrap import build_network
from repro.util.rng import RandomSource

MESSAGE = b"sealed ballots"


def make_world(size=140, seed=81, attack=None, malicious_rate=0.0):
    overlay = build_network(size, seed=seed)
    population = SybilPopulation(malicious_rate, RandomSource(seed + 1, "sybil"))
    if malicious_rate:
        population.mark_population(overlay.node_ids)
    context = ProtocolContext(
        network=overlay.network,
        population=population,
        attack_mode=attack or "none",
        resolve_targets=True,
    )
    install_holders(overlay, context)
    alice_node = overlay.nodes[overlay.node_ids[0]]
    bob_node = overlay.nodes[overlay.node_ids[1]]
    population.force_honest([alice_node.node_id, bob_node.node_id])
    cloud = CloudStore(overlay.loop.clock)
    alice = DataSender(alice_node, cloud, RandomSource(seed + 2, "alice"))
    bob = DataReceiver(bob_node)
    return overlay, context, cloud, alice, bob


def send(alice, bob, length=4, rows=5, secret_rows=2, threshold=3):
    timeline = ReleaseTimeline(0.0, 100.0 * length, length)
    thresholds = [1] + [threshold] * (length - 1)
    result = alice.send_key_share(
        MESSAGE,
        timeline,
        bob.node_id,
        share_rows=rows,
        secret_rows=secret_rows,
        thresholds=thresholds,
    )
    return timeline, result


class TestHappyPath:
    def test_key_emerges_at_release_time(self):
        overlay, context, cloud, alice, bob = make_world()
        timeline, result = send(alice, bob)
        overlay.loop.run(until=timeline.release_time - 1.0)
        assert not bob.has_key(result.key_id)
        overlay.loop.run()
        assert bob.has_key(result.key_id)
        arrival = bob.release_time_of(result.key_id)
        assert timeline.release_time <= arrival < timeline.release_time + 1.0
        assert (
            bob.decrypt_from_cloud(cloud, result.blob.blob_id, result.key_id)
            == MESSAGE
        )
        assert context.pool.observation_count == 0

    def test_secret_rows_deliver_copies(self):
        overlay, _, _, alice, bob = make_world()
        _, result = send(alice, bob, secret_rows=2)
        overlay.loop.run()
        assert bob.received(result.key_id).copies == 2

    def test_auxiliary_rows_never_reach_receiver(self):
        overlay, _, _, alice, bob = make_world()
        _, result = send(alice, bob, rows=6, secret_rows=1)
        overlay.loop.run()
        assert bob.received(result.key_id).copies == 1

    def test_validation(self):
        _, _, _, alice, bob = make_world()
        timeline = ReleaseTimeline(0.0, 100.0, 1)
        with pytest.raises(ValueError, match="path length"):
            alice.send_key_share(
                MESSAGE, timeline, bob.node_id, 3, 1, thresholds=[1]
            )
        timeline = ReleaseTimeline(0.0, 200.0, 2)
        with pytest.raises(ValueError, match="thresholds"):
            alice.send_key_share(
                MESSAGE, timeline, bob.node_id, 3, 1, thresholds=[1]
            )
        with pytest.raises(ValueError, match="secret_rows"):
            alice.send_key_share(
                MESSAGE, timeline, bob.node_id, 2, 3, thresholds=[1, 2]
            )


class TestChurnResilience:
    def test_threshold_absorbs_dead_carriers(self):
        """Kill carriers up to (n - m) per column: delivery must survive."""
        overlay, _, _, alice, bob = make_world(seed=83)
        timeline, result = send(alice, bob, length=3, rows=5, threshold=3)
        lattice = result.structure
        # Kill two of the five carriers of column 1 (auxiliary rows, so the
        # secret rows' onions survive) -> their shares are lost, but 3 of 5
        # reach the second column, meeting the threshold.
        overlay.loop.run(until=50.0)  # mid first period
        alice_node = alice.node
        column1 = [
            alice_node.find_closest_online(row[0])
            for row in lattice.rows
        ]
        for victim in column1[3:]:
            if victim is not None and victim != bob.node_id:
                overlay.network.kill(victim)
        overlay.loop.run()
        assert bob.has_key(result.key_id)

    def test_too_many_dead_carriers_drop_the_key(self):
        overlay, _, _, alice, bob = make_world(seed=84)
        timeline, result = send(alice, bob, length=3, rows=5, threshold=3)
        lattice = result.structure
        overlay.loop.run(until=50.0)
        column1 = [
            alice.node.find_closest_online(row[0])
            for row in lattice.rows
        ]
        for victim in column1:
            if victim is not None and victim != bob.node_id:
                overlay.network.kill(victim)
        overlay.loop.run()
        assert not bob.has_key(result.key_id)

    def test_dead_next_hop_target_is_reresolved(self):
        """Killing a column-2 node before the handoff must not stop the
        row: the forwarding holder re-resolves the target id to the node
        that took over the neighbourhood."""
        overlay, _, _, alice, bob = make_world(seed=85)
        timeline, result = send(alice, bob, length=3, rows=4, threshold=2)
        lattice = result.structure
        overlay.loop.run(until=50.0)
        # Kill every node currently closest to the column-2 targets.
        victims = {
            alice.node.find_closest_online(row[1])
            for row in lattice.rows
        }
        for victim in victims:
            if victim is not None and victim not in (alice.node.node_id, bob.node_id):
                overlay.network.kill(victim)
        overlay.loop.run()
        # Replacement resolution delivered the shares/onions elsewhere.
        assert bob.has_key(result.key_id)


class TestAttacks:
    def test_m_malicious_carriers_leak_column_keys(self):
        overlay, context, _, alice, bob = make_world(attack=ATTACK_RELEASE_AHEAD, seed=86)
        timeline, result = send(alice, bob, length=3, rows=4, threshold=2)
        lattice = result.structure
        # Mark carriers malicious *before* the onions land on them.
        column1 = [
            alice.node.find_closest_online(row[0])
            for row in lattice.rows
        ]
        context.population.force_malicious(
            [c for c in column1[:2] if c is not None]
        )
        overlay.loop.run(until=150.0)  # past the first boundary
        # Two malicious carriers (threshold 2) pooled the shares their
        # onion layers carry — enough to reconstruct column-2 keys.
        captured = context.pool.captured_columns()
        assert 2 in captured, "colluding carriers should expose column 2 keys"

    def test_dropping_carriers_below_threshold_blocks_release(self):
        overlay, context, _, alice, bob = make_world(attack=ATTACK_DROP, seed=87)
        timeline, result = send(alice, bob, length=3, rows=4, threshold=2)
        lattice = result.structure
        column1 = [
            alice.node.find_closest_online(row[0])
            for row in lattice.rows
        ]
        context.population.force_malicious(
            [c for c in column1[:3] if c is not None]
        )
        overlay.loop.run()
        assert not bob.has_key(result.key_id)

    def test_droppers_below_cut_threshold_do_not_block(self):
        overlay, context, _, alice, bob = make_world(attack=ATTACK_DROP, seed=88)
        timeline, result = send(alice, bob, length=3, rows=5, threshold=2)
        lattice = result.structure
        column1 = [
            alice.node.find_closest_online(row[0])
            for row in lattice.rows
        ]
        context.population.force_malicious(
            [c for c in column1[3:] if c is not None]
        )
        overlay.loop.run()
        # The droppers sit on auxiliary rows 4-5: three honest carriers
        # (including both secret rows) still meet threshold 2, so the key
        # must be released on time.
        record = bob.received(result.key_id)
        assert record is not None
        assert record.copies >= 1


class TestDisabledTracing:
    @pytest.fixture(autouse=True)
    def no_trace_text(self, monkeypatch):
        """Any trace text built, or event emitted, fails the test."""

        def fail(*args, **kwargs):
            raise AssertionError("trace text built while tracing is disabled")

        monkeypatch.setattr("repro.dht.rpc.describe", fail)
        monkeypatch.setattr("repro.dht.network.describe", fail)
        monkeypatch.setattr("repro.obs.trace.NullTracer.event", fail)

    def test_disabled_tracing_formats_nothing(self):
        """With no sink the RPC/deliver/peel path builds no trace text."""
        overlay, context, cloud, alice, bob = make_world()
        assert not overlay.network.tracer.enabled
        timeline, result = send(alice, bob)
        overlay.loop.run()
        assert overlay.network.rpc_count > 0
        assert (
            bob.decrypt_from_cloud(cloud, result.blob.blob_id, result.key_id)
            == MESSAGE
        )

    def test_disabled_tracing_formats_nothing_on_the_loss_paths(self):
        """Nor do churn and holders that die before their forward time."""
        overlay, _, _, alice, bob = make_world(seed=84)
        timeline, result = send(alice, bob, length=3, rows=5, threshold=3)
        overlay.loop.run(until=50.0)  # column 1 holds its onions until t=100
        column1 = [
            alice.node.find_closest_online(row[0])
            for row in result.structure.rows
        ]
        for victim in column1:
            if victim is not None and victim != bob.node_id:
                overlay.network.kill(victim)
        overlay.loop.run()
        # Every column-1 forward found its own holder dead: the key is lost.
        assert not bob.has_key(result.key_id)

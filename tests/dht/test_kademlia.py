"""Kademlia protocol logic: handlers and lookups."""

import pytest

from repro.dht.bootstrap import build_network
from repro.dht.node_id import NodeId
from repro.dht.rpc import FindNode, FoundNodes
from repro.util.rng import RandomSource


def sort_by_distance(ids, target):
    """The oracle: ``ids`` ascending by XOR distance to ``target``."""
    return sorted(ids, key=lambda node_id: node_id.value ^ target.value)


@pytest.fixture(scope="module")
def overlay():
    return build_network(150, seed=21)


class TestHandlers:
    def test_find_node_returns_closest_known(self, overlay):
        node = overlay.any_node()
        other = overlay.nodes[overlay.node_ids[5]]
        target = NodeId.random(RandomSource(50))
        response = node.handle_request(FindNode(sender=other.node_id, target=target))
        assert isinstance(response, FoundNodes)
        contacts = list(response.contacts)
        assert contacts == sort_by_distance(contacts, target)
        assert other.node_id not in contacts

    def test_handler_learns_sender(self, overlay):
        node = overlay.any_node()
        stranger_id = overlay.node_ids[-1]
        node.routing_table.remove_contact(stranger_id)
        node.handle_request(FindNode(sender=stranger_id, target=node.node_id))
        assert stranger_id in node.routing_table


class TestIterativeLookup:
    def test_finds_globally_closest_nodes(self, overlay):
        node = overlay.any_node()
        target = NodeId.random(RandomSource(31))
        result = node.iterative_find_node(target)
        expected = sort_by_distance(overlay.node_ids, target)[:5]
        # The lookup should find at least the overall closest node, and
        # most of the top 5 (iterative lookups are approximate at the tail).
        assert result.closest[0] == expected[0]
        assert len(set(result.closest[:5]) & set(expected)) >= 3

    def test_lookup_reports_effort(self, overlay):
        node = overlay.any_node()
        result = node.iterative_find_node(NodeId.random(RandomSource(32)))
        assert result.rounds >= 1
        assert result.contacted >= 1
        assert result.elapsed > 0


class TestLiveResolution:
    def test_find_closest_online_skips_offline(self):
        overlay = build_network(60, seed=33)
        node = overlay.any_node()
        target = NodeId.random(RandomSource(44))
        first = node.find_closest_online(target)
        overlay.network.set_offline(first)
        second = node.find_closest_online(target)
        assert second is not None
        assert second != first

    def test_ping_dead_node_removes_contact(self):
        overlay = build_network(30, seed=34)
        node = overlay.any_node()
        victim = next(
            contact
            for contact in node.routing_table.all_contacts()
        )
        overlay.network.kill(victim)
        assert not node.ping(victim)
        assert victim not in node.routing_table


class TestFailedProbesCostTime:
    """A dead contact costs the one-way delay its timeout took."""

    ONE_WAY = 0.05  # build_network's default ConstantLatency

    def test_first_round_of_dead_candidates_is_charged(self):
        overlay = build_network(80, seed=37)
        node = overlay.any_node()
        target = NodeId.random(RandomSource(45))
        first_round = node.routing_table.closest_contacts(target, node.concurrency)
        for contact in first_round:
            overlay.network.kill(contact)
        result = node.iterative_find_node(target)
        assert result.failures[: node.concurrency] == first_round
        assert result.contacted > 0
        # One timed-out round, then rounds that each cost a full round trip.
        assert result.elapsed == pytest.approx(
            self.ONE_WAY + (result.rounds - 1) * 2 * self.ONE_WAY
        )

    def test_lookup_that_reaches_nobody_still_waited(self):
        overlay = build_network(40, seed=38)
        node = overlay.any_node()
        known = node.routing_table.all_contacts()
        for contact in known:
            overlay.network.kill(contact)
        result = node.iterative_find_node(NodeId.random(RandomSource(46)))
        assert result.contacted == 0 and result.closest == []
        assert result.rounds >= 1
        assert result.elapsed == pytest.approx(result.rounds * self.ONE_WAY)
        # Every contact that timed out was forgotten.
        assert node.routing_table.contact_count == len(known) - len(result.failures)


class TestFullJoin:
    def test_bootstrap_procedure_converges(self):
        overlay = build_network(25, seed=35, full_join=True)
        # After joining, any node resolves a key to the closest other node.
        key = NodeId.hash_of(b"post-join")
        for node_id in (overlay.node_ids[0], overlay.node_ids[-1]):
            others = [other for other in overlay.node_ids if other != node_id]
            closest = sort_by_distance(others, key)[0]
            assert overlay.nodes[node_id].iterative_find_node(key).closest[0] == closest

    def test_joined_tables_nonempty(self):
        overlay = build_network(20, seed=36, full_join=True)
        for node in overlay.nodes.values():
            assert node.routing_table.contact_count >= 3

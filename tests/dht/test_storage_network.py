"""The simulated transport and the node's request handlers."""

import pytest

from repro.dht.kademlia import KademliaNode
from repro.dht.network import Liveness, NodeUnreachable, SimulatedNetwork
from repro.dht.node_id import NodeId
from repro.dht.rpc import (
    Deliver,
    DeliverAck,
    FindNode,
    FoundNodes,
    Ping,
    Pong,
    Request,
    describe,
)
from repro.sim.event_loop import EventLoop
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.util.rng import RandomSource


def make_network(node_count=3, seed=4, latency=0.05):
    loop = EventLoop()
    network = SimulatedNetwork(loop, latency=ConstantLatency(latency))
    rng = RandomSource(seed)
    nodes = []
    for _ in range(node_count):
        node = KademliaNode(NodeId.random(rng), network)
        network.register(node)
        nodes.append(node)
    return loop, network, nodes


class TestLiveness:
    def test_initially_online(self):
        _, network, nodes = make_network()
        assert network.is_online(nodes[0].node_id)

    def test_offline_and_rejoin(self):
        _, network, nodes = make_network()
        target = nodes[0].node_id
        network.set_offline(target)
        assert network.liveness_of(target) is Liveness.OFFLINE
        network.set_online(target)
        assert network.is_online(target)

    def test_kill_is_permanent(self):
        _, network, nodes = make_network()
        target = nodes[0].node_id
        network.kill(target)
        assert network.liveness_of(target) is Liveness.DEAD
        with pytest.raises(ValueError):
            network.set_online(target)
        with pytest.raises(ValueError):
            network.set_offline(target)

    def test_unknown_node_rejected(self):
        _, network, _ = make_network()
        with pytest.raises(KeyError):
            network.liveness_of(NodeId(12345))

    def test_duplicate_registration_rejected(self):
        _, network, nodes = make_network()
        with pytest.raises(ValueError):
            network.register(nodes[0])


class TestRpc:
    def test_ping_pong(self):
        _, network, nodes = make_network()
        response, rtt = network.rpc(
            Ping(sender=nodes[0].node_id), nodes[1].node_id
        )
        assert isinstance(response, Pong)
        assert rtt == pytest.approx(0.1)  # 2x one-way

    def test_rpc_to_offline_raises(self):
        _, network, nodes = make_network()
        network.set_offline(nodes[1].node_id)
        with pytest.raises(NodeUnreachable):
            network.rpc(Ping(sender=nodes[0].node_id), nodes[1].node_id)

    def test_rpc_counter(self):
        _, network, nodes = make_network()
        before = network.rpc_count
        network.rpc(Ping(sender=nodes[0].node_id), nodes[1].node_id)
        assert network.rpc_count == before + 1


class TestRpcOrderOfEffects:
    """What an RPC costs and changes, in order: an unknown target fails
    before any delay is drawn; a known one always takes one draw, and only
    an online one is handled and counted."""

    LATENCY_SEED = 31

    def make(self):
        _, network, nodes = make_network()
        network.latency = UniformLatency(rng=RandomSource(self.LATENCY_SEED))
        twin = UniformLatency(rng=RandomSource(self.LATENCY_SEED))
        return network, nodes, twin

    def test_unknown_target_takes_no_draw(self):
        network, nodes, twin = self.make()
        with pytest.raises(KeyError):
            network.rpc(Ping(sender=nodes[0].node_id), NodeId(12345))
        assert network.rpc_count == 0
        assert network.latency.delay(0, 0) == twin.delay(0, 0)

    @pytest.mark.parametrize("state", [Liveness.OFFLINE, Liveness.DEAD])
    def test_unreachable_target_takes_one_draw(self, state):
        network, nodes, twin = self.make()
        target = nodes[1].node_id
        (network.set_offline if state is Liveness.OFFLINE else network.kill)(target)
        with pytest.raises(NodeUnreachable) as info:
            network.rpc(Ping(sender=nodes[0].node_id), target)
        assert info.value.node_id == target
        assert info.value.liveness is state
        assert info.value.waited == twin.delay(0, 0)
        assert network.rpc_count == 0
        assert network.latency.delay(0, 0) == twin.delay(0, 0)

    def test_online_target_takes_one_draw_and_counts(self):
        network, nodes, twin = self.make()
        response, rtt = network.rpc(Ping(sender=nodes[0].node_id), nodes[1].node_id)
        assert isinstance(response, Pong)
        assert rtt == 2.0 * twin.delay(0, 0)
        assert network.rpc_count == 1
        assert network.latency.delay(0, 0) == twin.delay(0, 0)


class TestHandleRequest:
    """Every request type gets its response type, and the sender is learned
    exactly once, before the answer."""

    def answer(self, request_for, prepare=None):
        _, network, nodes = make_network(node_count=4)
        server, sender = nodes[0], nodes[1].node_id
        for other in nodes[2:]:
            server.routing_table.add_contact(other.node_id)
        if prepare is not None:
            prepare(server)
        learned = []
        add_contact = server.routing_table.add_contact

        def counting_add_contact(node_id, probe=None):
            learned.append(node_id)
            return add_contact(node_id, probe)

        server.routing_table.add_contact = counting_add_contact
        response = server.handle_request(request_for(sender))
        assert learned == [sender]
        assert response.responder == server.node_id
        return server, sender, response

    def test_ping(self):
        _, _, response = self.answer(lambda sender: Ping(sender=sender))
        assert type(response) is Pong

    def test_find_node(self):
        server, sender, response = self.answer(
            lambda sender: FindNode(sender=sender, target=NodeId(9))
        )
        assert type(response) is FoundNodes and response.target == NodeId(9)
        assert response.contacts == tuple(
            server.routing_table.closest_contacts(
                NodeId(9), server.bucket_size, excluding=sender
            )
        )
        assert sender not in response.contacts and len(response.contacts) == 2

    def test_deliver(self):
        handled = []

        def install(server):
            server.deliver_handler = lambda *delivery: handled.append(delivery)

        _, sender, response = self.answer(
            lambda sender: Deliver(sender=sender, channel="c", payload=b"p"),
            prepare=install,
        )
        assert type(response) is DeliverAck and response.channel == "c"
        assert handled == [(sender, "c", b"p")]


    def test_deliver_without_a_handler_is_still_acknowledged(self):
        _, _, response = self.answer(
            lambda sender: Deliver(sender=sender, channel="c", payload=b"p")
        )
        assert type(response) is DeliverAck and response.channel == "c"

    def test_a_request_the_overlay_does_not_model_is_refused(self):
        # The overlay keeps no values: only FIND_NODE, PING and DELIVER.
        _, network, nodes = make_network()
        with pytest.raises(TypeError, match="unhandled request type Request"):
            nodes[0].handle_request(Request(sender=nodes[1].node_id))


@pytest.mark.parametrize(
    "message,text",
    [
        (Ping(sender=NodeId(1)), "Ping"),
        (Pong(responder=NodeId(1)), "Pong"),
        (FindNode(sender=NodeId(1), target=NodeId(255)), "FindNode(target="),
        (FoundNodes(responder=NodeId(1), target=NodeId(255)), "FoundNodes(target="),
        (Deliver(sender=NodeId(1), channel="onion", payload=b"x"), "Deliver(channel=onion)"),
        (DeliverAck(responder=NodeId(1), channel="share"), "DeliverAck(channel=share)"),
    ],
    ids=["ping", "pong", "find-node", "found-nodes", "deliver", "deliver-ack"],
)
def test_describe_names_each_modelled_message(message, text):
    assert describe(message).startswith(text)
    if isinstance(message, (FindNode, FoundNodes)):
        assert describe(message) == f"{text}{str(message.target)[:12]})"


class TestScheduledSend:
    def test_send_at_delivers_with_latency(self):
        loop, network, nodes = make_network(latency=0.5)
        request = Deliver(sender=nodes[0].node_id, channel="test", payload=b"hi")
        delivered, handled = [], []
        nodes[1].deliver_handler = lambda *delivery: handled.append(delivery)
        network.send_at(
            10.0, request, nodes[1].node_id, on_delivered=delivered.append
        )
        loop.run()
        assert len(delivered) == 1
        assert loop.clock.now == pytest.approx(10.5)
        assert handled == [(nodes[0].node_id, "test", b"hi")]

    def test_send_to_dead_node_dropped(self):
        loop, network, nodes = make_network()
        failures = []
        request = Deliver(sender=nodes[0].node_id, channel="test", payload=b"x")
        network.send_at(1.0, request, nodes[1].node_id, on_failed=failures.append)
        network.kill(nodes[1].node_id)
        loop.run()
        assert failures == [nodes[1].node_id]
        assert network.dropped_sends == 1

    def test_send_to_offline_node_dropped(self):
        loop, network, nodes = make_network()
        handled = []
        nodes[1].deliver_handler = lambda *delivery: handled.append(delivery)
        network.set_offline(nodes[1].node_id)
        request = Deliver(sender=nodes[0].node_id, channel="t", payload=b"x")
        network.send_at(1.0, request, nodes[1].node_id)
        loop.run()
        assert handled == []
        assert network.dropped_sends == 1

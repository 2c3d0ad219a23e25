"""FIND_NODE answers and iterative lookups in integer space equal the old ones.

A routing table used to answer ``FIND_NODE`` by building a
``{distance: contact}`` dict of every contact and sorting it, and the
responder then dropped the sender from the ``k + 1`` nearest.  The lookup
kept ``(distance, contact)`` tuples and a set of known ids.  Both now work
on plain XOR distances through the table's value index.  The old code is
kept here as the oracle, the way ``test_seeding.py`` keeps the eager
seeding loop: two overlays from one seed, one running each, must return the
same lookup results and end with the same tables.
"""

import random
from bisect import insort

import pytest

from repro.dht import build_network
from repro.dht.kademlia import KademliaNode, LookupResult
from repro.dht.network import NodeUnreachable
from repro.dht.node_id import NodeId
from repro.dht.routing_table import RoutingTable
from repro.dht.rpc import FindNode, FindValue, FoundNodes, FoundValue

SIZES = (2, 21, 100, 1000)
SEEDS = (7, 41, 2017)
TARGETS = 200


def oracle_closest(table, target, count):
    """The old ``closest_contacts``: a distance-keyed dict, then a sort."""
    target_value = target.value
    nearest = {contact.value ^ target_value: contact for contact in table.all_contacts()}
    return [nearest[d] for d in sorted(nearest)[:count]]


def oracle_answer(node, target, sender):
    """The old responder: the ``k + 1`` nearest, the sender filtered out."""
    contacts = [
        contact
        for contact in oracle_closest(node.routing_table, target, node.bucket_size + 1)
        if contact.value != sender.value
    ]
    return tuple(contacts[: node.bucket_size])


class OracleNode(KademliaNode):
    """A node that answers and looks up the old way; all else is shared."""

    def handle_request(self, request):
        if isinstance(request, FindNode):
            self.routing_table.add_contact(request.sender, probe=self._probe_contact)
            contacts = oracle_answer(self, request.target, request.sender)
            return FoundNodes(
                responder=self.node_id, target=request.target, contacts=contacts
            )
        if isinstance(request, FindValue) and self.store.get(request.key) is None:
            self.routing_table.add_contact(request.sender, probe=self._probe_contact)
            contacts = oracle_answer(self, request.key, request.sender)
            return FoundValue(responder=self.node_id, key=request.key, contacts=contacts)
        return super().handle_request(request)

    def _iterative_lookup(self, target, find_value):
        """The tuple-based lookup loop, as it was."""
        target_value = target.value
        shortlist = [
            (contact.value ^ target_value, contact)
            for contact in oracle_closest(self.routing_table, target, self.bucket_size)
        ]
        pending = list(shortlist)
        known = {contact for _, contact in shortlist}
        known.add(self.node_id)
        failed = []
        result = LookupResult(target=target, closest=[])
        best_distance = None
        request = (
            FindValue(sender=self.node_id, key=target)
            if find_value
            else FindNode(sender=self.node_id, target=target)
        )
        while pending and result.value is None:
            candidates = pending[: self.concurrency]
            del pending[: self.concurrency]
            result.rounds += 1
            round_wait = 0.0
            improved = False
            for _, contact in candidates:
                try:
                    response, rtt = self.network.rpc(request, contact)
                except NodeUnreachable as unreachable:
                    round_wait = max(round_wait, unreachable.waited)
                    failed.append(contact)
                    self.routing_table.remove_contact(contact)
                    continue
                round_wait = max(round_wait, rtt)
                result.contacted += 1
                self.routing_table.add_contact(contact, probe=self._probe_contact)
                if isinstance(response, FoundValue) and response.value is not None:
                    result.value = response.value
                    break
                for new_contact in getattr(response, "contacts", ()):
                    if new_contact in known:
                        continue
                    known.add(new_contact)
                    distance = new_contact.value ^ target_value
                    entry = (distance, new_contact)
                    insort(shortlist, entry)
                    insort(pending, entry)
                    if best_distance is None or distance < best_distance:
                        best_distance = distance
                        improved = True
            result.elapsed += round_wait
            if not improved and (
                not pending or pending[0] > shortlist[: self.bucket_size][-1]
            ):
                break
        dead = set(failed)
        result.closest = [contact for _, contact in shortlist if contact not in dead][
            : self.bucket_size
        ]
        result.failures = failed
        return result


def overlay_pair(size, seed, degraded):
    """The overlay under test and its oracle twin, with the same faults."""
    overlays = [build_network(size, seed=seed) for _ in range(2)]
    for node in overlays[1].nodes.values():
        node.__class__ = OracleNode
    if degraded:
        shuffled = random.Random(seed).sample(overlays[0].node_ids, size)
        killed = shuffled[: size // 5]
        offline = shuffled[size // 5 : size // 5 + size // 10]
        for overlay in overlays:
            for node_id in killed:
                overlay.network.kill(node_id)
            for node_id in offline:
                overlay.network.set_offline(node_id)
    return overlays


def workload(overlay, seed):
    """(caller, target) pairs: random ids, node ids (dead ones too), own ids."""
    rng = random.Random(seed + 1)
    online = overlay.network.online_ids()
    pairs = []
    for number in range(TARGETS):
        caller = online[number % len(online)]
        kind = number % 4
        if kind == 0:
            target = caller
        elif kind == 1:
            target = rng.choice(overlay.node_ids)
        else:
            target = NodeId(rng.getrandbits(160))
        pairs.append((caller, target))
    return pairs


def replay(overlay, pairs):
    """Every answer's and lookup's outcome, in order; both mutate the tables."""
    outcomes = []
    for number, (caller, target) in enumerate(pairs):
        node = overlay.nodes[caller]
        responder = overlay.nodes[pairs[(number + 1) % len(pairs)][0]]
        outcomes.append(responder.handle_request(FindNode(sender=caller, target=target)))
        outcomes.append(vars(node.iterative_find_node(target)))
        value = number.to_bytes(2, "big")
        outcomes.append(node.store_value(target, value))
        finder = overlay.nodes[pairs[-1 - number][0]]
        outcomes.append(vars(finder.iterative_find_value(target)))
    return outcomes


def assert_same_as_oracle(overlay, oracle, seed):
    pairs = workload(overlay, seed)
    assert replay(overlay, pairs) == replay(oracle, pairs)
    assert overlay.network.rpc_count == oracle.network.rpc_count
    for node_id in overlay.node_ids:
        assert (
            overlay.nodes[node_id].routing_table.all_contacts()
            == oracle.nodes[node_id].routing_table.all_contacts()
        )


@pytest.mark.parametrize("degraded", [False, True], ids=["healthy", "degraded"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", SIZES)
def test_lookups_equal_the_tuple_oracle(size, seed, degraded):
    overlay, oracle = overlay_pair(size, seed, degraded)
    assert_same_as_oracle(overlay, oracle, seed)


def test_the_oracle_catches_an_answer_that_keeps_the_sender(monkeypatch):
    """A planted fault: the responder forgets to leave the sender out."""
    real = RoutingTable.closest_contacts

    def keeps_sender(self, target, count, excluding=None):
        return real(self, target, count)

    monkeypatch.setattr(RoutingTable, "closest_contacts", keeps_sender)
    overlay, oracle = overlay_pair(100, 2017, degraded=False)
    with pytest.raises(AssertionError):
        assert_same_as_oracle(overlay, oracle, 2017)

"""Kademlia node protocol logic.

Implements the PING, FIND_NODE and DELIVER handlers plus iterative
``FIND_NODE`` lookup (with α-way parallelism folded into a
deterministic sequential probe order — the simulated transport is
synchronous, so parallelism only affects latency accounting, which we model
by charging the per-round maximum RTT instead of the sum).

Answers and lookups work on integer XOR distances to the target, mapped
back to ids through the routing table's value index and the lookup's
``known`` map.  Distances to one target are distinct per id, so they order
exactly as ``(distance, contact)`` pairs would.

The application layer hooks in through :attr:`KademliaNode.deliver_handler`:
the key-routing protocol installs a callback that receives ``Deliver``
payloads (onion packages, key shares).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.dht.node_id import NodeId
from repro.dht.rpc import (
    Deliver,
    DeliverAck,
    FindNode,
    FoundNodes,
    Ping,
    Pong,
    Request,
    Response,
)
from repro.dht.routing_table import RoutingTable

DEFAULT_REPLICATION = 20  # Kademlia's k
DEFAULT_CONCURRENCY = 3  # Kademlia's alpha

DeliverHandler = Callable[[NodeId, str, bytes], None]


@dataclass
class LookupResult:
    """Outcome of an iterative lookup."""

    target: NodeId
    closest: List[NodeId]
    rounds: int = 0
    contacted: int = 0
    elapsed: float = 0.0
    failures: List[NodeId] = field(default_factory=list)


class KademliaNode:
    """One DHT participant: routing table, RPC handlers, lookups."""

    def __init__(
        self,
        node_id: NodeId,
        network,
        bucket_size: int = DEFAULT_REPLICATION,
        concurrency: int = DEFAULT_CONCURRENCY,
    ) -> None:
        self.node_id = node_id
        self.network = network
        self.routing_table = RoutingTable(node_id, bucket_size=bucket_size)
        self.bucket_size = bucket_size
        self.concurrency = max(1, concurrency)
        self.deliver_handler: Optional[DeliverHandler] = None

    def __repr__(self) -> str:
        return f"KademliaNode({self.node_id})"

    # -- server side -------------------------------------------------------

    def handle_request(self, request: Request) -> Response:
        """Dispatch an incoming RPC; also learns the sender as a contact.

        ``FIND_NODE``, every RPC a lookup sends, is matched first by exact
        class; the rest go through the ``isinstance`` chain.
        """
        routing_table = self.routing_table
        routing_table.add_contact(request.sender, probe=self._probe_contact)
        if request.__class__ is FindNode:
            contacts = routing_table.closest_contacts(
                request.target, self.bucket_size, excluding=request.sender
            )
            return FoundNodes(
                responder=self.node_id, target=request.target, contacts=tuple(contacts)
            )
        if isinstance(request, Ping):
            return Pong(responder=self.node_id)
        if isinstance(request, Deliver):
            if self.deliver_handler is not None:
                self.deliver_handler(request.sender, request.channel, request.payload)
            return DeliverAck(responder=self.node_id, channel=request.channel)
        raise TypeError(f"unhandled request type {type(request).__name__}")

    def _probe_contact(self, contact: NodeId) -> bool:
        """Bucket-eviction liveness probe.

        Checks the transport's liveness state directly rather than sending
        a recursive PING RPC: a real PING's only observable outcome here is
        exactly this liveness bit, and a synchronous RPC would let probe
        chains recurse across nodes (A's probe makes C handle a request,
        whose contact-learning probes D, ...) unboundedly in a churning
        overlay.
        """
        return self.network.is_online(contact)

    # -- client side -------------------------------------------------------

    def ping(self, target: NodeId) -> bool:
        """Probe a node; updates the routing table either way."""
        from repro.dht.network import NodeUnreachable

        try:
            self.network.rpc(Ping(sender=self.node_id), target)
        except NodeUnreachable:
            self.routing_table.remove_contact(target)
            return False
        self.routing_table.add_contact(target, probe=self._probe_contact)
        return True

    def bootstrap(self, seeds: List[NodeId]) -> None:
        """Join the overlay: learn seeds, then look up the own id (§2.3)."""
        for seed in seeds:
            if seed != self.node_id:
                self.routing_table.add_contact(seed)
        self.iterative_find_node(self.node_id)

    def iterative_find_node(self, target: NodeId) -> LookupResult:
        """Locate the k closest nodes to ``target`` (the α-probe loop)."""
        from repro.dht.network import NodeUnreachable

        target_value = target.value
        k = self.bucket_size
        # Bound once: every probe of the loop calls these.
        rpc = self.network.rpc
        add_contact = self.routing_table.add_contact
        probe = self._probe_contact
        # Both lists hold XOR distances to the target, nearest first;
        # ``pending`` is the part of the shortlist not yet probed.  ``known``
        # maps every distance seen (the own id's too) back to its contact.
        start = self.routing_table.closest_contacts(target, k)
        shortlist = [contact.value ^ target_value for contact in start]
        pending = list(shortlist)
        known = dict(zip(shortlist, start))
        known[self.node_id.value ^ target_value] = self.node_id
        failed: List[NodeId] = []
        dead = set()
        result = LookupResult(target=target, closest=[])
        best_distance: Optional[int] = None
        request = FindNode(sender=self.node_id, target=target)

        while pending:
            candidates = pending[: self.concurrency]
            del pending[: self.concurrency]
            result.rounds += 1
            # α probes run in parallel: charge the slowest of the round,
            # where a dead contact costs the timeout the caller sat out.
            round_wait = 0.0
            improved = False
            for candidate in candidates:
                contact = known[candidate]
                try:
                    response, rtt = rpc(request, contact)
                except NodeUnreachable as unreachable:
                    round_wait = max(round_wait, unreachable.waited)
                    failed.append(contact)
                    dead.add(candidate)
                    self.routing_table.remove_contact(contact)
                    continue
                round_wait = max(round_wait, rtt)
                result.contacted += 1
                add_contact(contact, probe=probe)
                for new_contact in response.contacts:
                    distance = new_contact.value ^ target_value
                    if distance in known:
                        continue
                    known[distance] = new_contact
                    insort(shortlist, distance)
                    insort(pending, distance)
                    if best_distance is None or distance < best_distance:
                        best_distance = distance
                        improved = True
            result.elapsed += round_wait
            # Done once a round learns nothing nearer and the k nearest known
            # contacts (dead ones included) have all been probed.
            if not improved and (
                not pending or pending[0] > shortlist[:k][-1]
            ):
                break

        result.closest = [known[d] for d in shortlist if d not in dead][:k]
        result.failures = failed
        return result

    def find_closest_online(self, target: NodeId) -> Optional[NodeId]:
        """Resolve ``target`` to the closest currently-online node id.

        This is the primitive the key-routing protocol uses to turn a
        pseudo-random path coordinate into an actual holder.
        """
        lookup = self.iterative_find_node(target)
        for contact in lookup.closest:
            if self.network.is_online(contact):
                return contact
        return None

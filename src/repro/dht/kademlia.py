"""Kademlia node protocol logic.

Implements the four classic RPC handlers plus iterative lookup
(``FIND_NODE`` / ``FIND_VALUE`` with α-way parallelism folded into a
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
from typing import Callable, List, Optional, Tuple

from repro.dht.node_id import NodeId
from repro.dht.rpc import (
    Deliver,
    DeliverAck,
    FindNode,
    FindValue,
    FoundNodes,
    FoundValue,
    Ping,
    Pong,
    Request,
    Response,
    Store,
    StoreAck,
)
from repro.dht.routing_table import RoutingTable
from repro.dht.storage import ValueStore

DEFAULT_REPLICATION = 20  # Kademlia's k
DEFAULT_CONCURRENCY = 3  # Kademlia's alpha

DeliverHandler = Callable[[NodeId, str, bytes], None]


@dataclass
class LookupResult:
    """Outcome of an iterative lookup."""

    target: NodeId
    closest: List[NodeId]
    value: Optional[bytes] = None
    rounds: int = 0
    contacted: int = 0
    elapsed: float = 0.0
    failures: List[NodeId] = field(default_factory=list)

    @property
    def found_value(self) -> bool:
        return self.value is not None


class KademliaNode:
    """One DHT participant: routing table, storage, RPC handlers, lookups."""

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
        self.store = ValueStore(network.loop.clock)
        self.bucket_size = bucket_size
        self.concurrency = max(1, concurrency)
        self.deliver_handler: Optional[DeliverHandler] = None
        self.delivered_payloads: List[Tuple[str, bytes]] = []

    def __repr__(self) -> str:
        return f"KademliaNode({self.node_id})"

    # -- server side -------------------------------------------------------

    def handle_request(self, request: Request) -> Response:
        """Dispatch an incoming RPC; also learns the sender as a contact."""
        self.routing_table.add_contact(request.sender, probe=self._probe_contact)
        if isinstance(request, Ping):
            return Pong(responder=self.node_id)
        if isinstance(request, Store):
            self.store.put(request.key, request.value, ttl=request.ttl)
            return StoreAck(responder=self.node_id, key=request.key)
        if isinstance(request, FindNode):
            contacts = self.routing_table.closest_contacts(
                request.target, self.bucket_size, excluding=request.sender
            )
            return FoundNodes(
                responder=self.node_id, target=request.target, contacts=tuple(contacts)
            )
        if isinstance(request, FindValue):
            value = self.store.get(request.key)
            if value is not None:
                return FoundValue(responder=self.node_id, key=request.key, value=value)
            contacts = self.routing_table.closest_contacts(
                request.key, self.bucket_size, excluding=request.sender
            )
            return FoundValue(
                responder=self.node_id, key=request.key, contacts=tuple(contacts)
            )
        if isinstance(request, Deliver):
            self.delivered_payloads.append((request.channel, request.payload))
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

    def wipe_storage(self) -> None:
        """Called by the network when this node dies."""
        self.store.clear()

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
        """Locate the k closest nodes to ``target``."""
        return self._iterative_lookup(target, find_value=False)

    def iterative_find_value(self, key: NodeId) -> LookupResult:
        """Retrieve a value (or the k closest nodes if nobody has it)."""
        local = self.store.get(key)
        if local is not None:
            return LookupResult(target=key, closest=[self.node_id], value=local)
        return self._iterative_lookup(key, find_value=True)

    def store_value(self, key: NodeId, value: bytes, ttl: Optional[float] = None) -> int:
        """Store a value on the k closest nodes; returns how many acked."""
        from repro.dht.network import NodeUnreachable

        lookup = self.iterative_find_node(key)
        stored = 0
        for contact in lookup.closest:
            if contact == self.node_id:
                self.store.put(key, value, ttl=ttl)
                stored += 1
                continue
            try:
                self.network.rpc(
                    Store(sender=self.node_id, key=key, value=value, ttl=ttl), contact
                )
                stored += 1
            except NodeUnreachable:
                self.routing_table.remove_contact(contact)
        return stored

    def _iterative_lookup(self, target: NodeId, find_value: bool) -> LookupResult:
        """The iterative α-probe loop shared by FIND_NODE and FIND_VALUE."""
        from repro.dht.network import NodeUnreachable

        target_value = target.value
        k = self.bucket_size
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
        request = (
            FindValue(sender=self.node_id, key=target)
            if find_value
            else FindNode(sender=self.node_id, target=target)
        )

        while pending and result.value is None:
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
                    response, rtt = self.network.rpc(request, contact)
                except NodeUnreachable as unreachable:
                    round_wait = max(round_wait, unreachable.waited)
                    failed.append(contact)
                    dead.add(candidate)
                    self.routing_table.remove_contact(contact)
                    continue
                round_wait = max(round_wait, rtt)
                result.contacted += 1
                self.routing_table.add_contact(contact, probe=self._probe_contact)
                if isinstance(response, FoundValue) and response.value is not None:
                    result.value = response.value
                    break
                for new_contact in getattr(response, "contacts", ()):
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

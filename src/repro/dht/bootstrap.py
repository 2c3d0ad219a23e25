"""Standing up a whole simulated overlay.

The experiments need N-node overlays (N up to 10,000).  Joining every node
through full iterative bootstrap is O(N log N) RPCs and dominates test time,
so :func:`build_network` offers two modes:

- ``full_join=True`` — every node performs the real bootstrap procedure
  (seed + self-lookup).  Used by the DHT integration tests on small N to
  validate the protocol end to end.
- ``full_join=False`` (default) — routing tables are seeded directly with a
  correct-by-construction contact sample (each node learns a logarithmic
  set of peers spread across its buckets, exactly the steady-state shape a
  converged Kademlia overlay has).  Used by the protocol experiments where
  the *overlay* is substrate, not subject.  The sample is drawn at build
  time but each table applies it the first time it is used, so a release
  that reaches 2 of 100 nodes builds 2 tables; every table, RPC and trace
  line is the same as if all 100 had been filled up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.dht.kademlia import KademliaNode
from repro.dht.network import SimulatedNetwork
from repro.dht.node_id import NodeId, unique_random_ids
from repro.obs.trace import Tracer
from repro.sim.event_loop import EventLoop
from repro.sim.latency import LatencyModel
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int


@dataclass
class Overlay:
    """A built network plus convenient handles."""

    loop: EventLoop
    network: SimulatedNetwork
    nodes: Dict[NodeId, KademliaNode]
    node_ids: List[NodeId] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.node_ids:
            self.node_ids = list(self.nodes.keys())

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: NodeId) -> KademliaNode:
        return self.nodes[node_id]

    def any_node(self) -> KademliaNode:
        return next(iter(self.nodes.values()))


def build_network(
    size: int,
    seed: int = 7,
    full_join: bool = False,
    bucket_size: int = 20,
    contacts_per_node: int = 24,
    latency: Optional[LatencyModel] = None,
    trace: Optional[Any] = None,
) -> Overlay:
    """Create an overlay of ``size`` nodes with converged routing tables.

    Parameters
    ----------
    size:
        Number of DHT nodes.
    seed:
        Seed for node-id generation and (in fast mode) contact sampling.
    full_join:
        If True every node joins via the real bootstrap procedure (slow,
        faithful); if False routing tables are directly seeded (fast,
        steady-state-equivalent, applied on each table's first use).
    contacts_per_node:
        In fast mode, how many random peers each node learns in addition to
        its nearest neighbours.
    trace:
        A sink (e.g. :class:`~repro.obs.sink.JsonlSink`) for the overlay's and
        its holders' events, stamped with the loop's virtual time.
    """
    check_positive_int(size, "size")
    rng = RandomSource(seed, label="overlay")
    loop = EventLoop()
    network = SimulatedNetwork(loop, latency=latency)
    if trace is not None:
        network.tracer = Tracer(trace, clock=lambda: loop.clock.now)

    ids = unique_random_ids(rng.fork("ids"), size)
    nodes: Dict[NodeId, KademliaNode] = {}
    for node_id in ids:
        node = KademliaNode(node_id, network, bucket_size=bucket_size)
        nodes[node_id] = node
        network.register(node)

    if full_join:
        seeds = ids[: min(3, size)]
        for node_id in ids:
            nodes[node_id].bootstrap(seeds)
    else:
        _seed_routing_tables(nodes, ids, rng.fork("contacts"), contacts_per_node)

    return Overlay(loop=loop, network=network, nodes=nodes, node_ids=ids)


def _seed_routing_tables(
    nodes: Dict[NodeId, KademliaNode],
    ids: List[NodeId],
    rng: RandomSource,
    contacts_per_node: int,
) -> None:
    """Hand every routing table the converged-overlay contact shape.

    Every node learns (a) its ``bucket_size`` nearest neighbours in id
    space — Kademlia guarantees the closest bucket fills — and (b) a random
    sample of distant peers, which populates the high buckets.  Sorting once
    by id value lets us find near neighbours without an O(N^2) scan: XOR
    closeness and numeric closeness agree on the top bits that matter here.

    This is fast mode: each table gets its list through
    :meth:`~repro.dht.routing_table.RoutingTable.seed` and applies it when
    first used, so a release pays only for the tables it touches.  Deferral
    is exact.  A node's list depends on nothing but its window in
    ``ordered`` and its slice of ``rng``, never on any table's state; the
    table applies it with ``add_contact``'s no-probe rule, which reads no
    liveness, before any other read or write.  The draws are all taken
    here in one :meth:`~repro.util.rng.RandomSource.below` call — the values
    ``randrange`` gives — node by node, in the order an eager
    ``add_contact`` loop took them (``tests/dht/test_seeding.py`` keeps
    that loop as the oracle).
    """
    ordered = sorted(ids, key=lambda node_id: node_id.value)
    index_of = {node_id: position for position, node_id in enumerate(ordered)}
    population = len(ordered)
    sample_count = min(contacts_per_node, population - 1)
    draws = [ordered[i] for i in rng.below(population, len(nodes) * sample_count)]
    for number, (node_id, node) in enumerate(nodes.items()):
        position = index_of[node_id]
        half = node.bucket_size // 2
        start = number * sample_count
        node.routing_table.seed(
            ordered[max(0, position - half) : position + half + 1]
            + draws[start : start + sample_count]
        )

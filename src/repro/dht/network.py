"""Simulated transport connecting DHT nodes.

The network keeps the registry of all node instances, tracks liveness, and
carries RPCs between them.  Two delivery modes are offered:

- :meth:`SimulatedNetwork.rpc` — synchronous request/response that returns
  ``(response, round_trip_seconds)``.  Kademlia's iterative lookup uses
  this and *accounts* the accumulated latency in ``LookupResult.elapsed``.
  Nothing consumes that figure yet: the protocol layer resolves a hop and
  hands the package over in the same virtual instant, so only
  :meth:`send_at`'s one-way delay reaches the release schedule (ROADMAP,
  fidelity item).  This keeps lookup logic straight-line.
- :meth:`SimulatedNetwork.send_at` — fire-and-forget delivery scheduled on
  the event loop at an absolute virtual time; the key-routing protocol uses
  it for holder-to-holder package handoffs at period boundaries.

Liveness: a node can be *online*, *offline* (transient churn departure) or
*dead* (permanent churn).  RPCs to a non-online node raise
:class:`NodeUnreachable`; scheduled sends to one are dropped with a trace
event, which is exactly how the drop attack and churn losses manifest.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from repro.dht.node_id import NodeId
from repro.dht.rpc import Request, Response, describe
from repro.obs.trace import NULL_TRACER
from repro.sim.event_loop import EventLoop
from repro.sim.latency import ConstantLatency, LatencyModel


class Liveness(Enum):
    ONLINE = "online"
    OFFLINE = "offline"
    DEAD = "dead"


class NodeUnreachable(Exception):
    """Raised when an RPC targets a node that is offline or dead.

    ``waited`` is the one-way delay the caller sat out before giving up.
    """

    def __init__(self, node_id: NodeId, liveness: Liveness, waited: float) -> None:
        super().__init__(f"node {node_id} is {liveness.value}")
        self.node_id = node_id
        self.liveness = liveness
        self.waited = waited


class SimulatedNetwork:
    """Registry + transport for a simulated DHT overlay."""

    def __init__(
        self,
        loop: EventLoop,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.loop = loop
        self.latency = latency if latency is not None else ConstantLatency(0.05)
        self.tracer = NULL_TRACER  # build_network(trace=sink) installs a live one
        self._nodes: Dict[NodeId, object] = {}
        self._liveness: Dict[NodeId, Liveness] = {}
        self.rpc_count = 0
        self.dropped_sends = 0

    # -- registry ----------------------------------------------------------

    def register(self, node) -> None:
        """Add a node instance (anything exposing .node_id and .handle_request)."""
        node_id = node.node_id
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already registered")
        self._nodes[node_id] = node
        self._liveness[node_id] = Liveness.ONLINE

    def get_node(self, node_id: NodeId):
        """Look up a registered node instance (None if unknown)."""
        return self._nodes.get(node_id)

    def node_ids(self) -> Tuple[NodeId, ...]:
        return tuple(self._nodes.keys())

    def __len__(self) -> int:
        return len(self._nodes)

    # -- liveness ----------------------------------------------------------

    def liveness_of(self, node_id: NodeId) -> Liveness:
        if node_id not in self._liveness:
            raise KeyError(f"unknown node {node_id}")
        return self._liveness[node_id]

    def is_online(self, node_id: NodeId) -> bool:
        return self._liveness.get(node_id) is Liveness.ONLINE

    def set_offline(self, node_id: NodeId) -> None:
        """Transient departure; the node keeps its state, RPCs fail meanwhile."""
        self._require_known(node_id)
        if self._liveness[node_id] is Liveness.DEAD:
            raise ValueError(f"node {node_id} is dead and cannot go offline")
        self._liveness[node_id] = Liveness.OFFLINE
        if self.tracer.enabled:
            self.tracer.event("churn", message=f"node {node_id} offline")

    def set_online(self, node_id: NodeId) -> None:
        """Rejoin after a transient departure."""
        self._require_known(node_id)
        if self._liveness[node_id] is Liveness.DEAD:
            raise ValueError(f"node {node_id} is dead and cannot rejoin")
        self._liveness[node_id] = Liveness.ONLINE
        if self.tracer.enabled:
            self.tracer.event("churn", message=f"node {node_id} online")

    def kill(self, node_id: NodeId) -> None:
        """Permanent death (paper §II-C): the node never answers again."""
        self._require_known(node_id)
        self._liveness[node_id] = Liveness.DEAD
        if self.tracer.enabled:
            self.tracer.event("churn", message=f"node {node_id} died")

    def online_ids(self) -> Tuple[NodeId, ...]:
        return tuple(
            node_id
            for node_id, state in self._liveness.items()
            if state is Liveness.ONLINE
        )

    # -- transport ---------------------------------------------------------

    def rpc(self, request: Request, target: NodeId) -> Tuple[Response, float]:
        """Deliver a request synchronously; returns (response, round-trip time).

        Raises :class:`NodeUnreachable` when the target is not online, after
        charging a one-way delay (the caller waited for a timeout); an
        unknown target raises ``KeyError`` before any delay is drawn.
        """
        state = self._liveness.get(target)  # one read: known and online
        if state is None:
            raise KeyError(f"unknown node {target}")
        one_way = self.latency.delay(request.sender.value, target.value)
        if state is not Liveness.ONLINE:
            raise NodeUnreachable(target, state, one_way)
        response = self._nodes[target].handle_request(request)
        self.rpc_count += 1
        if self.tracer.enabled:
            self.tracer.event(
                "rpc", message=f"{describe(request)} {request.sender} -> {target}"
            )
        return response, 2.0 * one_way

    def send_at(
        self,
        timestamp: float,
        request: Request,
        target: NodeId,
        on_delivered: Optional[Callable[[Response], None]] = None,
        on_failed: Optional[Callable[[NodeId], None]] = None,
    ) -> None:
        """Schedule one-way delivery of ``request`` to ``target`` at ``timestamp``.

        Delivery applies a latency on top of the requested time.  If the
        target is not online at delivery time the send is dropped (with an
        ``on_failed`` callback if provided) — this is how churn blocks a
        package handoff in the end-to-end protocol simulation.
        """
        self._require_known(target)
        one_way = self.latency.delay(request.sender.value, target.value)

        def deliver() -> None:
            if not self.is_online(target):
                self.dropped_sends += 1
                if self.tracer.enabled:
                    self.tracer.event(
                        "network",
                        message=f"dropped {describe(request)} to {target} "
                        f"({self._liveness[target].value})",
                    )
                if on_failed is not None:
                    on_failed(target)
                return
            node = self._nodes[target]
            response = node.handle_request(request)
            if self.tracer.enabled:
                self.tracer.event(
                    "network",
                    message=f"delivered {describe(request)} "
                    f"{request.sender} -> {target}",
                )
            if on_delivered is not None:
                on_delivered(response)

        self.loop.call_at(timestamp + one_way, deliver, label=type(request).__name__)

    def _require_known(self, node_id: NodeId) -> None:
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")

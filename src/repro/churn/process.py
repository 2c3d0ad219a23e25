"""Event-loop-driven churn for end-to-end protocol simulations.

The :class:`ChurnProcess` attaches to a :class:`~repro.dht.network.SimulatedNetwork`
and schedules exponential death times (and optionally transient
offline/online sessions) for every node.  When a node dies a fresh
replacement node joins under a new id, keeping the population size constant
— the standard steady-state churn setup, and the behaviour Section III-D of
the paper reasons about ("a new node will take the place of H1,3").
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.churn.lifetime import LifetimeModel
from repro.churn.session import AlwaysAvailable, AvailabilityModel
from repro.dht.kademlia import KademliaNode
from repro.dht.node_id import NodeId
from repro.dht.network import Liveness, SimulatedNetwork
from repro.util.rng import RandomSource


class ChurnProcess:
    """Drives death (and optional unavailability) churn on an overlay."""

    def __init__(
        self,
        network: SimulatedNetwork,
        lifetime_model: LifetimeModel,
        rng: RandomSource,
        availability_model: Optional[AvailabilityModel] = None,
        replace_dead_nodes: bool = True,
    ) -> None:
        self.network = network
        self.lifetime_model = lifetime_model
        self.availability = (
            availability_model if availability_model is not None else AlwaysAvailable()
        )
        self.replace_dead_nodes = replace_dead_nodes
        self._rng = rng
        self.deaths = 0
        self.joins = 0
        self._replacement_counter = 0
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Schedule an exponential death time for every current node."""
        if self._started:
            raise RuntimeError("churn process already started")
        self._started = True
        for node_id in self.network.node_ids():
            self._schedule_death(node_id)

    def _schedule_death(self, node_id: NodeId) -> None:
        lifetime = self.lifetime_model.draw_lifetime(
            self._rng.fork(f"life-{node_id.hex()}-{self.deaths}")
        )
        self.network.loop.call_later(
            lifetime, lambda: self._kill(node_id), label=f"death-{node_id}"
        )

    def _kill(self, node_id: NodeId) -> None:
        if self.network.liveness_of(node_id) is Liveness.DEAD:
            return
        self.network.kill(node_id)
        self.deaths += 1
        if self.replace_dead_nodes:
            self._join_replacement()

    def _join_replacement(self) -> None:
        """A fresh node joins under a new id and gets its own death clock."""
        self._replacement_counter += 1
        id_rng = self._rng.fork(f"join-{self._replacement_counter}")
        while True:
            candidate = NodeId.random(id_rng)
            if self.network.get_node(candidate) is None:
                break
        node = KademliaNode(candidate, self.network)
        self.network.register(node)
        # Seed the newcomer's routing table with a few live contacts so it
        # participates in lookups immediately.
        online = self.network.online_ids()
        if online:
            sample_size = min(20, len(online))
            for contact in id_rng.sample(list(online), sample_size):
                node.routing_table.add_contact(contact)
        self.joins += 1
        self._schedule_death(candidate)

    # -- diagnostics -------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        return {
            "deaths": self.deaths,
            "joins": self.joins,
            "online": len(self.network.online_ids()),
            "total_registered": len(self.network),
        }

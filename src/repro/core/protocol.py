"""Holder runtime: the package transmission protocol (paper §III).

This module turns the schemes' abstract structures into an executable
protocol on the simulated DHT.  Every overlay node gets a
:class:`HolderService` installed as its ``Deliver`` handler; holders then:

1. receive a layer key (multipath schemes, at ``ts``) or accumulate Shamir
   shares until the column threshold is met (key-share routing);
2. peel their onion layer;
3. hold the remaining onion for the holding period (the layer's embedded
   ``forward_at``);
4. forward the onion — and, in the share scheme, the next column's shares —
   to the next hops;
5. terminal holders deliver the emerged secret to the receiver at ``tr``.

Addressing modes (see DESIGN.md §5): multipath holders are *concrete* node
ids (keys were pre-assigned to those exact nodes, so a dead node is a lost
hop), while key-share hops are *id-space targets* re-resolved by DHT lookup
at forwarding time — the re-resolution is what makes the share scheme
churn-resilient, because a dead target simply resolves to the node that
took over its id neighbourhood.

Malicious holders (per the installed :class:`~repro.adversary.population.
SybilPopulation`) leak everything they see into the
:class:`~repro.adversary.knowledge.CollusionPool`; in drop mode they also
refuse to forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.adversary.knowledge import CollusionPool, Observation
from repro.adversary.population import SybilPopulation
from repro.core.onion import OnionCore, OnionPeelError, peel_onion
from repro.core.packages import (
    CHANNEL_LAYER_KEY,
    CHANNEL_ONION,
    CHANNEL_SECRET,
    CHANNEL_SHARE,
    LayerKeyPackage,
    OnionPackage,
    SecretPackage,
    SharePackage,
    parse_package,
)
from repro.crypto.shamir import Share, combine_shares
from repro.dht.kademlia import KademliaNode
from repro.dht.node_id import NodeId
from repro.dht.rpc import Deliver

ATTACK_NONE = "none"
ATTACK_RELEASE_AHEAD = "release-ahead"
ATTACK_DROP = "drop"

# Row tag 0 marks multipath onions, which fan out to every listed next hop;
# rows >= 1 mark key-share lattice onions, which follow their own row.
MULTIPATH_ROW = 0


@dataclass
class ProtocolContext:
    """Shared state for one protocol deployment on an overlay."""

    network: object  # SimulatedNetwork; its ``tracer`` records the holders' steps
    population: Optional[SybilPopulation] = None
    pool: CollusionPool = field(default_factory=CollusionPool)
    attack_mode: str = ATTACK_NONE
    resolve_targets: bool = False  # key-share mode: re-resolve hop ids

    def is_malicious(self, node_id: NodeId) -> bool:
        if self.population is None:
            return False
        return self.population.is_malicious(node_id)


class HolderService:
    """Per-node protocol logic, installed as the node's Deliver handler."""

    def __init__(self, node: KademliaNode, context: ProtocolContext) -> None:
        self.node = node
        self.context = context
        self._layer_keys: Dict[Tuple[bytes, int], bytes] = {}  # (key_id, column)
        self._shares: Dict[Tuple[bytes, int, int], Dict[int, Share]] = {}
        self._pending: Dict[Tuple[bytes, int], bytes] = {}  # (key_id, row) -> blob
        self._processed: Set[Tuple[bytes, int]] = set()
        node.deliver_handler = self._on_deliver

    # -- delivery entry point ------------------------------------------------

    def _on_deliver(self, sender: NodeId, channel: str, payload: bytes) -> None:
        package = parse_package(channel, payload)
        malicious = self.context.is_malicious(self.node.node_id)
        now = self.context.network.loop.clock.now

        if malicious:
            self._leak(package, now)
            if self.context.attack_mode == ATTACK_DROP and channel != CHANNEL_LAYER_KEY:
                # A dropping holder swallows onions and shares.  It still
                # accepts layer keys: refusing those would not help it, and
                # the leak above already recorded them.
                tracer = self.context.network.tracer
                if tracer.enabled:
                    tracer.event(
                        "attack",
                        message=f"{self.node.node_id} dropped {channel} package",
                    )
                return

        if channel == CHANNEL_LAYER_KEY:
            self._handle_layer_key(package)
        elif channel == CHANNEL_SHARE:
            self._handle_share(package)
        elif channel == CHANNEL_ONION:
            self._handle_onion(package)
        elif channel == CHANNEL_SECRET:
            # Holders are not receivers; a secret landing here is a protocol
            # error surfaced loudly rather than silently ignored.
            raise RuntimeError(
                f"secret package delivered to non-receiver node {self.node.node_id}"
            )

    # -- handlers -------------------------------------------------------------

    def _handle_layer_key(self, package: LayerKeyPackage) -> None:
        self._layer_keys[(package.key_id, package.column)] = package.key
        self._try_process_all(package.key_id)

    def _handle_share(self, package: SharePackage) -> None:
        bucket = self._shares.setdefault(
            (package.key_id, package.row, package.column), {}
        )
        bucket[package.share.index] = package.share
        self._try_process_all(package.key_id)

    def _handle_onion(self, package: OnionPackage) -> None:
        key = (package.key_id, package.row)
        if key in self._processed or key in self._pending:
            return  # duplicate copy from the joint fan-in
        self._pending[key] = package.blob
        self._try_process_all(package.key_id)

    # -- processing -------------------------------------------------------------

    def _try_process_all(self, key_id: bytes) -> None:
        for (pending_key_id, row) in list(self._pending.keys()):
            if pending_key_id == key_id:
                self._try_process(key_id, row)

    def _try_process(self, key_id: bytes, row: int) -> None:
        blob = self._pending.get((key_id, row))
        if blob is None:
            return
        layer = core = None
        for layer_key in self._candidate_keys(key_id, row):
            try:
                layer, core = peel_onion(layer_key, blob)
                break
            except OnionPeelError:
                # A key for a different column or row cannot decrypt this
                # layer; try the next candidate.
                continue
        if layer is None:
            return
        del self._pending[(key_id, row)]
        self._processed.add((key_id, row))
        now = self.context.network.loop.clock.now
        tracer = self.context.network.tracer
        if tracer.enabled:
            tracer.event(
                "holder",
                message=f"{self.node.node_id} peeled column {layer.column} (row {row})",
                column=layer.column,
            )
        if self.context.is_malicious(self.node.node_id):
            self.context.pool.deposit(
                Observation(
                    time=now,
                    holder=self.node.node_id,
                    kind="onion",
                    column=layer.column,
                    payload=layer.remaining,
                )
            )
            # A malicious holder also learns every share its onion layer
            # instructs it to forward (shares of the *next* column's keys),
            # one per destination row — §III-D's capture surface.
            for row_index, share in enumerate(layer.forward_shares, start=1):
                self.context.pool.deposit_share(
                    now, self.node.node_id, layer.column + 1, share, row=row_index
                )
        if core is not None:
            self._schedule_secret(key_id, layer, core)
        else:
            self._schedule_forward(key_id, row, layer)

    def _candidate_keys(self, key_id: bytes, row: int):
        """Yield directly stored layer keys, then share-reconstructed ones."""
        for (stored_key_id, _column), key in self._layer_keys.items():
            if stored_key_id == key_id:
                yield key
        for (share_key_id, share_row, _column), bucket in self._shares.items():
            if share_key_id != key_id or share_row != row:
                continue
            if not bucket:
                continue
            threshold = next(iter(bucket.values())).threshold
            if len(bucket) >= threshold:
                yield combine_shares(list(bucket.values())[:threshold])

    # -- forwarding ---------------------------------------------------------------

    def _schedule_forward(self, key_id: bytes, row: int, layer) -> None:
        network = self.context.network
        forward_at = max(layer.forward_at, network.loop.clock.now)
        shares = layer.forward_shares
        hops = layer.next_hops
        if shares and len(shares) != len(hops):
            raise RuntimeError(
                f"onion layer lists {len(hops)} hops but {len(shares)} shares"
            )

        def forward() -> None:
            if not network.is_online(self.node.node_id):
                if network.tracer.enabled:
                    network.tracer.event(
                        "holder",
                        message=f"{self.node.node_id} dead/offline at forward "
                        "time; package lost",
                    )
                return
            for index, hop_bytes in enumerate(hops):
                target = self._resolve(NodeId.from_bytes(hop_bytes))
                if target is None:
                    if network.tracer.enabled:
                        network.tracer.event(
                            "holder",
                            message=f"{self.node.node_id} found no live node "
                            f"for hop {index}",
                        )
                    continue
                if shares:
                    # Key-share routing: the onion follows its own row; the
                    # shares go to every next-column holder.
                    share_package = SharePackage(
                        key_id=key_id,
                        row=index + 1,
                        column=layer.column + 1,
                        share=shares[index],
                    )
                    self._deliver(target, share_package)
                    if index + 1 == row:
                        onion = OnionPackage(
                            key_id=key_id, row=row, blob=layer.remaining
                        )
                        self._deliver(target, onion)
                else:
                    onion = OnionPackage(key_id=key_id, row=row, blob=layer.remaining)
                    self._deliver(target, onion)

        network.loop.call_at(
            forward_at, forward, label=f"forward-{self.node.node_id}"
        )

    def _schedule_secret(self, key_id: bytes, layer, core: OnionCore) -> None:
        if not core.receiver_id:
            return  # auxiliary share-lattice row: dummy core, nothing to emit
        context = self.context
        network = context.network
        now = network.loop.clock.now
        if context.is_malicious(self.node.node_id):
            context.pool.deposit(
                Observation(
                    time=now,
                    holder=self.node.node_id,
                    kind="secret_key",
                    payload=core.secret,
                )
            )
            if context.attack_mode == ATTACK_DROP:
                return
        receiver = NodeId.from_bytes(core.receiver_id)
        release_at = max(layer.forward_at, now)

        def deliver_secret() -> None:
            if not network.is_online(self.node.node_id):
                if network.tracer.enabled:
                    network.tracer.event(
                        "holder",
                        message=f"terminal holder {self.node.node_id} dead/offline "
                        "at release time; copy lost",
                    )
                return
            package = SecretPackage(key_id=key_id, secret=core.secret)
            self._deliver(receiver, package)

        network.loop.call_at(
            release_at, deliver_secret, label=f"release-{self.node.node_id}"
        )

    # -- plumbing --------------------------------------------------------------------

    def _resolve(self, target: NodeId) -> Optional[NodeId]:
        """Concrete id, or closest live node in target-resolution mode."""
        if not self.context.resolve_targets:
            return target
        if self.context.network.get_node(target) is not None and (
            self.context.network.is_online(target)
        ):
            return target
        return self.node.find_closest_online(target)

    def _deliver(self, target: NodeId, package) -> None:
        network = self.context.network
        request = Deliver(
            sender=self.node.node_id,
            channel=package.channel,
            payload=package.to_bytes(),
        )
        network.send_at(network.loop.clock.now, request, target)

    # -- adversary bookkeeping ----------------------------------------------------------

    def _leak(self, package, now: float) -> None:
        pool = self.context.pool
        holder = self.node.node_id
        if isinstance(package, LayerKeyPackage):
            pool.deposit(
                Observation(
                    time=now,
                    holder=holder,
                    kind="layer_key",
                    column=package.column,
                    payload=package.key,
                )
            )
        elif isinstance(package, SharePackage):
            pool.deposit_share(
                now, holder, package.column, package.share, row=package.row
            )
        elif isinstance(package, OnionPackage):
            # Column unknown until peeled; record under column None and let
            # the peel-time deposit carry the column.
            pool.deposit(
                Observation(
                    time=now, holder=holder, kind="onion", payload=package.blob
                )
            )
        elif isinstance(package, SecretPackage):
            pool.deposit(
                Observation(
                    time=now, holder=holder, kind="secret_key", payload=package.secret
                )
            )


def install_holders(overlay, context: ProtocolContext) -> List[HolderService]:
    """Install a HolderService on every overlay node; returns the services."""
    services = []
    for node in overlay.nodes.values():
        services.append(HolderService(node, context))
    return services


def attempt_early_release(
    pool: CollusionPool, path_length: int
) -> Optional[bytes]:
    """Try to reconstruct the secret from pooled adversary knowledge.

    Mirrors what a real adversary would do: if the secret itself leaked,
    done; otherwise take every captured onion blob and strip layers with
    captured column keys until a core falls out.  Returns the secret bytes
    or None — integration tests compare this against the closed-form
    success predicates.
    """
    direct = pool.secret_key()
    if direct is not None:
        return direct
    blobs = [obs.payload for obs in pool.observations("onion") if obs.payload]
    keys = {
        column: pool.known_layer_key(column)
        for column in range(1, path_length + 1)
    }
    for blob in blobs:
        current = blob
        for _ in range(path_length):
            peeled = False
            for column in range(1, path_length + 1):
                key = keys.get(column)
                if key is None:
                    continue
                try:
                    layer, core = peel_onion(key, current)
                except OnionPeelError:
                    continue
                if core is not None:
                    return core.secret
                current = layer.remaining
                peeled = True
                break
            if not peeled:
                break
    return None

"""The data receiver (Bob, paper §II-A).

Bob owns a DHT node whose id the sender bakes into the onion core.  At the
release time the terminal holders deliver the secret key to that id; Bob
then pulls the ciphertext from the cloud and decrypts.  Before ``tr``
nothing addressed to him exists anywhere in the network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cloud.storage import CloudStore
from repro.crypto.cipher import decrypt
from repro.core.packages import CHANNEL_SECRET, SecretPackage, parse_package
from repro.dht.kademlia import KademliaNode
from repro.dht.node_id import NodeId


@dataclass
class ReceivedKey:
    """One emerged secret key, with arrival bookkeeping."""

    key_id: bytes
    secret: bytes
    first_arrival: float
    copies: int = 1


class DataReceiver:
    """Bob: collects emerged secret keys and decrypts cloud ciphertexts."""

    def __init__(self, node: KademliaNode, name: str = "bob") -> None:
        self.node = node
        self.name = name
        self._received: Dict[bytes, ReceivedKey] = {}
        node.deliver_handler = self._on_deliver

    @property
    def node_id(self) -> NodeId:
        return self.node.node_id

    def _on_deliver(self, sender: NodeId, channel: str, payload: bytes) -> None:
        if channel != CHANNEL_SECRET:
            return  # receivers ignore protocol traffic not addressed to them
        package = parse_package(channel, payload)
        assert isinstance(package, SecretPackage)
        now = self.node.network.loop.clock.now
        existing = self._received.get(package.key_id)
        if existing is None:
            self._received[package.key_id] = ReceivedKey(
                key_id=package.key_id,
                secret=package.secret,
                first_arrival=now,
            )
        else:
            existing.copies += 1
            if package.secret != existing.secret:
                raise RuntimeError(
                    "terminal holders delivered conflicting secrets for one key id"
                )

    # -- queries ---------------------------------------------------------

    def has_key(self, key_id: bytes) -> bool:
        return key_id in self._received

    def received(self, key_id: bytes) -> Optional[ReceivedKey]:
        return self._received.get(key_id)

    def release_time_of(self, key_id: bytes) -> Optional[float]:
        """When the key first emerged at the receiver, or None."""
        record = self._received.get(key_id)
        return record.first_arrival if record else None

    # -- end-to-end decryption --------------------------------------------

    def decrypt_from_cloud(
        self, cloud: CloudStore, blob_id: str, key_id: bytes
    ) -> bytes:
        """Fetch the ciphertext and decrypt with the emerged key.

        Raises ``KeyError`` when the key has not emerged yet — i.e. before
        ``tr`` the receiver *cannot* read the message, which integration
        tests assert.
        """
        record = self._received.get(key_id)
        if record is None:
            raise KeyError(
                f"secret key {key_id.hex()[:16]} has not emerged yet"
            )
        ciphertext = cloud.download(blob_id, principal=self.name)
        return decrypt(record.secret, ciphertext)

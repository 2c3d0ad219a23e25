"""k-bucket routing tables (Kademlia §2.2, §2.4).

Each node has 160 buckets; bucket ``i`` holds contacts whose XOR distance
from the owner has bit length ``i + 1``.  Buckets are least-recently-seen
ordered: fresh contacts go to the tail, re-seen contacts move to the tail,
and when a bucket is full the head (stalest) contact is evicted only if it
fails a liveness check supplied by the caller.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.dht.node_id import ID_BITS, NodeId

DEFAULT_BUCKET_SIZE = 20

LivenessProbe = Callable[[NodeId], bool]


class KBucket:
    """One bucket of up to ``capacity`` contacts, LRS-ordered."""

    def __init__(self, capacity: int = DEFAULT_BUCKET_SIZE) -> None:
        if capacity < 1:
            raise ValueError(f"bucket capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Insertion-ordered, keyed by NodeId: head = stalest, tail = freshest.
        self._contacts: Dict[NodeId, None] = {}

    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._contacts

    @property
    def contacts(self) -> List[NodeId]:
        return list(self._contacts)

    @property
    def stalest(self) -> Optional[NodeId]:
        return next(iter(self._contacts), None)

    def touch(self, node_id: NodeId, probe: Optional[LivenessProbe] = None) -> bool:
        """Record that ``node_id`` was seen.

        Returns True if the contact is now in the bucket.  When the bucket is
        full, the stalest contact is probed (if a probe is given): a live
        stale contact is refreshed and the newcomer dropped — Kademlia's
        proven stability bias toward long-lived nodes; a dead one is evicted.
        """
        contacts = self._contacts
        if node_id in contacts:
            del contacts[node_id]
            contacts[node_id] = None  # back in at the tail
            return True
        if len(contacts) < self.capacity:
            contacts[node_id] = None
            return True
        stalest = next(iter(contacts))  # capacity >= 1: a full bucket has a head
        if probe is not None and not probe(stalest):
            del contacts[stalest]
            contacts[node_id] = None
            return True
        del contacts[stalest]
        contacts[stalest] = None
        return False

    def remove(self, node_id: NodeId) -> bool:
        """Drop a contact (e.g. after a failed RPC); returns whether present."""
        if node_id not in self._contacts:
            return False
        del self._contacts[node_id]
        return True


class RoutingTable:
    """The full per-node routing table: one :class:`KBucket` per distance bit.

    Buckets are created on first contact: an N-node overlay fills about
    log2(N) of a node's 160, and the experiments build an overlay per run.
    Contacts handed to :meth:`seed` wait until the table is first used.
    """

    def __init__(self, owner: NodeId, bucket_size: int = DEFAULT_BUCKET_SIZE) -> None:
        self.owner = owner
        self.bucket_size = bucket_size
        self._buckets: Dict[int, KBucket] = {}  # bucket index -> live bucket
        self._seeds: List[NodeId] = []  # queued by seed(), applied by _live()

    def seed(self, contacts: Iterable[NodeId]) -> None:
        """Add ``contacts`` as :meth:`add_contact` without a probe would, later.

        They are applied, in order, the first time the table is read or
        written.  That is exact: the no-probe rule reads only the table, and
        every method applies the queue before it touches a bucket.
        """
        self._seeds.extend(contacts)

    def _live(self) -> Dict[int, KBucket]:
        """The buckets, with any queued seeds applied."""
        if self._seeds:
            seeds, self._seeds = self._seeds, []
            for node_id in seeds:
                self._add(node_id, None)
        return self._buckets

    def _index_of(self, node_id: NodeId) -> int:
        """Bucket index of ``node_id``; -1, which no bucket has, for the owner."""
        return (node_id.value ^ self.owner.value).bit_length() - 1

    def bucket_for(self, node_id: NodeId) -> KBucket:
        index = self.owner.bucket_index_for(node_id)
        buckets = self._live()
        bucket = buckets.get(index)
        if bucket is None:
            bucket = buckets[index] = KBucket(self.bucket_size)
        return bucket

    def add_contact(self, node_id: NodeId, probe: Optional[LivenessProbe] = None) -> bool:
        """Insert/refresh a contact; silently ignores the owner's own id."""
        self._live()
        return self._add(node_id, probe)

    def _add(self, node_id: NodeId, probe: Optional[LivenessProbe]) -> bool:
        # Every seeded contact and every RPC lands here, so the index is
        # computed inline rather than through ``bucket_for``.
        index = (node_id.value ^ self.owner.value).bit_length() - 1
        if index < 0:
            return False
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = KBucket(self.bucket_size)
        return bucket.touch(node_id, probe)

    def remove_contact(self, node_id: NodeId) -> bool:
        bucket = self._live().get(self._index_of(node_id))
        return bucket is not None and bucket.remove(node_id)

    def __contains__(self, node_id: NodeId) -> bool:
        bucket = self._live().get(self._index_of(node_id))
        return bucket is not None and node_id in bucket

    def closest_contacts(self, target: NodeId, count: int) -> List[NodeId]:
        """The ``count`` known contacts closest to ``target``, nearest first.

        A flat scan of the live buckets.  XOR distances to one target are
        distinct per id, so keying on the distance drops no contact and
        leaves no ties to break.
        """
        target_value = target.value
        by_distance = {
            contact.value ^ target_value: contact
            for bucket in self._live().values()
            for contact in bucket._contacts
        }
        return [by_distance[d] for d in sorted(by_distance)[:count]]

    @property
    def contact_count(self) -> int:
        return sum(len(bucket) for bucket in self._live().values())

    def all_contacts(self) -> List[NodeId]:
        """Every contact, by ascending bucket index, LRS order within one."""
        buckets = self._live()
        contacts: List[NodeId] = []
        for index in sorted(buckets):
            contacts.extend(buckets[index]._contacts)
        return contacts

    def bucket_sizes(self) -> List[int]:
        """Occupancy per bucket index (diagnostics and tests)."""
        sizes = [0] * ID_BITS
        for index, bucket in self._live().items():
            sizes[index] = len(bucket)
        return sizes

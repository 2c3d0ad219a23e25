"""k-bucket routing tables (Kademlia §2.2, §2.4).

Each node has 160 buckets; bucket ``i`` holds contacts whose XOR distance
from the owner has bit length ``i + 1``.  Buckets are least-recently-seen
ordered: fresh contacts go to the tail, re-seen contacts move to the tail,
and when a bucket is full the head (stalest) contact is evicted only if it
fails a liveness check supplied by the caller.

Contacts are held by id value.  Every bucket a table creates shares the
table's one ``value -> NodeId`` index of all its contacts, and a bucket
updates it exactly where it gains or loses a contact (an append, a probe
eviction, :meth:`KBucket.remove`).  :meth:`RoutingTable.closest_contacts`,
the answer to every ``FIND_NODE``, is then one sort of plain XOR distances
mapped back through that index: distances to one target are distinct per
id, so the sort has no ties and equals the sort by ``(distance, id)``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.dht.node_id import ID_BITS, NodeId

DEFAULT_BUCKET_SIZE = 20

LivenessProbe = Callable[[NodeId], bool]


class KBucket:
    """One bucket of up to ``capacity`` contacts, LRS-ordered.

    ``index`` is the owning table's ``value -> NodeId`` map of every
    contact; the bucket keeps its own contacts in it.  A bucket made on its
    own keeps a private one.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_BUCKET_SIZE,
        index: Optional[Dict[int, NodeId]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"bucket capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        # Insertion-ordered, keyed by id value: head = stalest, tail = freshest.
        self._contacts: Dict[int, NodeId] = {}
        self._index: Dict[int, NodeId] = {} if index is None else index

    def __len__(self) -> int:
        return len(self._contacts)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id.value in self._contacts

    @property
    def contacts(self) -> List[NodeId]:
        return list(self._contacts.values())

    @property
    def stalest(self) -> Optional[NodeId]:
        return next(iter(self._contacts.values()), None)

    def touch(self, node_id: NodeId, probe: Optional[LivenessProbe] = None) -> bool:
        """Record that ``node_id`` was seen.

        Returns True if the contact is now in the bucket.  When the bucket is
        full, the stalest contact is probed (if a probe is given): a live
        stale contact is refreshed and the newcomer dropped — Kademlia's
        proven stability bias toward long-lived nodes; a dead one is evicted.
        """
        contacts = self._contacts
        value = node_id.value
        if value in contacts:
            del contacts[value]
            contacts[value] = self._index[value] = node_id  # back in at the tail
            return True
        if len(contacts) < self.capacity:
            contacts[value] = self._index[value] = node_id
            return True
        stalest = next(iter(contacts))  # capacity >= 1: a full bucket has a head
        if probe is not None and not probe(contacts[stalest]):
            del contacts[stalest]
            del self._index[stalest]
            contacts[value] = self._index[value] = node_id
            return True
        contacts[stalest] = contacts.pop(stalest)
        return False

    def remove(self, node_id: NodeId) -> bool:
        """Drop a contact (e.g. after a failed RPC); returns whether present."""
        value = node_id.value
        if value not in self._contacts:
            return False
        del self._contacts[value]
        del self._index[value]
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
        self._index: Dict[int, NodeId] = {}  # id value -> contact, every bucket's
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
                bucket = self._bucket_of(node_id, create=True)
                if bucket is not None:
                    bucket.touch(node_id)
        return self._buckets

    def _bucket_of(self, node_id: NodeId, create: bool) -> Optional[KBucket]:
        """The bucket ``node_id`` falls into; None for the owner's own id.

        The one place a bucket index is computed.  With ``create`` a missing
        bucket is made, sharing the table's index; without, it stays None.
        """
        index = (node_id.value ^ self.owner.value).bit_length() - 1
        bucket = self._buckets.get(index)  # index -1, the owner's, has none
        if bucket is None and create and index >= 0:
            bucket = self._buckets[index] = KBucket(self.bucket_size, self._index)
        return bucket

    def bucket_for(self, node_id: NodeId) -> KBucket:
        self._live()
        bucket = self._bucket_of(node_id, create=True)
        if bucket is None:
            raise ValueError("a node does not bucket its own id")
        return bucket

    def add_contact(self, node_id: NodeId, probe: Optional[LivenessProbe] = None) -> bool:
        """Insert/refresh a contact; silently ignores the owner's own id."""
        self._live()
        bucket = self._bucket_of(node_id, create=True)
        return bucket is not None and bucket.touch(node_id, probe)

    def remove_contact(self, node_id: NodeId) -> bool:
        self._live()
        bucket = self._bucket_of(node_id, create=False)
        return bucket is not None and bucket.remove(node_id)

    def __contains__(self, node_id: NodeId) -> bool:
        self._live()
        return node_id.value in self._index

    def closest_contacts(
        self, target: NodeId, count: int, excluding: Optional[NodeId] = None
    ) -> List[NodeId]:
        """The ``count`` known contacts closest to ``target``, nearest first.

        One sort of the XOR distances of every contact to ``target``, mapped
        back through the value index (``distance ^ target`` is the contact's
        value).  ``excluding`` (a ``FIND_NODE`` sender) is left out.
        """
        self._live()
        index = self._index
        target_value = target.value
        distances = [value ^ target_value for value in index]
        distances.sort()
        if excluding is None:
            return [index[d ^ target_value] for d in distances[:count]]
        skipped = excluding.value ^ target_value
        return [
            index[d ^ target_value] for d in distances[: count + 1] if d != skipped
        ][:count]

    @property
    def contact_count(self) -> int:
        self._live()
        return len(self._index)

    def all_contacts(self) -> List[NodeId]:
        """Every contact, by ascending bucket index, LRS order within one."""
        buckets = self._live()
        contacts: List[NodeId] = []
        for index in sorted(buckets):
            contacts.extend(buckets[index]._contacts.values())
        return contacts

    def bucket_sizes(self) -> List[int]:
        """Occupancy per bucket index (diagnostics and tests)."""
        sizes = [0] * ID_BITS
        for index, bucket in self._live().items():
            sizes[index] = len(bucket)
        return sizes

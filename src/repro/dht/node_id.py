"""160-bit node identifiers and the XOR distance metric (Kademlia §2.1)."""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.util.rng import RandomSource

ID_BITS = 160
ID_BYTES = ID_BITS // 8
_MAX_ID = (1 << ID_BITS) - 1


class NodeId:
    """An identifier in the 160-bit Kademlia id space.

    An immutable value object.  Lookups compare and hash ids millions of
    times per release, so equality short-circuits on identity (an overlay
    shares one instance per node) and the hash is computed once.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: int) -> None:
        if not isinstance(value, int):
            raise TypeError(f"id value must be int, got {type(value).__name__}")
        if not 0 <= value <= _MAX_ID:
            raise ValueError(f"id value out of range: {value}")
        object.__setattr__(self, "value", value)
        # Pinned to the hash of the 1-tuple: the iteration order of every
        # set and dict of ids, and so every trace, depends on this value.
        object.__setattr__(self, "_hash", hash((value,)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (NodeId, (self.value,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is NodeId:
            return self.value == other.value
        return NotImplemented

    def __lt__(self, other: "NodeId") -> bool:
        if other.__class__ is NodeId:
            return self.value < other.value
        return NotImplemented

    def __le__(self, other: "NodeId") -> bool:
        if other.__class__ is NodeId:
            return self.value <= other.value
        return NotImplemented

    def __gt__(self, other: "NodeId") -> bool:
        if other.__class__ is NodeId:
            return self.value > other.value
        return NotImplemented

    def __ge__(self, other: "NodeId") -> bool:
        if other.__class__ is NodeId:
            return self.value >= other.value
        return NotImplemented

    # -- constructors ------------------------------------------------------

    @classmethod
    def random(cls, rng: RandomSource) -> "NodeId":
        """Uniformly random id, from a deterministic source."""
        return cls(rng.getrandbits(ID_BITS))

    @classmethod
    def from_bytes(cls, data: bytes) -> "NodeId":
        if len(data) != ID_BYTES:
            raise ValueError(f"node id needs {ID_BYTES} bytes, got {len(data)}")
        return cls(int.from_bytes(data, "big"))

    @classmethod
    def hash_of(cls, material: bytes) -> "NodeId":
        """SHA-1-style mapping of arbitrary material into the id space.

        SHA-256 truncated to 160 bits; maps a name onto a deterministic
        point of the id space (a lookup target).
        """
        digest = hashlib.sha256(material).digest()
        return cls.from_bytes(digest[:ID_BYTES])

    # -- metric ------------------------------------------------------------

    def distance_to(self, other: "NodeId") -> int:
        """XOR distance."""
        return self.value ^ other.value

    # -- encoding ----------------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(ID_BYTES, "big")

    def hex(self) -> str:
        return format(self.value, "040x")

    def __str__(self) -> str:
        """The leading 48 bits, as 12 hex digits."""
        return format(self.value >> (ID_BITS - 48), "012x")

    def __repr__(self) -> str:
        return f"NodeId({self}...)"


def unique_random_ids(
    rng: RandomSource, count: int, exclude: Optional[set] = None
) -> List[NodeId]:
    """Draw ``count`` distinct random ids, avoiding an exclusion set.

    Collisions in a 160-bit space are vanishingly rare, so this loops only
    in pathological tests that force tiny exclusion margins.
    """
    excluded = set(exclude) if exclude else set()
    result: List[NodeId] = []
    while len(result) < count:
        candidate = NodeId.random(rng)
        if candidate in excluded:
            continue
        excluded.add(candidate)
        result.append(candidate)
    return result

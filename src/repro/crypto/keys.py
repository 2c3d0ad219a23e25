"""Secret-key type and generation.

A :class:`SecretKey` wraps the raw 32 key bytes with a short fingerprint for
logging (never log the key itself).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.util.rng import RandomSource

KEY_SIZE = 32


@dataclass(frozen=True)
class SecretKey:
    """An immutable symmetric key."""

    material: bytes = field(repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.material, (bytes, bytearray)):
            raise TypeError(
                f"key material must be bytes, got {type(self.material).__name__}"
            )
        if len(self.material) != KEY_SIZE:
            raise ValueError(
                f"key material must be {KEY_SIZE} bytes, got {len(self.material)}"
            )
        object.__setattr__(self, "material", bytes(self.material))

    @property
    def fingerprint(self) -> str:
        """Short stable identifier, safe to log."""
        return hashlib.sha256(self.material).hexdigest()[:16]

    def __repr__(self) -> str:  # never expose material in repr
        return f"SecretKey(fingerprint={self.fingerprint})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return self.material == other.material

    def __hash__(self) -> int:
        return hash(self.material)


def generate_key(rng: Optional[RandomSource] = None) -> SecretKey:
    """Generate a fresh random symmetric key.

    A :class:`~repro.util.rng.RandomSource` may be supplied for reproducible
    simulations; real deployments would draw from the OS CSPRNG instead.
    """
    if rng is None:
        import os

        return SecretKey(os.urandom(KEY_SIZE))
    return SecretKey(rng.random_bytes(KEY_SIZE))

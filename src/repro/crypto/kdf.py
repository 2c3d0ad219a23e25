"""Key derivation helpers (HKDF-style expand over HMAC-SHA-256)."""

from __future__ import annotations

import hashlib
import hmac
from typing import List

_HASH_SIZE = 32


def derive_key(master: bytes, label: str, length: int = 32) -> bytes:
    """Derive a ``length``-byte subkey from ``master`` for the given label.

    HKDF-Expand with the label as info.  Distinct labels yield independent
    keys; the onion builder uses this to derive per-layer keys from one
    master when callers ask for deterministic layer keys.
    """
    if not isinstance(master, (bytes, bytearray)):
        raise TypeError(f"master must be bytes, got {type(master).__name__}")
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    info = label.encode("utf-8")
    blocks: List[bytes] = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac.new(
            bytes(master), previous + info + bytes([counter]), hashlib.sha256
        ).digest()
        blocks.append(previous)
        counter += 1
        if counter > 255:
            raise ValueError("requested length too large for HKDF expand")
    return b"".join(blocks)[:length]


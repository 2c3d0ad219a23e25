"""Byte-string helpers shared by the crypto layer."""

from __future__ import annotations

import hmac
from typing import List


def xor_bytes(left: bytes, right: bytes) -> bytes:
    """XOR two equal-length byte strings.

    Raises ``ValueError`` on length mismatch — silent truncation here would
    corrupt onion layers undetectably.
    """
    if len(left) != len(right):
        raise ValueError(
            f"xor_bytes requires equal lengths, got {len(left)} and {len(right)}"
        )
    # One big-integer XOR: the onion and cloud ciphers XOR whole payloads.
    return (int.from_bytes(left, "big") ^ int.from_bytes(right, "big")).to_bytes(
        len(left), "big"
    )


def int_to_bytes(value: int, length: int) -> bytes:
    """Encode a non-negative integer as a fixed-length big-endian string."""
    if value < 0:
        raise ValueError(f"value must be non-negative, got {value}")
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian byte string to an integer."""
    return int.from_bytes(data, "big")


def chunk_bytes(data: bytes, size: int) -> List[bytes]:
    """Split ``data`` into chunks of at most ``size`` bytes (last may be short)."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    return [data[i : i + size] for i in range(0, len(data), size)]


def constant_time_equal(left: bytes, right: bytes) -> bool:
    """Timing-safe byte-string comparison (wraps :func:`hmac.compare_digest`)."""
    return hmac.compare_digest(left, right)

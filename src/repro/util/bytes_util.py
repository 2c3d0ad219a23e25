"""Byte-string helpers shared by the crypto layer."""

from __future__ import annotations

import hmac


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


def constant_time_equal(left: bytes, right: bytes) -> bool:
    """Timing-safe byte-string comparison (wraps :func:`hmac.compare_digest`)."""
    return hmac.compare_digest(left, right)

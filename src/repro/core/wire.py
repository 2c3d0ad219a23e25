"""Minimal length-prefixed binary serialization.

Onion layers and protocol packages need a stable byte format so that layers
can nest and tests can assert on exact round-trips.  The format is
deliberately simple: big-endian fixed-width integers and length-prefixed
byte strings, written/read through :class:`WireWriter` / :class:`WireReader`.
"""

from __future__ import annotations

from typing import List


class WireError(ValueError):
    """Raised on malformed wire data (truncation, bad lengths)."""


class WireWriter:
    """Accumulates a serialized message."""

    def __init__(self) -> None:
        self._parts: List[bytes] = []

    def write_u8(self, value: int) -> "WireWriter":
        if not 0 <= value < 2 ** 8:
            raise WireError(f"u8 out of range: {value}")
        self._parts.append(value.to_bytes(1, "big"))
        return self

    def write_u32(self, value: int) -> "WireWriter":
        if not 0 <= value < 2 ** 32:
            raise WireError(f"u32 out of range: {value}")
        self._parts.append(value.to_bytes(4, "big"))
        return self

    def write_f64(self, value: float) -> "WireWriter":
        import struct

        self._parts.append(struct.pack(">d", value))
        return self

    def write_bytes(self, data: bytes) -> "WireWriter":
        """Length-prefixed byte string (u32 length)."""
        if not isinstance(data, (bytes, bytearray)):
            raise WireError(f"expected bytes, got {type(data).__name__}")
        self.write_u32(len(data))
        self._parts.append(bytes(data))
        return self

    def write_bytes_list(self, items: List[bytes]) -> "WireWriter":
        self.write_u32(len(items))
        for item in items:
            self.write_bytes(item)
        return self

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


class WireReader:
    """Cursor-based reader over a serialized message."""

    def __init__(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray)):
            raise WireError(f"expected bytes, got {type(data).__name__}")
        self._data = bytes(data)
        self._offset = 0

    def _take(self, count: int) -> bytes:
        if self._offset + count > len(self._data):
            raise WireError(
                f"truncated message: need {count} bytes at offset {self._offset}, "
                f"have {len(self._data) - self._offset}"
            )
        chunk = self._data[self._offset : self._offset + count]
        self._offset += count
        return chunk

    def read_u8(self) -> int:
        return int.from_bytes(self._take(1), "big")

    def read_u32(self) -> int:
        return int.from_bytes(self._take(4), "big")

    def read_f64(self) -> float:
        import struct

        return struct.unpack(">d", self._take(8))[0]

    def read_bytes(self) -> bytes:
        length = self.read_u32()
        return self._take(length)

    def read_bytes_list(self) -> List[bytes]:
        count = self.read_u32()
        return [self.read_bytes() for _ in range(count)]

    @property
    def remaining(self) -> int:
        return len(self._data) - self._offset

    def expect_end(self) -> None:
        if self.remaining:
            raise WireError(f"{self.remaining} trailing bytes after message")

"""Access-controlled blob storage standing in for the paper's cloud."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.sim.clock import Clock


class AccessDeniedError(Exception):
    """Raised when a principal without access reads a restricted blob."""


class UnknownBlobError(KeyError):
    """Raised when a blob id does not exist."""


@dataclass(frozen=True)
class BlobMetadata:
    """Public metadata of a stored blob."""

    blob_id: str
    owner: str
    size: int
    uploaded_at: float
    content_digest: str


@dataclass
class _BlobRecord:
    metadata: BlobMetadata
    content: bytes
    readers: Optional[Set[str]] = field(default=None)  # None = public


class CloudStore:
    """In-memory blob store with optional reader allow-lists.

    The self-emerging protocol uploads the ciphertext publicly (anyone can
    fetch it; it is useless without the key).  The allow-list mode exists
    for the examples that model per-recipient delivery and for tests.
    """

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self._clock = clock if clock is not None else Clock()
        self._blobs: Dict[str, _BlobRecord] = {}
        self.upload_count = 0
        self.download_count = 0

    # -- write path --------------------------------------------------------

    def upload(
        self,
        owner: str,
        content: bytes,
        blob_id: Optional[str] = None,
        readers: Optional[Set[str]] = None,
    ) -> BlobMetadata:
        """Store ``content``; returns metadata with the assigned blob id.

        ``readers=None`` makes the blob public; otherwise only listed
        principals (and the owner) may download.
        """
        if not isinstance(content, (bytes, bytearray)):
            raise TypeError(f"content must be bytes, got {type(content).__name__}")
        digest = hashlib.sha256(content).hexdigest()
        if blob_id is None:
            blob_id = digest[:32]
        if blob_id in self._blobs:
            raise ValueError(f"blob id {blob_id!r} already exists")
        metadata = BlobMetadata(
            blob_id=blob_id,
            owner=owner,
            size=len(content),
            uploaded_at=self._clock.now,
            content_digest=digest,
        )
        self._blobs[blob_id] = _BlobRecord(
            metadata=metadata,
            content=bytes(content),
            readers=set(readers) if readers is not None else None,
        )
        self.upload_count += 1
        return metadata

    # -- read path ---------------------------------------------------------

    def download(self, blob_id: str, principal: str) -> bytes:
        """Fetch blob content, enforcing the reader allow-list."""
        record = self._require(blob_id)
        if record.readers is not None:
            if principal != record.metadata.owner and principal not in record.readers:
                raise AccessDeniedError(
                    f"principal {principal!r} may not read blob {blob_id!r}"
                )
        self.download_count += 1
        return record.content

    def metadata(self, blob_id: str) -> BlobMetadata:
        return self._require(blob_id).metadata

    def exists(self, blob_id: str) -> bool:
        return blob_id in self._blobs

    def delete(self, blob_id: str, principal: str) -> None:
        """Owner-only removal."""
        record = self._require(blob_id)
        if principal != record.metadata.owner:
            raise AccessDeniedError(
                f"only the owner may delete blob {blob_id!r}"
            )
        del self._blobs[blob_id]

    def __len__(self) -> int:
        return len(self._blobs)

    def _require(self, blob_id: str) -> _BlobRecord:
        record = self._blobs.get(blob_id)
        if record is None:
            raise UnknownBlobError(blob_id)
        return record

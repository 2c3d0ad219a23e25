"""Cloud blob store: upload/download, access control, lifecycle."""

import pytest

from repro.cloud.storage import (
    AccessDeniedError,
    CloudStore,
    UnknownBlobError,
)
from repro.sim.clock import Clock


class TestUploadDownload:
    def test_roundtrip(self):
        cloud = CloudStore()
        meta = cloud.upload("alice", b"ciphertext bytes")
        assert cloud.download(meta.blob_id, "anyone") == b"ciphertext bytes"

    def test_metadata(self):
        clock = Clock(42.0)
        cloud = CloudStore(clock)
        meta = cloud.upload("alice", b"payload")
        assert meta.owner == "alice"
        assert meta.size == 7
        assert meta.uploaded_at == 42.0
        assert len(meta.content_digest) == 64

    def test_explicit_blob_id(self):
        cloud = CloudStore()
        meta = cloud.upload("alice", b"x", blob_id="custom-id")
        assert meta.blob_id == "custom-id"
        assert cloud.exists("custom-id")

    def test_duplicate_blob_id_rejected(self):
        cloud = CloudStore()
        cloud.upload("alice", b"x", blob_id="dup")
        with pytest.raises(ValueError):
            cloud.upload("bob", b"y", blob_id="dup")

    def test_unknown_blob_rejected(self):
        with pytest.raises(UnknownBlobError):
            CloudStore().download("nope", "alice")

    def test_non_bytes_rejected(self):
        with pytest.raises(TypeError):
            CloudStore().upload("alice", "text")

    def test_counters(self):
        cloud = CloudStore()
        meta = cloud.upload("a", b"1")
        cloud.download(meta.blob_id, "x")
        cloud.download(meta.blob_id, "y")
        assert cloud.upload_count == 1
        assert cloud.download_count == 2


class TestAccessControl:
    def test_public_blob_readable_by_all(self):
        cloud = CloudStore()
        meta = cloud.upload("alice", b"public")
        assert cloud.download(meta.blob_id, "stranger") == b"public"

    def test_restricted_blob_blocks_strangers(self):
        cloud = CloudStore()
        meta = cloud.upload("alice", b"private", readers={"bob"})
        assert cloud.download(meta.blob_id, "bob") == b"private"
        assert cloud.download(meta.blob_id, "alice") == b"private"  # owner
        with pytest.raises(AccessDeniedError):
            cloud.download(meta.blob_id, "eve")


class TestLifecycle:
    def test_owner_delete(self):
        cloud = CloudStore()
        meta = cloud.upload("alice", b"gone soon")
        cloud.delete(meta.blob_id, "alice")
        assert not cloud.exists(meta.blob_id)

    def test_non_owner_delete_rejected(self):
        cloud = CloudStore()
        meta = cloud.upload("alice", b"keep")
        with pytest.raises(AccessDeniedError):
            cloud.delete(meta.blob_id, "bob")

    def test_len(self):
        cloud = CloudStore()
        cloud.upload("a", b"1")
        cloud.upload("a", b"2")
        assert len(cloud) == 2

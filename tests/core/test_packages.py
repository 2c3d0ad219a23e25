"""Protocol package wire formats."""

import pytest

from repro.core.packages import (
    CHANNEL_LAYER_KEY,
    CHANNEL_ONION,
    CHANNEL_SECRET,
    CHANNEL_SHARE,
    LayerKeyPackage,
    OnionPackage,
    SecretPackage,
    SharePackage,
    parse_package,
)
from repro.core.wire import WireError, WireWriter
from repro.crypto.shamir import Share


class TestRoundTrips:
    def test_onion_package(self):
        package = OnionPackage(key_id=b"kid", row=3, blob=b"onion blob")
        parsed = parse_package(CHANNEL_ONION, package.to_bytes())
        assert parsed == package

    def test_layer_key_package(self):
        package = LayerKeyPackage(key_id=b"kid", column=5, key=b"k" * 32)
        parsed = parse_package(CHANNEL_LAYER_KEY, package.to_bytes())
        assert parsed == package

    def test_share_package(self):
        share = Share(index=4, payload=b"share payload", threshold=3)
        package = SharePackage(key_id=b"kid", row=2, column=7, share=share)
        parsed = parse_package(CHANNEL_SHARE, package.to_bytes())
        assert parsed == package
        assert parsed.share.threshold == 3

    @pytest.mark.parametrize("index, threshold", [(0, 2), (1, 0), (0, 0)])
    def test_malformed_share_is_a_wire_error(self, index, threshold):
        share = WireWriter().write_u8(index).write_u8(threshold).write_bytes(b"p")
        data = (
            WireWriter()
            .write_bytes(b"kid")
            .write_u32(2)
            .write_u32(7)
            .write_bytes(share.getvalue())
            .getvalue()
        )
        with pytest.raises(WireError, match="malformed share"):
            parse_package(CHANNEL_SHARE, data)

    def test_secret_package(self):
        package = SecretPackage(key_id=b"kid", secret=b"s" * 32)
        parsed = parse_package(CHANNEL_SECRET, package.to_bytes())
        assert parsed == package


class TestChannelDispatch:
    def test_channel_attributes(self):
        assert OnionPackage.channel == CHANNEL_ONION
        assert LayerKeyPackage.channel == CHANNEL_LAYER_KEY
        assert SharePackage.channel == CHANNEL_SHARE
        assert SecretPackage.channel == CHANNEL_SECRET

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol channel"):
            parse_package("bogus", b"data")

    def test_wrong_channel_garbles(self):
        package = SecretPackage(key_id=b"kid", secret=b"s")
        # Parsing a secret as an onion must raise or misparse, never
        # silently round-trip as the same package type.
        try:
            parsed = parse_package(CHANNEL_ONION, package.to_bytes())
        except Exception:
            return
        assert not isinstance(parsed, SecretPackage)

"""Onion construction and peeling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.onion import (
    OnionCore,
    OnionPeelError,
    build_onion,
    deserialize_share,
    peel_onion,
    serialize_share,
)
from repro.core.wire import WireError, WireWriter
from repro.crypto.cipher import SymmetricCipher
from repro.crypto.shamir import Share, split_secret
from repro.util.rng import RandomSource


def keys(count, seed=1):
    rng = RandomSource(seed, "layer-keys")
    return [rng.random_bytes(32) for _ in range(count)]


def simple_onion(length=3, seed=1, forward_times=None):
    layer_keys = keys(length, seed)
    hop_ids = [[f"hop-{j}-{i}".encode() for i in range(2)] for j in range(length - 1)]
    hop_ids.append([])
    core = OnionCore(secret=b"the secret key", receiver_id=b"receiver-id")
    blob = build_onion(
        layer_keys,
        hop_ids,
        core,
        forward_times=forward_times,
        rng=RandomSource(seed, "nonce"),
    )
    return layer_keys, hop_ids, core, blob


class TestBuildAndPeel:
    def test_full_peel_chain(self):
        layer_keys, hop_ids, core, blob = simple_onion(4)
        current = blob
        for column in range(1, 5):
            layer, found_core = peel_onion(layer_keys[column - 1], current)
            assert layer.column == column
            assert list(layer.next_hops) == hop_ids[column - 1]
            if column < 4:
                assert found_core is None
                current = layer.remaining
            else:
                assert found_core is not None
                assert found_core.secret == core.secret
                assert found_core.receiver_id == core.receiver_id

    def test_single_layer_onion(self):
        key = keys(1)[0]
        core = OnionCore(secret=b"s", receiver_id=b"r")
        blob = build_onion([key], [[]], core, rng=RandomSource(2))
        layer, found_core = peel_onion(key, blob)
        assert not layer.next_hops
        assert found_core.secret == b"s"

    def test_forward_times_embedded(self):
        times = [10.0, 20.0, 30.0]
        layer_keys, _, _, blob = simple_onion(3, forward_times=times)
        current = blob
        for column, expected in enumerate(times, start=1):
            layer, _ = peel_onion(layer_keys[column - 1], current)
            assert layer.forward_at == expected
            current = layer.remaining

    def test_onion_grows_with_layers(self):
        _, _, _, blob3 = simple_onion(3)
        _, _, _, blob5 = simple_onion(5)
        assert len(blob5) > len(blob3)


class TestPeelSecurity:
    def test_wrong_key_rejected(self):
        layer_keys, _, _, blob = simple_onion(3)
        with pytest.raises(OnionPeelError):
            peel_onion(layer_keys[1], blob)  # layer-2 key on layer 1

    def test_out_of_order_peel_rejected(self):
        layer_keys, _, _, blob = simple_onion(3)
        layer, _ = peel_onion(layer_keys[0], blob)
        with pytest.raises(OnionPeelError):
            peel_onion(layer_keys[2], layer.remaining)

    def test_tampered_layer_rejected(self):
        layer_keys, _, _, blob = simple_onion(2)
        tampered = bytearray(blob)
        tampered[len(tampered) // 2] ^= 0xFF
        with pytest.raises(OnionPeelError):
            peel_onion(layer_keys[0], bytes(tampered))

    @pytest.mark.parametrize("index, threshold", [(0, 2), (1, 0), (0, 0)])
    def test_authenticated_layer_with_a_malformed_share(self, index, threshold):
        # The layer decrypts, but its share field is out of range: that is
        # a peel failure like any other, never a bare ValueError.
        share = WireWriter().write_u8(index).write_u8(threshold)
        body = (
            WireWriter()
            .write_u8(0)  # layer type byte
            .write_u32(1)
            .write_f64(0.0)
            .write_bytes_list([b"next-hop"])
            .write_bytes_list([share.write_bytes(b"payload").getvalue()])
            .write_bytes(b"remaining")
            .getvalue()
        )
        key = keys(1)[0]
        blob = SymmetricCipher(key, rng=RandomSource(3)).encrypt(body)
        with pytest.raises(OnionPeelError, match="malformed share"):
            peel_onion(key, blob)

    def test_inner_layers_unreadable_without_outer(self):
        # Peeling with an inner key directly on the outer blob fails: the
        # onion hides structure from everyone but the current holder.
        layer_keys, _, _, blob = simple_onion(3)
        for wrong in layer_keys[1:]:
            with pytest.raises(OnionPeelError):
                peel_onion(wrong, blob)


class TestShares:
    def test_forward_shares_travel_in_layers(self):
        length = 3
        layer_keys = keys(length)
        shares = split_secret(b"next-column-key", 2, 3, RandomSource(5))
        hop_ids = [[b"h1", b"h2", b"h3"], [b"h4", b"h5", b"h6"], []]
        forward_shares = [shares, shares, []]
        core = OnionCore(secret=b"s", receiver_id=b"r")
        blob = build_onion(
            layer_keys, hop_ids, core, forward_shares=forward_shares,
            rng=RandomSource(6),
        )
        layer, _ = peel_onion(layer_keys[0], blob)
        assert len(layer.forward_shares) == 3
        assert [s.index for s in layer.forward_shares] == [1, 2, 3]
        assert layer.forward_shares[0].payload == shares[0].payload

    @given(
        st.integers(min_value=1, max_value=255),
        st.integers(min_value=1, max_value=10),
        st.binary(max_size=40),
    )
    @settings(max_examples=40)
    def test_share_serialization_roundtrip(self, index, threshold, payload):
        share = Share(index=index, payload=payload, threshold=threshold)
        assert deserialize_share(serialize_share(share)) == share


class TestValidation:
    def test_layer_hop_count_mismatch(self):
        with pytest.raises(ValueError):
            build_onion(keys(2), [[]], OnionCore(b"s", b"r"))

    def test_terminal_layer_must_be_empty(self):
        with pytest.raises(ValueError, match="terminal"):
            build_onion(
                keys(2), [[b"h"], [b"h2"]], OnionCore(b"s", b"r")
            )

    def test_terminal_shares_must_be_empty(self):
        share = Share(index=1, payload=b"x", threshold=1)
        with pytest.raises(ValueError, match="terminal"):
            build_onion(
                keys(2),
                [[b"h"], []],
                OnionCore(b"s", b"r"),
                forward_shares=[[], [share]],
            )

    def test_empty_onion_rejected(self):
        with pytest.raises(ValueError):
            build_onion([], [], OnionCore(b"s", b"r"))

    def test_forward_times_length_checked(self):
        with pytest.raises(ValueError):
            build_onion(
                keys(2), [[b"h"], []], OnionCore(b"s", b"r"), forward_times=[1.0]
            )

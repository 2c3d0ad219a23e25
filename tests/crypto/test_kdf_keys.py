"""Key derivation and SecretKey handling."""

import pytest

from repro.crypto.kdf import derive_key
from repro.crypto.keys import KEY_SIZE, SecretKey, generate_key
from repro.util.rng import RandomSource


class TestKdf:
    def test_deterministic(self):
        assert derive_key(b"master", "label") == derive_key(b"master", "label")

    def test_label_independence(self):
        assert derive_key(b"master", "a") != derive_key(b"master", "b")

    def test_master_independence(self):
        assert derive_key(b"m1", "a") != derive_key(b"m2", "a")

    def test_requested_length(self):
        for length in (1, 16, 32, 64, 100):
            assert len(derive_key(b"m", "l", length)) == length

    def test_long_output_prefix_consistent(self):
        short = derive_key(b"m", "l", 32)
        long = derive_key(b"m", "l", 64)
        assert long[:32] == short

    def test_sibling_labels_give_distinct_keys(self):
        keys = [derive_key(b"m", f"layer-{index}") for index in range(64)]
        assert len(set(keys)) == 64
        assert all(len(key) == 32 for key in keys)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            derive_key(b"m", "l", 0)

    def test_absurd_length_rejected(self):
        with pytest.raises(ValueError):
            derive_key(b"m", "l", 32 * 256)

    def test_non_bytes_master_rejected(self):
        with pytest.raises(TypeError):
            derive_key("master", "l")


class TestSecretKey:
    def test_generate_deterministic_with_rng(self):
        a = generate_key(RandomSource(7))
        b = generate_key(RandomSource(7))
        assert a == b

    def test_generate_without_rng_uses_os_entropy(self):
        assert generate_key() != generate_key()

    def test_size_enforced(self):
        with pytest.raises(ValueError):
            SecretKey(b"short")

    def test_type_enforced(self):
        with pytest.raises(TypeError):
            SecretKey("x" * KEY_SIZE)

    def test_hex_roundtrip(self):
        key = generate_key(RandomSource(3))
        assert SecretKey.from_hex(key.to_hex()) == key

    def test_repr_hides_material(self):
        key = generate_key(RandomSource(3))
        assert key.to_hex() not in repr(key)
        assert key.fingerprint in repr(key)

    def test_fingerprint_stable_and_short(self):
        key = generate_key(RandomSource(3))
        assert key.fingerprint == key.fingerprint
        assert len(key.fingerprint) == 16

    def test_hashable(self):
        key = generate_key(RandomSource(3))
        assert key in {key}

    def test_equality_against_other_types(self):
        key = generate_key(RandomSource(3))
        assert key != "not a key"

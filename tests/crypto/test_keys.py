"""SecretKey handling."""

import pytest

from repro.crypto.keys import KEY_SIZE, SecretKey, generate_key
from repro.util.rng import RandomSource


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

    def test_repr_hides_material(self):
        key = generate_key(RandomSource(3))
        assert key.material.hex() not in repr(key)
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

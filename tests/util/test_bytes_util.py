"""Tests for byte-string helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bytes_util import constant_time_equal, int_to_bytes, xor_bytes


class TestXor:
    def test_xor_roundtrip(self):
        a = b"hello world!"
        b = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_xor_with_zero_is_identity(self):
        data = b"payload"
        assert xor_bytes(data, b"\x00" * len(data)) == data

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            xor_bytes(b"ab", b"abc")

    @given(st.binary(max_size=64))
    def test_xor_self_is_zero(self, data):
        assert xor_bytes(data, data) == b"\x00" * len(data)

    @given(st.binary(min_size=1, max_size=64), st.data())
    def test_xor_commutative(self, left, data):
        right = data.draw(st.binary(min_size=len(left), max_size=len(left)))
        assert xor_bytes(left, right) == xor_bytes(right, left)

    @given(
        st.binary(max_size=300),
        st.data(),
        st.integers(min_value=0, max_value=8),
    )
    def test_matches_the_per_byte_reference(self, left, data, zeros):
        """Same bytes as the per-byte generator, leading zero bytes kept."""
        right = data.draw(st.binary(min_size=len(left), max_size=len(left)))
        left, right = b"\x00" * zeros + left, b"\x00" * zeros + right
        reference = bytes(a ^ b for a, b in zip(left, right))
        assert xor_bytes(left, right) == reference

    def test_empty_input(self):
        assert xor_bytes(b"", b"") == b""


class TestIntConversion:
    @given(st.integers(min_value=0, max_value=2 ** 64 - 1))
    def test_roundtrip(self, value):
        assert int.from_bytes(int_to_bytes(value, 8), "big") == value

    def test_big_endian(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1, 4)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            int_to_bytes(256, 1)


class TestConstantTimeEqual:
    def test_equal(self):
        assert constant_time_equal(b"same", b"same")

    def test_unequal(self):
        assert not constant_time_equal(b"same", b"diff")

    def test_length_difference(self):
        assert not constant_time_equal(b"a", b"ab")

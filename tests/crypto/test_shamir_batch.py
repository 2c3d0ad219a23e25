"""Byte-exact equivalence between the scalar and batch Shamir codecs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gf256, gf256_numpy
from repro.crypto.shamir import (
    ShareMatrix,
    combine_bytes,
    combine_shares,
    combine_shares_reference,
    split_bytes,
    split_secret,
    split_secret_reference,
)
from repro.util.rng import RandomSource

secrets = st.binary(min_size=0, max_size=48)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def schemes(draw):
    share_count = draw(st.integers(min_value=1, max_value=12))
    threshold = draw(st.integers(min_value=1, max_value=share_count))
    return threshold, share_count


class TestNumpyBackend:
    def test_full_product_table_matches_scalar(self):
        every = np.arange(256, dtype=np.uint8)
        table = gf256_numpy.MUL[every[:, None], every[None, :]]
        for a in range(256):
            row = gf256.multiply_many(range(256), a)
            assert table[a].tolist() == row

    def test_tables_are_rebuilt_from_exports(self):
        exp, log, mul = gf256.export_tables()
        assert isinstance(exp, bytes) and isinstance(log, bytes)
        assert len(exp) == 510 and len(log) == 256 and len(mul) == 256 * 256
        assert gf256_numpy.EXP.tobytes() == exp
        assert gf256_numpy.LOG.tobytes() == log
        assert gf256_numpy.MUL.tobytes() == mul

    @given(
        st.lists(
            st.lists(st.integers(0, 255), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1),
        st.lists(st.integers(1, 255), min_size=1, max_size=6, unique=True),
    )
    def test_eval_polynomials_matches_scalar_horner(self, rows, xs):
        matrix = np.array(rows, dtype=np.uint8)
        points = np.array(xs, dtype=np.uint8)
        result = gf256_numpy.eval_polynomials(matrix, points)
        assert result.shape == (len(xs), len(rows))
        for j, x in enumerate(xs):
            for i, coefficients in enumerate(rows):
                assert result[j, i] == gf256.eval_polynomial(coefficients, x)

    @given(st.lists(st.integers(1, 255), min_size=1, max_size=8, unique=True))
    def test_lagrange_weights_match_scalar(self, xs):
        from repro.crypto.shamir import _lagrange_weights_at_zero

        vector = gf256_numpy.lagrange_weights_at_zero(
            np.array(xs, dtype=np.uint8)
        )
        assert vector.tolist() == _lagrange_weights_at_zero(xs)

    def test_weights_reject_duplicates_and_zero(self):
        with pytest.raises(ValueError):
            gf256_numpy.lagrange_weights_at_zero(np.array([1, 1], dtype=np.uint8))
        with pytest.raises(ValueError):
            gf256_numpy.lagrange_weights_at_zero(np.array([0, 2], dtype=np.uint8))


class TestCodecEquivalence:
    @settings(max_examples=60)
    @given(secrets, schemes(), seeds)
    def test_split_is_byte_identical_to_reference(self, secret, scheme, seed):
        threshold, share_count = scheme
        reference = split_secret_reference(
            secret, threshold, share_count, RandomSource(seed)
        )
        matrix = split_bytes(secret, threshold, share_count, RandomSource(seed))
        assert isinstance(matrix, ShareMatrix)
        assert matrix.share_count == share_count
        assert matrix.threshold == threshold
        batch = matrix.shares()
        assert [s.index for s in batch] == [s.index for s in reference]
        assert [s.payload for s in batch] == [s.payload for s in reference]
        # The front door picks the batch codec and must agree too.
        front = split_secret(secret, threshold, share_count, RandomSource(seed))
        assert [s.payload for s in front] == [s.payload for s in reference]

    @settings(max_examples=60)
    @given(secrets, schemes(), seeds)
    def test_cross_codec_round_trips(self, secret, scheme, seed):
        threshold, share_count = scheme
        scalar_shares = split_secret_reference(
            secret, threshold, share_count, RandomSource(seed)
        )
        matrix = split_bytes(secret, threshold, share_count, RandomSource(seed))
        # scalar split -> batch combine
        assert (
            combine_bytes(
                [s.index for s in scalar_shares[:threshold]],
                [s.payload for s in scalar_shares[:threshold]],
            )
            == secret
        )
        # batch split -> scalar combine
        assert combine_shares_reference(matrix.shares()[:threshold]) == secret
        # batch split -> batch combine straight off the matrix
        assert (
            combine_bytes(matrix.indices, matrix.payloads, threshold=threshold)
            == secret
        )
        # the delegating front door
        assert combine_shares(matrix.shares()[-threshold:]) == secret

    def test_combine_bytes_validations(self):
        matrix = split_bytes(b"secret", 2, 4, RandomSource(3))
        with pytest.raises(ValueError):
            combine_bytes([1, 2, 3], matrix.payloads)  # row count mismatch
        with pytest.raises(ValueError):
            combine_bytes(matrix.indices, matrix.payloads, threshold=0)
        with pytest.raises(ValueError):
            combine_bytes(matrix.indices, matrix.payloads, threshold=9)

    def test_matrix_payload_access(self):
        matrix = split_bytes(b"\x01\x02\x03", 2, 3, RandomSource(8))
        assert matrix.length == 3
        for row in range(matrix.share_count):
            assert matrix.payload_bytes(row) == matrix.shares()[row].payload

    def test_split_argument_validation_matches_reference(self):
        for splitter in (split_bytes, split_secret_reference, split_secret):
            with pytest.raises(ValueError):
                splitter(b"x", 3, 2)
            with pytest.raises(ValueError):
                splitter(b"x", 1, 256)
            with pytest.raises(TypeError):
                splitter("not-bytes", 1, 2)

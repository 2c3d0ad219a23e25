"""Shamir secret sharing: recovery, thresholds, hiding, error handling, and
the one codec held byte for byte against the scalar reference loop."""

import hashlib
import itertools
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import gf256, gf256_numpy, shamir
from repro.crypto.shamir import (
    Share,
    combine_shares,
    combine_shares_reference,
    split_secret,
    split_secret_reference,
)
from repro.util.rng import RandomSource


def rng(label="shamir-test"):
    return RandomSource(99, label=label)


class TestRoundTrip:
    @given(
        st.binary(min_size=1, max_size=48),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60)
    def test_any_threshold_subset_recovers(self, secret, threshold, extra):
        share_count = threshold + extra
        shares = split_secret(secret, threshold, share_count, rng())
        assert combine_shares(shares[:threshold]) == secret

    def test_every_threshold_subset_recovers(self):
        secret = b"exact subsets"
        shares = split_secret(secret, 3, 5, rng())
        for subset in itertools.combinations(shares, 3):
            assert combine_shares(subset) == secret

    def test_all_shares_recover(self):
        secret = b"everyone"
        shares = split_secret(secret, 2, 6, rng())
        assert combine_shares(shares) == secret

    def test_empty_secret(self):
        shares = split_secret(b"", 2, 3, rng())
        assert combine_shares(shares[:2]) == b""

    def test_shares_differ_from_secret(self):
        secret = b"\x42" * 16
        shares = split_secret(secret, 2, 3, rng())
        assert all(share.payload != secret for share in shares)

    def test_combine_accepts_a_generator(self):
        secret = b"lazy shares"
        shares = split_secret(secret, 3, 5, rng())
        assert combine_shares(share for share in shares[1:4]) == secret

    def test_the_widest_share_count(self):
        secret = b"255 holders"
        shares = split_secret(secret, 2, 255, rng())
        assert [share.index for share in shares] == list(range(1, 256))
        assert combine_shares(shares[-2:]) == secret

    def test_extra_shares_past_the_threshold_are_not_used(self):
        # Only the first ``threshold`` shares enter the combine, so a
        # damaged extra share cannot change the recovered secret.
        secret = b"first m only"
        shares = split_secret(secret, 2, 4, rng())
        damaged = Share(index=4, payload=bytes(len(secret)), threshold=2)
        assert combine_shares([shares[0], shares[1], damaged]) == secret

    def test_default_rng_is_deterministic(self):
        assert split_secret(b"no rng", 2, 3) == split_secret(b"no rng", 2, 3)
        assert split_secret(b"no rng", 2, 3) == split_secret_reference(
            b"no rng", 2, 3
        )

    def test_threshold_one_shares_equal_secret(self):
        # Degree-0 polynomial: every share IS the secret.
        secret = b"degenerate"
        shares = split_secret(secret, 1, 3, rng())
        assert all(share.payload == secret for share in shares)


class TestThresholdEnforcement:
    def test_below_threshold_rejected(self):
        shares = split_secret(b"secret!", 3, 5, rng())
        with pytest.raises(ValueError, match="at least 3"):
            combine_shares(shares[:2])

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            combine_shares([])

    def test_below_threshold_reveals_nothing(self):
        """Information-theoretic hiding: with m-1 shares, every candidate
        secret byte is consistent — check that two different secrets can
        produce the identical share payload under some polynomial."""
        # Statistical smoke test: the first share byte of a random secret
        # should be ~uniform across repeated splits.
        secret = b"\x00"
        seen = set()
        root = RandomSource(99, label="hiding")
        for index in range(200):
            shares = split_secret(secret, 2, 2, root.fork(f"hide-{index}"))
            seen.add(shares[0].payload[0])
        assert len(seen) > 100  # far from constant


class TestValidation:
    def test_threshold_above_count_rejected(self):
        with pytest.raises(ValueError):
            split_secret(b"x", 4, 3, rng())

    def test_too_many_shares_rejected(self):
        with pytest.raises(ValueError):
            split_secret(b"x", 2, 256, rng())

    def test_non_bytes_secret_rejected(self):
        with pytest.raises(TypeError):
            split_secret("text", 2, 3, rng())

    def test_duplicate_indices_rejected(self):
        shares = split_secret(b"dup", 2, 3, rng())
        with pytest.raises(ValueError, match="duplicate"):
            combine_shares([shares[0], shares[0]])

    def test_mixed_thresholds_rejected(self):
        a = split_secret(b"aa", 2, 3, rng("a"))
        b = split_secret(b"aa", 3, 3, rng("b"))
        with pytest.raises(ValueError, match="threshold"):
            combine_shares([a[0], b[1], b[2]])

    def test_mixed_lengths_rejected(self):
        a = Share(index=1, payload=b"ab", threshold=2)
        b = Share(index=2, payload=b"abc", threshold=2)
        with pytest.raises(ValueError, match="length"):
            combine_shares([a, b])

    def test_share_index_bounds(self):
        with pytest.raises(ValueError):
            Share(index=0, payload=b"x", threshold=1)
        with pytest.raises(ValueError):
            Share(index=256, payload=b"x", threshold=1)

    def test_share_threshold_bounds(self):
        with pytest.raises(ValueError):
            Share(index=1, payload=b"x", threshold=0)

    def test_share_length_is_payload_length(self):
        assert len(Share(index=3, payload=b"four", threshold=2)) == 4

    @pytest.mark.parametrize(
        "shares, message",
        [
            ([], "empty"),
            ([Share(1, b"ab", 2), Share(1, b"cd", 2)], "duplicate"),
            ([Share(1, b"ab", 2), Share(2, b"cd", 3)], "threshold"),
            ([Share(1, b"ab", 2), Share(2, b"abc", 2)], "length"),
            ([Share(1, b"ab", 3), Share(2, b"cd", 3)], "at least 3"),
        ],
        ids=["empty", "duplicate", "threshold", "length", "too-few"],
    )
    def test_combine_validation_matches_reference(self, shares, message):
        for combiner in (combine_shares_reference, combine_shares):
            with pytest.raises(ValueError, match=message):
                combiner(shares)


class TestShareIndexing:
    def test_combination_order_independent(self):
        secret = b"order free"
        shares = split_secret(secret, 3, 5, rng())
        assert combine_shares([shares[4], shares[1], shares[2]]) == secret


@st.composite
def schemes(draw):
    share_count = draw(st.integers(min_value=1, max_value=12))
    threshold = draw(st.integers(min_value=1, max_value=share_count))
    return threshold, share_count


seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestOneCodec:
    """``split_secret`` / ``combine_shares`` run the table codec at every
    size; the scalar loop is only the oracle."""

    def test_the_codec_runs_without_the_reference(self, monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("the scalar loop ran")

        monkeypatch.setattr(shamir, "split_secret_reference", boom)
        monkeypatch.setattr(shamir, "combine_shares_reference", boom)
        monkeypatch.setattr(gf256, "eval_polynomial", boom)
        tiny = split_secret(b"\x5a", 1, 1, rng())
        assert combine_shares(tiny) == b"\x5a"
        key = bytes(range(32))
        shares = split_secret(key, 3, 5, rng())
        assert combine_shares(shares[2:]) == key

    @settings(max_examples=150)
    @given(
        st.one_of(
            st.binary(min_size=0, max_size=64),
            st.binary(min_size=1024, max_size=1024),
        ),
        schemes(),
        st.integers(min_value=0, max_value=12),
        seeds,
    )
    def test_byte_identical_to_the_reference(self, secret, scheme, used, seed):
        threshold, share_count = scheme
        shares = split_secret(secret, threshold, share_count, RandomSource(seed))
        reference = split_secret_reference(
            secret, threshold, share_count, RandomSource(seed)
        )
        assert shares == reference
        # Any number of shares from the threshold up, extras included.
        subset = shares[share_count - max(threshold, min(used, share_count)):]
        assert combine_shares(subset) == combine_shares_reference(subset) == secret

    @settings(max_examples=60)
    @given(st.binary(min_size=0, max_size=48), schemes(), seeds)
    def test_cross_codec_round_trips(self, secret, scheme, seed):
        threshold, share_count = scheme
        reference = split_secret_reference(
            secret, threshold, share_count, RandomSource(seed)
        )
        shares = split_secret(secret, threshold, share_count, RandomSource(seed))
        # reference split -> codec combine, and codec split -> reference combine
        assert combine_shares(reference[-threshold:]) == secret
        assert combine_shares_reference(shares[:threshold]) == secret

    # The share edges where the removed size fork used to switch codecs:
    # ``share_count * threshold * length`` crossing 256 on the split side
    # and ``threshold * length`` crossing 1,024 on the combine side, plus
    # the 32-byte layer keys the program actually shares.
    @pytest.mark.parametrize(
        "length, threshold, share_count",
        [
            (0, 1, 1),
            (1, 1, 1),
            (1, 3, 5),
            (17, 3, 5),
            (18, 3, 5),
            (255, 1, 1),
            (256, 1, 1),
            (15, 4, 4),
            (16, 4, 4),
            (32, 1, 5),
            (32, 3, 5),
            (32, 5, 5),
            (1023, 1, 1),
            (1024, 1, 1),
            (341, 3, 5),
            (342, 3, 5),
            (255, 4, 4),
            (256, 4, 4),
            (85, 12, 12),
            (86, 12, 12),
        ],
    )
    def test_both_sides_of_the_old_crossovers(self, length, threshold, share_count):
        source = RandomSource(length * 257 + threshold * 13 + share_count)
        secret = source.random_bytes(length)
        shares = split_secret(secret, threshold, share_count, source.fork("split"))
        assert shares == split_secret_reference(
            secret, threshold, share_count, source.fork("split")
        )
        for subset in (shares[-threshold:], shares, shares[::-1]):
            assert combine_shares(subset) == combine_shares_reference(subset) == secret

    def test_shares_match_the_pinned_digest(self):
        # 204 (length, m, n, seed) cases hashed share by share and secret by
        # secret; the digest pins the bytes every earlier codec produced.
        digest = hashlib.sha256()
        for length in list(range(65)) + [100, 256, 1024]:
            for seed in range(3):
                share_count = 1 + (length * 7 + seed * 5) % 12
                threshold = 1 + (length + seed) % share_count
                source = RandomSource(1000 + seed, label=f"secret-{length}")
                secret = bytes(source.randint(0, 255) for _ in range(length))
                shares = split_secret(
                    secret, threshold, share_count, RandomSource(seed * 31 + length)
                )
                for share in shares:
                    digest.update(
                        bytes([share.index, share.threshold]) + share.payload
                    )
                for subset in (shares[-threshold:], shares, shares[::-1]):
                    recovered = combine_shares(subset)
                    assert recovered == secret
                    digest.update(recovered)
        assert digest.hexdigest() == (
            "eddc5d1e213f598ed4b86e526bd25d1c430ff4a358c4c530d413e736e9fbb998"
        )

    def test_nothing_in_src_calls_the_reference(self):
        src = Path(shamir.__file__).resolve().parents[1]
        for name in ("split_secret_reference", "combine_shares_reference"):
            uses = [
                (path.name, line.split("(")[0])
                for path in sorted(src.rglob("*.py"))
                for line in path.read_text().splitlines()
                if re.search(rf"\b{name}\b", line)
            ]
            assert uses == [("shamir.py", f"def {name}")], uses

    def test_a_1024_byte_secret_at_the_widest_scheme(self):
        secret = bytes(RandomSource(5).randint(0, 255) for _ in range(1024))
        shares = split_secret(secret, 12, 12, RandomSource(6))
        assert shares == split_secret_reference(secret, 12, 12, RandomSource(6))
        assert combine_shares(shares[::-1]) == secret

    def test_split_argument_validation_matches_reference(self):
        for splitter in (split_secret_reference, split_secret):
            with pytest.raises(ValueError):
                splitter(b"x", 3, 2)
            with pytest.raises(ValueError):
                splitter(b"x", 1, 256)
            with pytest.raises(TypeError):
                splitter("not-bytes", 1, 2)


class TestNumpyBackend:
    def test_full_product_table_matches_scalar(self):
        every = np.arange(256, dtype=np.uint8)
        table = gf256_numpy.MUL[every[:, None], every[None, :]]
        assert table.tobytes() == gf256.export_tables()[2]
        for a in range(256):
            assert table[a].tolist() == [gf256.multiply(a, b) for b in range(256)]

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

    @given(
        st.lists(st.integers(1, 255), min_size=1, max_size=8, unique=True),
        st.data(),
    )
    def test_combine_at_zero_matches_the_scalar_weights(self, xs, data):
        length = data.draw(st.integers(0, 6))
        rows = data.draw(
            st.lists(
                st.binary(min_size=length, max_size=length),
                min_size=len(xs),
                max_size=len(xs),
            )
        )
        payloads = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(
            len(xs), length
        )
        weights = gf256.lagrange_weights_at_zero(xs)
        expected = [0] * length
        for row, weight in zip(rows, weights):
            for position, byte in enumerate(row):
                expected[position] ^= gf256.multiply(byte, weight)
        assert gf256_numpy.combine_at_zero(xs, payloads).tolist() == expected

    def test_empty_secret_payload_matrix(self):
        coefficients = np.zeros((0, 3), dtype=np.uint8)
        xs = np.arange(1, 6, dtype=np.uint8)
        assert gf256_numpy.eval_polynomials(coefficients, xs).shape == (5, 0)

    def test_combine_rejects_duplicate_and_zero_x(self):
        payloads = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ValueError):
            gf256_numpy.combine_at_zero([1, 1], payloads)
        with pytest.raises(ValueError):
            gf256_numpy.combine_at_zero([0, 2], payloads)

"""Shamir secret sharing over GF(2^8).

:func:`split_secret` / :func:`combine_shares` share an arbitrary ``bytes``
secret, every byte independently with a fresh random polynomial.  This is
the sharing the key-share routing scheme (paper Section III-D) uses to split
onion-layer decryption keys into ``n`` shares with threshold ``m``.

A :class:`Share` carries its x-coordinate (``index``, 1-based) so shares can
be routed independently and recombined in any order.  The scheme is
information-theoretically hiding: any ``m - 1`` shares reveal nothing, which
the test suite checks statistically.

Both directions run on the NumPy GF(256) table codec
(:mod:`repro.crypto.gf256_numpy`): one ``(length, threshold)`` coefficient
matrix is evaluated at every x-coordinate at once, and a combine is one
table gather with the Lagrange weights.  Coefficients are drawn from the
:class:`~repro.util.rng.RandomSource` in the order the original per-byte
loop drew them, so every share byte for a seed is what that loop produced.
That loop is kept below as the reference split and combine, the oracle
the tests compare against; nothing in the program calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.crypto import gf256, gf256_numpy
from repro.util.rng import RandomSource
from repro.util.validation import check_positive_int

MAX_SHARES = 255  # x-coordinates live in GF(256) \ {0}


@dataclass(frozen=True)
class Share:
    """One Shamir share of a byte-string secret.

    Attributes
    ----------
    index:
        The share's x-coordinate, in ``[1, 255]``.
    payload:
        One byte of polynomial evaluation per secret byte.
    threshold:
        The recovery threshold ``m`` the share was produced with; carried so
        holders can sanity-check reassembly preconditions.
    """

    index: int
    payload: bytes
    threshold: int

    def __post_init__(self) -> None:
        if not 1 <= self.index <= MAX_SHARES:
            raise ValueError(f"share index must be in [1, {MAX_SHARES}], got {self.index}")
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")

    def __len__(self) -> int:
        return len(self.payload)


def _check_split_arguments(secret: bytes, threshold: int, share_count: int) -> None:
    check_positive_int(threshold, "threshold")
    check_positive_int(share_count, "share_count")
    if threshold > share_count:
        raise ValueError(
            f"threshold {threshold} cannot exceed share_count {share_count}"
        )
    if share_count > MAX_SHARES:
        raise ValueError(
            f"GF(256) sharing supports at most {MAX_SHARES} shares, got {share_count}"
        )
    if not isinstance(secret, (bytes, bytearray)):
        raise TypeError(f"secret must be bytes, got {type(secret).__name__}")


def _draw_coefficient_rows(
    secret: bytes, threshold: int, rng: RandomSource
) -> List[List[int]]:
    """One coefficient row per secret byte, in the historical draw order.

    Row ``i`` is ``[secret[i], c_1, ..., c_{m-1}]``; the ``m - 1`` random
    coefficients are drawn byte-row by byte-row, which is the exact
    sequence the scalar loop has always consumed — the codec and the
    reference both build from this so their shares are byte-identical for
    a seed.
    """
    return [
        [byte] + [rng.randint(0, 255) for _ in range(threshold - 1)]
        for byte in secret
    ]


def split_secret_reference(
    secret: bytes,
    threshold: int,
    share_count: int,
    rng: Optional[RandomSource] = None,
) -> List[Share]:
    """The scalar reference split: pure-Python Horner per byte per share.

    The oracle the table codec is property-tested against;
    :func:`split_secret` is the front door.
    """
    _check_split_arguments(secret, threshold, share_count)
    if rng is None:
        rng = RandomSource(0xD5EC2E7).fork("shamir-default")
    # One random polynomial per secret byte; coefficient 0 is the secret byte.
    polynomials = _draw_coefficient_rows(secret, threshold, rng)
    shares = []
    for index in range(1, share_count + 1):
        payload = bytes(
            gf256.eval_polynomial(coefficients, index) for coefficients in polynomials
        )
        shares.append(Share(index=index, payload=payload, threshold=threshold))
    return shares




def split_secret(
    secret: bytes,
    threshold: int,
    share_count: int,
    rng: Optional[RandomSource] = None,
) -> List[Share]:
    """Split ``secret`` into ``share_count`` shares with recovery threshold ``threshold``.

    Parameters mirror the paper's ``(m, n)``: any ``m = threshold`` of the
    ``n = share_count`` shares recover the secret; fewer reveal nothing.
    One vectorised evaluation yields the whole ``(share_count, length)``
    payload matrix; row ``i`` is the payload of x-coordinate ``i + 1``.
    """
    _check_split_arguments(secret, threshold, share_count)
    if rng is None:
        rng = RandomSource(0xD5EC2E7).fork("shamir-default")
    coefficients = np.array(
        _draw_coefficient_rows(secret, threshold, rng), dtype=np.uint8
    ).reshape(len(secret), threshold)
    payloads = gf256_numpy.eval_polynomials(
        coefficients, np.arange(1, share_count + 1, dtype=np.uint8)
    )
    return [
        Share(index=row + 1, payload=payload.tobytes(), threshold=threshold)
        for row, payload in enumerate(payloads)
    ]


def _checked_share_list(shares: Iterable[Share]) -> Tuple[List[Share], int, int]:
    """Shared combine-side validation: returns (shares, threshold, length)."""
    share_list = list(shares)
    if not share_list:
        raise ValueError("cannot combine an empty share set")
    thresholds = {share.threshold for share in share_list}
    if len(thresholds) != 1:
        raise ValueError(f"shares disagree on threshold: {sorted(thresholds)}")
    threshold = thresholds.pop()
    indices = [share.index for share in share_list]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share indices")
    if len(share_list) < threshold:
        raise ValueError(
            f"need at least {threshold} shares to recover, got {len(share_list)}"
        )
    lengths = {len(share.payload) for share in share_list}
    if len(lengths) != 1:
        raise ValueError(f"shares have inconsistent payload lengths: {sorted(lengths)}")
    return share_list, threshold, lengths.pop()


def combine_shares_reference(shares: Iterable[Share]) -> bytes:
    """The scalar reference combine: hoisted weights, per-byte Lagrange."""
    share_list, threshold, length = _checked_share_list(shares)
    used = share_list[:threshold]
    weights = gf256.lagrange_weights_at_zero([share.index for share in used])
    secret = bytearray(length)
    for position in range(length):
        value = 0
        for share, weight in zip(used, weights):
            value ^= gf256.multiply(share.payload[position], weight)
        secret[position] = value
    return bytes(secret)


def combine_shares(shares: Iterable[Share]) -> bytes:
    """Recover the secret from at least ``threshold`` distinct shares.

    Extra shares beyond the threshold are accepted but only the first
    ``threshold`` participate in the combine; duplicated indices and
    mismatched payload lengths raise ``ValueError``.
    """
    share_list, threshold, length = _checked_share_list(shares)
    used = share_list[:threshold]
    payloads = np.frombuffer(
        b"".join(share.payload for share in used), dtype=np.uint8
    ).reshape(threshold, length)
    return gf256_numpy.combine_at_zero(
        [share.index for share in used], payloads
    ).tobytes()

"""Shamir secret sharing.

Two variants are provided:

- **byte-string sharing over GF(2^8)** (:func:`split_secret` /
  :func:`combine_shares`): the secret is an arbitrary ``bytes`` value; every
  byte is shared independently with a fresh random polynomial.  This is the
  variant the key-share routing scheme (paper Section III-D) uses to split
  onion-layer decryption keys into ``n`` shares with threshold ``m``.
- **integer sharing over a prime field**
  (:func:`split_integer_secret` / :func:`combine_integer_shares`), mainly
  used as a cross-check implementation in the property tests.

A :class:`Share` carries its x-coordinate (``index``, 1-based) so shares can
be routed independently and recombined in any order.  The scheme is
information-theoretically hiding: any ``m - 1`` shares reveal nothing, which
the test suite checks statistically.

**Batch codec.**  :func:`split_bytes` / :func:`combine_bytes` encode and
decode whole share *matrices* at once on the vectorised NumPy GF(256)
backend (:mod:`repro.crypto.gf256_numpy`): one ``(length, threshold)``
coefficient matrix in, one ``(share_count, length)`` payload matrix out.
Coefficients are drawn from the :class:`~repro.util.rng.RandomSource` in
exactly the order the historical scalar loop drew them, so for the same
seed the batch codec is *byte-identical* to the scalar reference — which is
how :func:`split_secret` and :func:`combine_shares` can delegate to it
(when the workload is past the measured size crossovers) without
perturbing a single stored share.
The scalar implementations are kept as :func:`split_secret_reference` /
:func:`combine_shares_reference`, both the small-input lane and the
equivalence oracle the property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto import gf256, gf256_numpy
from repro.crypto.primefield import DEFAULT_PRIME, PrimeField
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
    sequence the scalar loop has always consumed — both codecs build from
    this so their shares are byte-identical for a seed.
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

    Kept as the small-split lane and as the oracle the batch codec is
    property-tested against; :func:`split_secret` is the front door.
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


@dataclass(frozen=True, eq=False)
class ShareMatrix:
    """A whole share set encoded as one matrix.

    ``payloads`` is the ``(share_count, length)`` uint8 matrix — row ``i``
    is the payload of x-coordinate ``indices[i]``.  The matrix form is what
    the batch codec produces and consumes; :meth:`shares` converts to the
    routable per-holder :class:`Share` objects.
    """

    indices: Tuple[int, ...]
    payloads: Any  # numpy (share_count, length) uint8 array
    threshold: int

    # The ndarray field breaks the generated __eq__/__hash__ (ambiguous
    # truth value / unhashable), so define value semantics explicitly.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareMatrix):
            return NotImplemented
        return (
            self.indices == other.indices
            and self.threshold == other.threshold
            and self.payloads.shape == other.payloads.shape
            and bool((self.payloads == other.payloads).all())
        )

    def __hash__(self) -> int:
        return hash((self.indices, self.threshold, self.payloads.tobytes()))

    @property
    def share_count(self) -> int:
        return len(self.indices)

    @property
    def length(self) -> int:
        return int(self.payloads.shape[1])

    def payload_bytes(self, row: int) -> bytes:
        """The payload of matrix row ``row`` as bytes."""
        return self.payloads[row].tobytes()

    def shares(self) -> List[Share]:
        """The matrix as independent :class:`Share` values."""
        return [
            Share(
                index=index,
                payload=self.payloads[row].tobytes(),
                threshold=self.threshold,
            )
            for row, index in enumerate(self.indices)
        ]


def split_bytes(
    secret: bytes,
    threshold: int,
    share_count: int,
    rng: Optional[RandomSource] = None,
) -> ShareMatrix:
    """Encode a whole share matrix at once on the NumPy GF(256) backend.

    Byte-identical to :func:`split_secret_reference` for the same ``rng``:
    the coefficients are drawn in the same order and the vectorised Horner
    evaluation is exact table arithmetic.
    """
    _check_split_arguments(secret, threshold, share_count)
    if rng is None:
        rng = RandomSource(0xD5EC2E7).fork("shamir-default")
    coefficients = np.array(
        _draw_coefficient_rows(secret, threshold, rng), dtype=np.uint8
    ).reshape(len(secret), threshold)
    xs = np.arange(1, share_count + 1, dtype=np.uint8)
    payloads = gf256_numpy.eval_polynomials(coefficients, xs)
    return ShareMatrix(
        indices=tuple(range(1, share_count + 1)),
        payloads=payloads,
        threshold=threshold,
    )


# Measured crossovers below which the numpy codec's array-construction
# overhead outweighs its vectorised arithmetic; the scalar reference stays
# the fast path for tiny workloads (both lanes are byte-identical, so the
# switch is purely a transport choice).
_BATCH_SPLIT_MIN_WORK = 256  # share_count * threshold * length
_BATCH_COMBINE_MIN_WORK = 1024  # threshold * length


def split_secret(
    secret: bytes,
    threshold: int,
    share_count: int,
    rng: Optional[RandomSource] = None,
) -> List[Share]:
    """Split ``secret`` into ``share_count`` shares with recovery threshold ``threshold``.

    Parameters mirror the paper's ``(m, n)``: any ``m = threshold`` of the
    ``n = share_count`` shares recover the secret; fewer reveal nothing.
    Delegates to the batch codec (byte-identical, one vectorised evaluation
    for the whole share matrix) when the workload is past the measured
    crossover; tiny splits take the scalar reference.
    """
    _check_split_arguments(secret, threshold, share_count)
    work = share_count * threshold * len(secret)
    if work >= _BATCH_SPLIT_MIN_WORK:
        return split_bytes(secret, threshold, share_count, rng).shares()
    return split_secret_reference(secret, threshold, share_count, rng)


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


def _combine_used_scalar(used: List[Share], length: int) -> bytes:
    """Scalar Lagrange combine over exactly-threshold ``used`` shares.

    Weights depend only on the chosen x-coordinates, so they are hoisted
    out of the per-byte loop.
    """
    weights = _lagrange_weights_at_zero([share.index for share in used])
    secret = bytearray(length)
    for position in range(length):
        value = 0
        for share, weight in zip(used, weights):
            value ^= gf256.multiply(share.payload[position], weight)
        secret[position] = value
    return bytes(secret)


def combine_shares_reference(shares: Iterable[Share]) -> bytes:
    """The scalar reference combine: hoisted weights, per-byte Lagrange."""
    share_list, threshold, length = _checked_share_list(shares)
    return _combine_used_scalar(share_list[:threshold], length)


def combine_bytes(
    indices: Sequence[int],
    payloads: Any,
    threshold: Optional[int] = None,
) -> bytes:
    """Decode a whole payload matrix at once on the NumPy GF(256) backend.

    ``indices`` lists the x-coordinates of the matrix rows; ``payloads`` is
    anything convertible to a ``(rows, length)`` uint8 array (a
    :class:`ShareMatrix`'s ``payloads``, a list of payload bytes, ...).
    With ``threshold`` given, only the first ``threshold`` rows are used —
    matching :func:`combine_shares`'s exactly-threshold behaviour.
    """
    if isinstance(payloads, np.ndarray):
        matrix = payloads
        if matrix.dtype != np.uint8:
            # An unsafe cast would silently wrap out-of-range values mod
            # 256; match the bytearray path's fail-fast behaviour instead.
            if matrix.size and (matrix.min() < 0 or matrix.max() > 255):
                raise ValueError("payload values must be bytes in [0, 255]")
            matrix = matrix.astype(np.uint8)
    else:
        matrix = np.asarray(
            [bytearray(row) for row in payloads], dtype=np.uint8
        )
    if matrix.ndim != 2:
        raise ValueError(f"payload matrix must be 2-D, got shape {matrix.shape}")
    if len(indices) != matrix.shape[0]:
        raise ValueError(
            f"{len(indices)} indices but {matrix.shape[0]} payload rows"
        )
    used = len(indices) if threshold is None else threshold
    if not 1 <= used <= len(indices):
        raise ValueError(
            f"threshold {used} outside [1, {len(indices)}] available rows"
        )
    xs = np.asarray(indices[:used], dtype=np.uint8)
    return gf256_numpy.combine_at_zero(xs, matrix[:used]).tobytes()


def combine_shares(shares: Iterable[Share]) -> bytes:
    """Recover the secret from at least ``threshold`` distinct shares.

    Extra shares beyond the threshold are accepted but only the first
    ``threshold`` participate in the combine; duplicated indices and
    mismatched payload lengths raise ``ValueError``.  Past the
    measured crossover the per-byte Lagrange combine goes through the batch
    codec (byte-identical to the scalar reference); small combines — one
    32-byte layer key from a dozen shares, the common key-share receive —
    stay on the faster scalar path.
    """
    share_list, threshold, length = _checked_share_list(shares)
    used = share_list[:threshold]
    if threshold * length >= _BATCH_COMBINE_MIN_WORK:
        return combine_bytes(
            [share.index for share in used],
            [share.payload for share in used],
        )
    return _combine_used_scalar(used, length)


# The weight logic lives in gf256 so the scalar combine, the byte-level
# interpolation, and the NumPy backend all share one implementation.
_lagrange_weights_at_zero = gf256.lagrange_weights_at_zero


# ---------------------------------------------------------------------------
# Prime-field integer sharing (cross-check variant)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntegerShare:
    """One Shamir share of an integer secret over GF(p)."""

    index: int
    value: int
    threshold: int
    prime: int = DEFAULT_PRIME


def split_integer_secret(
    secret: int,
    threshold: int,
    share_count: int,
    rng: Optional[RandomSource] = None,
    prime: int = DEFAULT_PRIME,
) -> List[IntegerShare]:
    """Split an integer secret modulo ``prime`` into threshold shares."""
    check_positive_int(threshold, "threshold")
    check_positive_int(share_count, "share_count")
    if threshold > share_count:
        raise ValueError(
            f"threshold {threshold} cannot exceed share_count {share_count}"
        )
    field = PrimeField(prime)
    if not 0 <= secret < prime:
        raise ValueError("secret must lie in [0, prime)")
    if rng is None:
        rng = RandomSource(0xD5EC2E7).fork("shamir-int-default")
    coefficients = [secret] + [
        rng.randint(0, prime - 1) for _ in range(threshold - 1)
    ]
    return [
        IntegerShare(
            index=index,
            value=field.eval_polynomial(coefficients, index),
            threshold=threshold,
            prime=prime,
        )
        for index in range(1, share_count + 1)
    ]


def combine_integer_shares(shares: Iterable[IntegerShare]) -> int:
    """Recover an integer secret from at least ``threshold`` shares."""
    share_list = list(shares)
    if not share_list:
        raise ValueError("cannot combine an empty share set")
    primes = {share.prime for share in share_list}
    thresholds = {share.threshold for share in share_list}
    if len(primes) != 1 or len(thresholds) != 1:
        raise ValueError("shares disagree on field or threshold")
    threshold = thresholds.pop()
    if len({share.index for share in share_list}) != len(share_list):
        raise ValueError("duplicate share indices")
    if len(share_list) < threshold:
        raise ValueError(
            f"need at least {threshold} shares to recover, got {len(share_list)}"
        )
    field = PrimeField(primes.pop())
    used = share_list[:threshold]
    return field.interpolate_at_zero([(share.index, share.value) for share in used])


def shares_by_index(shares: Iterable[Share]) -> Dict[int, Share]:
    """Index a share collection by x-coordinate, rejecting duplicates."""
    result: Dict[int, Share] = {}
    for share in shares:
        if share.index in result:
            raise ValueError(f"duplicate share index {share.index}")
        result[share.index] = share
    return result

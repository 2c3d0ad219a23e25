"""Arithmetic in GF(2^8), the field used for byte-oriented Shamir sharing.

The field is constructed with the AES reduction polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11b).  Multiplication and division go through
precomputed log/antilog tables over the generator 3.

The tables are stored as immutable ``bytes`` (C-contiguous, branch-free to
index) and the full 256x256 product table ``_MUL`` is materialised once at
import, so a scalar product is a single flat lookup with no zero-operand
branch.  :func:`export_tables` hands the same tables to the vectorised NumPy
backend (:mod:`repro.crypto.gf256_numpy`), which the Shamir codec runs on;
scalar and vector lanes therefore share one source of field truth.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

_REDUCTION_POLY = 0x11B
_GENERATOR = 0x03
FIELD_SIZE = 256


def _build_tables() -> Tuple[bytes, bytes]:
    exp_table = bytearray(510)
    log_table = bytearray(256)
    value = 1
    for power in range(255):
        exp_table[power] = value
        log_table[value] = power
        # multiply value by the generator (3 = x + 1): v*3 = v*2 ^ v
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= _REDUCTION_POLY
        value = doubled ^ value
    # Duplicate the table so exponent sums need no modular reduction.
    for power in range(255, 510):
        exp_table[power] = exp_table[power - 255]
    return bytes(exp_table), bytes(log_table)


def _build_product_table(exp_table: bytes, log_table: bytes) -> bytes:
    """The flat 65,536-entry product table: ``_MUL[a << 8 | b] == a * b``.

    64 KiB buys branch-free scalar multiplication (zeros included), which
    is what removes the per-call zero checks from the Horner / Lagrange
    hot loops.
    """
    table = bytearray(FIELD_SIZE * FIELD_SIZE)
    for left in range(1, FIELD_SIZE):
        row = left << 8
        log_left = log_table[left]
        for right in range(1, FIELD_SIZE):
            table[row | right] = exp_table[log_left + log_table[right]]
    return bytes(table)


_EXP, _LOG = _build_tables()
_MUL = _build_product_table(_EXP, _LOG)


def export_tables() -> Tuple[bytes, bytes, bytes]:
    """The ``(exp, log, mul)`` tables as immutable bytes.

    ``exp`` has 510 entries (doubled so exponent sums need no reduction),
    ``log`` 256 (``log[0]`` is 0 and must be guarded by the caller), and
    ``mul`` the flat 256x256 product table.  The NumPy backend wraps these
    in ``uint8`` arrays; nothing is copied beyond the array view.
    """
    return _EXP, _LOG, _MUL


def multiply(left: int, right: int) -> int:
    """Field multiplication: one flat product-table lookup.

    Out-of-range operands raise rather than aliasing into a wrong table
    row; :func:`eval_polynomial` and the NumPy backend index ``_MUL``
    directly with known-valid values and stay branch-free.
    """
    if not 0 <= left <= 255 or not 0 <= right <= 255:
        raise ValueError(
            f"operands must be field elements in [0, 255], got ({left}, {right})"
        )
    return _MUL[left << 8 | right]


def divide(numerator: int, denominator: int) -> int:
    """Field division ``numerator / denominator``."""
    if denominator == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if numerator == 0:
        return 0
    return _EXP[(_LOG[numerator] - _LOG[denominator]) % 255]


def eval_polynomial(coefficients: Sequence[int], point: int) -> int:
    """Evaluate a polynomial (lowest-degree coefficient first) at ``point``.

    Horner's rule over the field.  ``coefficients[0]`` is the secret byte in
    the Shamir use case.
    """
    result = 0
    for coefficient in reversed(coefficients):
        result = _MUL[result << 8 | point] ^ coefficient
    return result


def lagrange_weights_at_zero(xs: Sequence[int]) -> List[int]:
    """Per-point Lagrange basis values at x = 0: ``w_i = Π x_j / Π (x_i ^ x_j)``.

    The one implementation of the weight logic — the scalar reference
    combine and the NumPy backend both call this.
    ``xs`` must be distinct nonzero field elements.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x coordinates")
    if any(x == 0 for x in xs):
        raise ValueError("x = 0 is reserved for the secret and cannot be a share")
    weights = []
    for i, x_i in enumerate(xs):
        numerator = 1
        denominator = 1
        for j, x_j in enumerate(xs):
            if i == j:
                continue
            numerator = multiply(numerator, x_j)
            denominator = multiply(denominator, x_i ^ x_j)
        weights.append(divide(numerator, denominator))
    return weights

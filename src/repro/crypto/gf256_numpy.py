"""Vectorised GF(2^8) arithmetic on NumPy ``uint8`` arrays.

The product table comes from :func:`repro.crypto.gf256.export_tables`, so
the scalar and vector lanes share one field construction; every operation
here is exact integer table arithmetic and agrees with the scalar module
element for element (the test suite checks all 65,536 products).

Layout conventions used by the Shamir codec (:mod:`repro.crypto.shamir`):

- a *coefficient matrix* is ``(length, threshold)`` — one random polynomial
  per secret byte, lowest-degree coefficient first (column 0 is the secret);
- a *payload matrix* is ``(share_count, length)`` — row ``i`` is the payload
  of the share with x-coordinate ``xs[i]``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto import gf256

#: The flat product table reshaped to (256, 256): ``MUL[a, b] == a * b``.
MUL = np.frombuffer(gf256.export_tables()[2], dtype=np.uint8).reshape(256, 256)


def eval_polynomials(coefficients: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Evaluate ``length`` polynomials at ``share_count`` points at once.

    ``coefficients`` is a ``(length, threshold)`` uint8 matrix (lowest
    degree first), ``xs`` a ``(share_count,)`` uint8 vector of evaluation
    points; the result is the ``(share_count, length)`` payload matrix.
    Horner's rule over the field, one vectorised step per coefficient.
    """
    length, threshold = coefficients.shape
    result = np.zeros((xs.shape[0], length), dtype=np.uint8)
    for degree in range(threshold - 1, -1, -1):
        result = MUL[result, xs[:, None]] ^ coefficients[None, :, degree]
    return result


def combine_at_zero(xs: Sequence[int], payloads: np.ndarray) -> np.ndarray:
    """Recover the secret vector from a payload matrix.

    ``xs`` lists the ``threshold`` distinct nonzero x-coordinates and
    ``payloads`` is the matching ``(threshold, length)`` uint8 payload
    matrix; the result is the ``(length,)`` secret byte vector.  The
    Lagrange weights come from :func:`gf256.lagrange_weights_at_zero` (at
    most 255 points, so the scalar loop is never the bottleneck) and are
    applied to every byte column in one table gather.
    """
    weights = np.array(gf256.lagrange_weights_at_zero(xs), dtype=np.uint8)
    return np.bitwise_xor.reduce(MUL[payloads, weights[:, None]], axis=0)

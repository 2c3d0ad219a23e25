"""Cryptographic substrate.

The paper's protocol needs three primitives:

- a symmetric cipher for the message payload and the onion layers
  (:mod:`repro.crypto.cipher` — SHA-256 counter-mode keystream with an
  HMAC-SHA-256 authentication tag; simulation-grade, documented as such);
- Shamir secret sharing over GF(2^8) for the key-share routing scheme
  (:mod:`repro.crypto.shamir`);
- key generation (:mod:`repro.crypto.keys`).

Nothing here calls out to external crypto libraries; the finite-field and
sharing arithmetic is implemented from scratch and property-tested.
"""

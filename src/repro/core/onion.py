"""Layered onion packages (paper §III-B, after Reed/Syverson/Goldschlag).

The sender wraps the secret key in ``l`` encryption layers.  Layer ``j`` is
encrypted under the column key ``K_j`` and its plaintext carries:

- the ids of the next column's holders (where to forward),
- optionally the Shamir shares the holder must forward alongside the onion
  (key-share routing scheme only),
- the remaining onion.

Peeling the innermost layer yields the *core*: the secret key material plus
the receiver's id.  A type byte distinguishes layer from core so a holder
knows whether it is a terminal holder without any out-of-band signal —
exactly the information flow of the paper, where terminal holders learn
they are last because they find the key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.crypto.cipher import AuthenticationError, SymmetricCipher
from repro.crypto.shamir import Share
from repro.core.wire import WireError, WireReader, WireWriter
from repro.util.rng import RandomSource

_TYPE_LAYER = 0
_TYPE_CORE = 1


@dataclass(frozen=True)
class OnionLayer:
    """Decrypted contents of one onion layer.

    ``forward_at`` is the absolute virtual time at which the holder must
    hand the remaining onion to the next hops — the end of its holding
    period ``th``.  Embedding the schedule in the (authenticated) layer is
    how the sender controls timing with no further involvement after
    ``ts``, exactly the paper's hands-off requirement.
    """

    column: int
    next_hops: Tuple[bytes, ...]
    forward_shares: Tuple[Share, ...] = ()
    remaining: bytes = b""
    forward_at: float = 0.0


@dataclass(frozen=True)
class OnionCore:
    """The innermost payload: the secret key and who may receive it."""

    secret: bytes
    receiver_id: bytes


def serialize_share(share: Share) -> bytes:
    """Stable byte encoding of a Shamir share."""
    writer = WireWriter()
    writer.write_u8(share.index)
    writer.write_u8(share.threshold)
    writer.write_bytes(share.payload)
    return writer.getvalue()


def deserialize_share(data: bytes) -> Share:
    reader = WireReader(data)
    index = reader.read_u8()
    threshold = reader.read_u8()
    payload = reader.read_bytes()
    reader.expect_end()
    try:
        return Share(index=index, payload=payload, threshold=threshold)
    except ValueError as exc:
        raise WireError(f"malformed share: {exc}") from exc


def _serialize_core(core: OnionCore) -> bytes:
    writer = WireWriter()
    writer.write_u8(_TYPE_CORE)
    writer.write_bytes(core.secret)
    writer.write_bytes(core.receiver_id)
    return writer.getvalue()


def _serialize_layer_body(
    column: int,
    next_hops: Sequence[bytes],
    forward_shares: Sequence[Share],
    remaining: bytes,
    forward_at: float,
) -> bytes:
    writer = WireWriter()
    writer.write_u8(_TYPE_LAYER)
    writer.write_u32(column)
    writer.write_f64(forward_at)
    writer.write_bytes_list(list(next_hops))
    writer.write_bytes_list([serialize_share(share) for share in forward_shares])
    writer.write_bytes(remaining)
    return writer.getvalue()


def build_onion(
    layer_keys: Sequence[bytes],
    hop_ids: Sequence[Sequence[bytes]],
    core: OnionCore,
    forward_shares: Optional[Sequence[Sequence[Share]]] = None,
    forward_times: Optional[Sequence[float]] = None,
    rng: Optional[RandomSource] = None,
) -> bytes:
    """Construct the full onion.

    Parameters
    ----------
    layer_keys:
        ``[K_1, ..., K_l]`` — column keys, outermost first.
    hop_ids:
        ``hop_ids[j-1]`` lists the ids layer ``j`` reveals as next hops,
        i.e. the column ``j + 1`` holders; the last entry must be empty
        (the terminal layer reveals the core instead).
    core:
        Secret key material and receiver id.
    forward_shares:
        Optional; ``forward_shares[j-1]`` are the shares of ``K_{j+1}``
        that layer ``j`` instructs its holder to pass along (key-share
        routing).  The last entry must be empty.
    forward_times:
        Optional absolute forwarding instants per layer (defaults to 0.0,
        which protocol-less callers such as the crypto tests use).
    """
    length = len(layer_keys)
    if length == 0:
        raise ValueError("onion needs at least one layer")
    if len(hop_ids) != length:
        raise ValueError(
            f"got {length} layer keys but {len(hop_ids)} hop lists"
        )
    if hop_ids[-1]:
        raise ValueError("the terminal layer must have no next hops")
    if forward_shares is None:
        forward_shares = [[] for _ in range(length)]
    if len(forward_shares) != length:
        raise ValueError(
            f"got {length} layer keys but {len(forward_shares)} share lists"
        )
    if forward_shares[-1]:
        raise ValueError("the terminal layer must have no forward shares")
    if forward_times is None:
        forward_times = [0.0] * length
    if len(forward_times) != length:
        raise ValueError(
            f"got {length} layer keys but {len(forward_times)} forward times"
        )

    blob = _serialize_core(core)
    for column in range(length, 0, -1):
        body = _serialize_layer_body(
            column=column,
            next_hops=hop_ids[column - 1],
            forward_shares=forward_shares[column - 1],
            remaining=blob,
            forward_at=forward_times[column - 1],
        )
        cipher = SymmetricCipher(layer_keys[column - 1], rng=rng)
        blob = cipher.encrypt(body)
    return blob


class OnionPeelError(Exception):
    """Raised when a layer fails to decrypt or parse."""


def peel_onion(key: bytes, blob: bytes) -> Tuple[OnionLayer, Optional[OnionCore]]:
    """Strip one layer with ``key``.

    Returns ``(layer, core)`` where ``core`` is non-None iff the *next*
    level is the core, i.e. the caller is a terminal holder.  A wrong key
    (or tampering) raises :class:`OnionPeelError` — authenticated
    encryption means a holder can never mistake garbage for a layer.
    """
    cipher = SymmetricCipher(key)
    try:
        body = cipher.decrypt(blob)
    except (AuthenticationError, ValueError) as exc:
        raise OnionPeelError(f"layer decryption failed: {exc}") from exc
    try:
        reader = WireReader(body)
        type_byte = reader.read_u8()
        if type_byte != _TYPE_LAYER:
            raise WireError(f"expected layer type byte, got {type_byte}")
        column = reader.read_u32()
        forward_at = reader.read_f64()
        next_hops = tuple(reader.read_bytes_list())
        shares = tuple(
            deserialize_share(encoded) for encoded in reader.read_bytes_list()
        )
        remaining = reader.read_bytes()
        reader.expect_end()
    except WireError as exc:
        raise OnionPeelError(f"layer parse failed: {exc}") from exc

    core = _try_parse_core(remaining)
    layer = OnionLayer(
        column=column,
        next_hops=next_hops,
        forward_shares=shares,
        remaining=remaining,
        forward_at=forward_at,
    )
    return layer, core


def _try_parse_core(data: bytes) -> Optional[OnionCore]:
    """Parse ``data`` as a core if (and only if) it is one.

    Inner layers are ciphertext blobs, not wire messages, so parsing can
    only succeed for the genuine plaintext core the terminal layer holds.
    """
    try:
        reader = WireReader(data)
        if reader.read_u8() != _TYPE_CORE:
            return None
        secret = reader.read_bytes()
        receiver_id = reader.read_bytes()
        reader.expect_end()
        return OnionCore(secret=secret, receiver_id=receiver_id)
    except WireError:
        return None


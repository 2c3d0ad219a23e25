"""Kademlia RPC message types.

Two classic Kademlia RPCs (PING, FIND_NODE) plus DELIVER, the
application-level message used by the self-emerging key protocol to hand an
onion package or key share to a holder.  The protocol keeps no value in the
DHT (the ciphertext lives in :class:`~repro.cloud.storage.CloudStore`), so
STORE and FIND_VALUE are not modelled.  Messages are plain dataclasses —
the simulated transport passes them by reference, and equality/`repr` make
test assertions pleasant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.dht.node_id import NodeId


@dataclass(frozen=True)
class Request:
    """Base class for RPC requests."""

    sender: NodeId


@dataclass(frozen=True)
class Response:
    """Base class for RPC responses."""

    responder: NodeId


@dataclass(frozen=True)
class Ping(Request):
    """Liveness probe."""


@dataclass(frozen=True)
class Pong(Response):
    """Liveness acknowledgement."""


@dataclass(frozen=True)
class FindNode(Request):
    """Ask for the k closest contacts to ``target``."""

    target: NodeId = field(default=None)  # type: ignore[assignment]


@dataclass(frozen=True)
class FoundNodes(Response):
    """Closest contacts known to the responder."""

    target: NodeId = field(default=None)  # type: ignore[assignment]
    contacts: Tuple[NodeId, ...] = ()


@dataclass(frozen=True)
class Deliver(Request):
    """Application payload handoff used by the key-routing protocol.

    ``channel`` names the protocol stream ("onion", "share", "key") and
    ``payload`` is the serialized package.  The DHT treats it opaquely.
    """

    channel: str = ""
    payload: bytes = b""


@dataclass(frozen=True)
class DeliverAck(Response):
    """Delivery acknowledgement."""

    channel: str = ""


def describe(message) -> str:
    """Short human-readable description for traces."""
    name = type(message).__name__
    if isinstance(message, (FindNode, FoundNodes)):
        return f"{name}(target={str(message.target)[:12]})"
    if isinstance(message, (Deliver, DeliverAck)):
        return f"{name}(channel={message.channel})"
    return name

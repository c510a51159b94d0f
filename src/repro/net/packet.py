"""Packets, socket pairs and traffic direction.

The paper identifies a network connection by a *five-tuple socket pair*
``{protocol, source-address, source-port, destination-address,
destination-port}`` (section 3.2) and makes heavy use of the *inverse* socket
pair: for an outbound packet with pair ``sigma_out``, the corresponding
inbound packet carries ``sigma_in`` whose inverse equals ``sigma_out``.

``SocketPair`` here is a plain tuple subclass so that it hashes and unpacks
cheaply; million-packet replays spend most of their time constructing and
hashing these.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP, PROTO_NAMES, format_ipv4


class Direction(enum.Enum):
    """Direction of a packet relative to the client network.

    The paper (section 3.3): "An outbound packet is a packet sent from a
    client network, while inbound packet is a packet received by a client
    network."
    """

    OUTBOUND = "outbound"
    INBOUND = "inbound"

    # Members are singletons, so identity hashing keys dicts as Enum's
    # hash of the name does, but in C: every packet's accounting looks a
    # Direction up several times.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Direction":
        return Direction.INBOUND if self is Direction.OUTBOUND else Direction.OUTBOUND


class SocketPair(NamedTuple):
    """Five-tuple identifying a connection endpoint-to-endpoint.

    ``s = {TCP, A, x, B, y}``; its inverse ``s̄ = {TCP, B, y, A, x}``
    identifies the same connection seen from the other side.
    """

    protocol: int
    src_addr: int
    src_port: int
    dst_addr: int
    dst_port: int

    @property
    def inverse(self) -> "SocketPair":
        """The same connection viewed from the opposite direction."""
        return SocketPair(
            self.protocol, self.dst_addr, self.dst_port, self.src_addr, self.src_port
        )

    @property
    def canonical(self) -> "SocketPair":
        """A direction-independent form (the lexicographically smaller of
        the pair and its inverse) — useful as a connection-table key because
        ``s`` and ``s̄`` map to the same entry.  The two share their
        protocol, so comparing the endpoints decides, and the inverse is
        built only when it is the smaller."""
        if (self.dst_addr, self.dst_port) < (self.src_addr, self.src_port):
            return self.inverse
        return self

    @property
    def is_tcp(self) -> bool:
        return self.protocol == IPPROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.protocol == IPPROTO_UDP

    def describe(self) -> str:
        """Human-readable ``tcp 1.2.3.4:5 -> 6.7.8.9:10`` form."""
        name = PROTO_NAMES.get(self.protocol, str(self.protocol))
        return (
            f"{name} {format_ipv4(self.src_addr)}:{self.src_port}"
            f" -> {format_ipv4(self.dst_addr)}:{self.dst_port}"
        )


class Packet:
    """A single observed packet.

    Attributes mirror what the paper's filters consume: a timestamp, the
    five-tuple, TCP flags when applicable, the wire size in bytes, and the
    payload (which the *bitmap filter never reads* — only the analyzer of
    section 3 does, and only to establish ground truth).

    ``__slots__`` keeps per-packet overhead small; traces run to millions of
    packets.
    """

    __slots__ = ("timestamp", "pair", "flags", "size", "payload", "direction")

    def __init__(
        self,
        timestamp: float,
        pair: SocketPair,
        size: int,
        flags: int = 0,
        payload: bytes = b"",
        direction: Optional[Direction] = None,
    ) -> None:
        if size < 0:
            raise ValueError(f"negative packet size: {size}")
        self.timestamp = timestamp
        self.pair = pair
        self.flags = flags
        self.size = size
        self.payload = payload
        self.direction = direction

    # -- TCP flag helpers (bits defined in headers.TCPFlags) ---------------

    @property
    def is_syn(self) -> bool:
        """True for a SYN that is not a SYN-ACK (a connection *initiation*)."""
        return bool(self.flags & 0x02) and not bool(self.flags & 0x10)

    @property
    def is_synack(self) -> bool:
        return bool(self.flags & 0x02) and bool(self.flags & 0x10)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & 0x01)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & 0x04)

    @property
    def protocol(self) -> int:
        return self.pair.protocol

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = self.direction.value if self.direction else "?"
        return (
            f"Packet(t={self.timestamp:.6f}, {self.pair.describe()}, "
            f"size={self.size}, flags={self.flags:#04x}, {tag})"
        )


def classify_direction(pair: SocketPair, client_net: int, prefix_len: int) -> Direction:
    """Decide a packet's direction from its source address.

    A packet whose source lies inside the client network is outbound;
    everything else is inbound.  (The paper's traffic monitor sits on the
    link between the campus subnet and the Internet and sees both.)
    """
    from repro.net.inet import in_network

    if in_network(pair.src_addr, client_net, prefix_len):
        return Direction.OUTBOUND
    return Direction.INBOUND

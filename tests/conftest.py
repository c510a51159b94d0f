"""Shared fixtures and packet-building helpers for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.filters.base import CODE_PASS, PacketFilter, Verdict
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP, parse_ipv4
from repro.net.packet import Direction, Packet, SocketPair

# Canonical test addresses: CLIENT inside the 10.1/16 client network,
# REMOTE outside it.
CLIENT_ADDR = parse_ipv4("10.1.0.5")
CLIENT_ADDR_2 = parse_ipv4("10.1.0.9")
REMOTE_ADDR = parse_ipv4("203.0.113.7")
REMOTE_ADDR_2 = parse_ipv4("198.51.100.23")


def tcp_pair(
    src=CLIENT_ADDR, sport=3333, dst=REMOTE_ADDR, dport=80
) -> SocketPair:
    return SocketPair(IPPROTO_TCP, src, sport, dst, dport)


def udp_pair(
    src=CLIENT_ADDR, sport=4444, dst=REMOTE_ADDR, dport=53
) -> SocketPair:
    return SocketPair(IPPROTO_UDP, src, sport, dst, dport)


def verdicts_of(codes):
    """The verdicts of batched row codes: CODE_PASS passes, any other
    code (CODE_DROP, or CODE_UNSEEN behind the blocklist) drops."""
    return [Verdict.PASS if code == CODE_PASS else Verdict.DROP for code in codes]


def out_packet(pair=None, t=0.0, size=100, flags=0, payload=b"") -> Packet:
    """An outbound packet (client -> remote orientation)."""
    return Packet(
        t, pair or tcp_pair(), size=size, flags=flags, payload=payload,
        direction=Direction.OUTBOUND,
    )


def in_packet(pair=None, t=0.0, size=100, flags=0, payload=b"") -> Packet:
    """An inbound packet; ``pair`` is given in remote -> client orientation
    (i.e. already inverted)."""
    if pair is None:
        pair = tcp_pair().inverse
    return Packet(t, pair, size=size, flags=flags, payload=payload,
                  direction=Direction.INBOUND)


class PassFirstPackets(PacketFilter):
    """Pass each connection's first ``count`` packets (keyed by socket
    pair, either direction) and drop the rest: a filter that drops only
    after the handshake, as a rate limiter can."""

    name = "pass-first"

    def __init__(self, count: int = 3) -> None:
        super().__init__()
        self.count = count
        self.seen = {}

    def decide(self, packet: Packet) -> Verdict:
        key = min(packet.pair, packet.pair.inverse)
        seen = self.seen.get(key, 0)
        self.seen[key] = seen + 1
        return Verdict.PASS if seen < self.count else Verdict.DROP


@pytest.fixture
def rng():
    return random.Random(1234)


@pytest.fixture(scope="session")
def small_trace():
    """A small deterministic synthetic trace shared by integration tests."""
    from repro.workload import TraceConfig, TraceGenerator

    generator = TraceGenerator(TraceConfig(duration=60.0, connection_rate=8.0, seed=42))
    return generator.packet_list()


@pytest.fixture(scope="session")
def small_trace_specs():
    from repro.workload import TraceConfig, TraceGenerator

    generator = TraceGenerator(TraceConfig(duration=60.0, connection_rate=8.0, seed=42))
    generator.packet_list()
    return generator.specs()

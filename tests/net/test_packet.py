"""Tests for packets, socket pairs and direction classification."""

import pytest

from repro.net.headers import TCPFlags
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP, parse_ipv4
from repro.net.packet import Direction, Packet, SocketPair, classify_direction

from tests.conftest import CLIENT_ADDR, REMOTE_ADDR, tcp_pair


class TestSocketPair:
    def test_inverse(self):
        pair = SocketPair(IPPROTO_TCP, 1, 2, 3, 4)
        assert pair.inverse == SocketPair(IPPROTO_TCP, 3, 4, 1, 2)

    def test_inverse_involution(self):
        pair = tcp_pair()
        assert pair.inverse.inverse == pair

    def test_canonical_is_direction_independent(self):
        pair = tcp_pair()
        assert pair.canonical == pair.inverse.canonical

    def test_canonical_is_one_of_the_two(self):
        pair = tcp_pair()
        assert pair.canonical in (pair, pair.inverse)

    @pytest.mark.parametrize("src, sport, dst, dport", [
        (1, 9, 2, 1), (2, 1, 1, 9), (5, 1, 5, 2), (5, 2, 5, 1), (5, 3, 5, 3),
    ], ids=["src-lower", "dst-lower", "tie-sport-lower", "tie-dport-lower",
            "self-inverse"])
    def test_canonical_is_the_smaller_of_the_two(self, src, sport, dst, dport):
        pair = SocketPair(IPPROTO_TCP, src, sport, dst, dport)
        assert pair.canonical == min(pair, pair.inverse)
        assert type(pair.canonical) is SocketPair

    def test_protocol_helpers(self):
        assert SocketPair(IPPROTO_TCP, 1, 2, 3, 4).is_tcp
        assert SocketPair(IPPROTO_UDP, 1, 2, 3, 4).is_udp
        assert not SocketPair(IPPROTO_UDP, 1, 2, 3, 4).is_tcp

    def test_describe(self):
        pair = SocketPair(IPPROTO_TCP, parse_ipv4("1.2.3.4"), 5, parse_ipv4("6.7.8.9"), 10)
        assert pair.describe() == "tcp 1.2.3.4:5 -> 6.7.8.9:10"

    def test_hashable_and_equal(self):
        assert tcp_pair() == tcp_pair()
        assert hash(tcp_pair()) == hash(tcp_pair())
        assert len({tcp_pair(), tcp_pair().inverse}) == 2


class TestPacket:
    def test_flags_syn(self):
        packet = Packet(0.0, tcp_pair(), 40, flags=TCPFlags.SYN)
        assert packet.is_syn
        assert not packet.is_synack
        assert not packet.is_fin

    def test_synack_is_not_initiation(self):
        packet = Packet(0.0, tcp_pair(), 40, flags=TCPFlags.SYN | TCPFlags.ACK)
        assert not packet.is_syn
        assert packet.is_synack

    def test_fin_and_rst(self):
        assert Packet(0.0, tcp_pair(), 40, flags=TCPFlags.FIN | TCPFlags.ACK).is_fin
        assert Packet(0.0, tcp_pair(), 40, flags=TCPFlags.RST).is_rst

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Packet(0.0, tcp_pair(), -1)

    def test_protocol_shortcut(self):
        assert Packet(0.0, tcp_pair(), 40).protocol == IPPROTO_TCP

    def test_direction_default_none(self):
        assert Packet(0.0, tcp_pair(), 40).direction is None


class TestDirectionClassification:
    NET = parse_ipv4("10.1.0.0")

    def test_outbound_from_client(self):
        pair = SocketPair(IPPROTO_TCP, CLIENT_ADDR, 1, REMOTE_ADDR, 2)
        assert classify_direction(pair, self.NET, 16) is Direction.OUTBOUND

    def test_inbound_from_remote(self):
        pair = SocketPair(IPPROTO_TCP, REMOTE_ADDR, 2, CLIENT_ADDR, 1)
        assert classify_direction(pair, self.NET, 16) is Direction.INBOUND

    def test_opposite(self):
        assert Direction.OUTBOUND.opposite is Direction.INBOUND
        assert Direction.INBOUND.opposite is Direction.OUTBOUND

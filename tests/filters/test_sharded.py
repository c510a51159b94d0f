"""Tests for per-subnet sharded deployment (Figure 6 core placement)."""

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.naive import NaiveTimerFilter
from repro.filters.sharded import ShardedFilter
from repro.net.inet import IPPROTO_TCP, parse_ipv4
from repro.net.packet import Direction, Packet, SocketPair
from repro.net.table import PacketTable

NET_A = parse_ipv4("10.1.0.0")
NET_B = parse_ipv4("10.2.0.0")
HOST_A = parse_ipv4("10.1.0.5")
HOST_B = parse_ipv4("10.2.0.5")
REMOTE = parse_ipv4("203.0.113.9")


def out_pkt(src, t=0.0, sport=3000):
    pair = SocketPair(IPPROTO_TCP, src, sport, REMOTE, 80)
    return Packet(t, pair, size=100, direction=Direction.OUTBOUND)


def in_pkt(dst, t=0.0, dport=3000):
    pair = SocketPair(IPPROTO_TCP, REMOTE, 80, dst, dport)
    return Packet(t, pair, size=100, direction=Direction.INBOUND)


def bitmap():
    return BitmapPacketFilter(
        BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3, rotate_interval=5.0)
    )


def sharded():
    return ShardedFilter([(NET_A, 16, bitmap()), (NET_B, 16, bitmap())])


class TestRouting:
    def test_outbound_routes_by_source(self):
        filt = sharded()
        filt.process(out_pkt(HOST_A))
        shard_a = filt.shards[0][2]
        shard_b = filt.shards[1][2]
        assert shard_a.stats.total == 1
        assert shard_b.stats.total == 0

    def test_inbound_routes_by_destination(self):
        filt = sharded()
        filt.process(out_pkt(HOST_B))
        assert filt.process(in_pkt(HOST_B, t=0.5)) is Verdict.PASS
        assert filt.shards[1][2].stats.total == 2

    def test_isolation_between_shards(self):
        """A mark in network A's shard must not admit inbound traffic to
        network B even on identical ports."""
        filt = sharded()
        filt.process(out_pkt(HOST_A, sport=4000))
        assert filt.process(in_pkt(HOST_A, t=0.1, dport=4000)) is Verdict.PASS
        assert filt.process(in_pkt(HOST_B, t=0.2, dport=4000)) is Verdict.DROP

    def test_first_match_wins(self):
        specific = NaiveTimerFilter()
        broad = NaiveTimerFilter()
        filt = ShardedFilter([(parse_ipv4("10.1.0.0"), 24, specific),
                              (parse_ipv4("10.1.0.0"), 16, broad)])
        filt.process(out_pkt(parse_ipv4("10.1.0.7")))
        assert specific.stats.total == 1
        assert broad.stats.total == 0
        filt.process(out_pkt(parse_ipv4("10.1.99.7")))
        assert broad.stats.total == 1

    def test_unrouted_follows_default(self):
        passing = sharded()
        transit = Packet(
            0.0,
            SocketPair(IPPROTO_TCP, parse_ipv4("8.8.8.8"), 1, REMOTE, 2),
            size=60,
            direction=Direction.OUTBOUND,
        )
        assert passing.process(transit) is Verdict.PASS
        assert passing.unrouted_packets == 1

        dropping = ShardedFilter([(NET_A, 16, bitmap())], default_verdict=Verdict.DROP)
        assert dropping.process(transit) is Verdict.DROP


class TestHousekeeping:
    def test_shard_stats_keys(self):
        filt = sharded()
        filt.process(out_pkt(HOST_A))
        stats = filt.shard_stats()
        assert "10.1.0.0/16" in stats
        assert stats["10.1.0.0/16"]["passed_outbound"] == 1

    def test_reset_cascades(self):
        filt = sharded()
        filt.process(out_pkt(HOST_A))
        filt.reset()
        assert filt.process(in_pkt(HOST_A, t=0.1)) is Verdict.DROP
        assert filt.unrouted_packets == 0

    def test_len(self):
        assert len(sharded()) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedFilter([])
        with pytest.raises(ValueError):
            ShardedFilter([(NET_A, 40, bitmap())])


class TestRouteCache:
    """The bounded inner-address → shard cache on the routing hot path."""

    def overlapping(self, cache_size=ShardedFilter.ROUTE_CACHE_SIZE):
        # Overlapping prefixes, more-specific first: the cache must honour
        # first-match order exactly like the linear scan.
        return ShardedFilter(
            [
                (parse_ipv4("10.1.0.0"), 24, NaiveTimerFilter()),
                (parse_ipv4("10.1.0.0"), 16, NaiveTimerFilter()),
                (parse_ipv4("10.2.0.0"), 16, NaiveTimerFilter()),
            ],
            route_cache_size=cache_size,
        )

    def test_cache_matches_uncached_scan(self):
        """Behaviour equivalence: for a spread of addresses (including
        repeats, overlap boundaries and transit), the cached lookup returns
        exactly what the first-match linear scan returns."""
        import random

        filt = self.overlapping()
        rng = random.Random(7)
        addresses = [
            parse_ipv4("10.1.0.1"), parse_ipv4("10.1.0.255"),
            parse_ipv4("10.1.1.0"), parse_ipv4("10.2.5.5"),
            parse_ipv4("8.8.8.8"), parse_ipv4("10.3.0.1"),
        ] + [rng.randrange(2 ** 32) for _ in range(500)]
        # Query twice: first pass populates the cache, second pass hits it.
        for _ in range(2):
            for address in addresses:
                assert filt.plan.lane_of(address) == filt.plan.scan(address)

    def test_routing_through_cache_matches_scan_semantics(self):
        filt = self.overlapping()
        specific = filt.shards[0][2]
        broad = filt.shards[1][2]
        for _ in range(3):  # repeats exercise the cached path
            filt.process(out_pkt(parse_ipv4("10.1.0.7")))
            filt.process(out_pkt(parse_ipv4("10.1.99.7")))
        assert specific.stats.total == 3
        assert broad.stats.total == 3

    def test_cache_is_bounded(self):
        filt = self.overlapping(cache_size=4)
        for offset in range(50):
            filt.plan.lane_of(parse_ipv4("10.1.0.0") + offset)
        assert len(filt.plan._route_cache) <= 4
        # Still correct after heavy eviction.
        assert filt.plan.lane_of(parse_ipv4("10.2.0.9")) == 2

    def test_reset_invalidates_cache(self):
        filt = self.overlapping()
        filt.process(out_pkt(HOST_A))
        assert filt.plan._route_cache
        filt.reset()
        assert not filt.plan._route_cache

    def test_cache_size_validation(self):
        with pytest.raises(ValueError):
            ShardedFilter([(NET_A, 16, NaiveTimerFilter())], route_cache_size=0)


class TestPartitioning:
    """Helpers the multiprocess replay engine builds on."""

    def test_partition_by_inner_address(self):
        filt = sharded()
        packets = [out_pkt(HOST_A), in_pkt(HOST_B, t=0.1),
                   out_pkt(HOST_B, t=0.2), in_pkt(HOST_A, t=0.3)]
        lanes, default_lane = filt.partition_table(PacketTable.from_packets(packets))
        assert list(lanes[0].timestamps) == [0.0, 0.3]
        assert list(lanes[1].timestamps) == [0.1, 0.2]
        assert len(default_lane) == 0

    def test_partition_transit_to_default_lane(self):
        filt = sharded()
        transit = Packet(
            0.5,
            SocketPair(IPPROTO_TCP, parse_ipv4("8.8.8.8"), 1, REMOTE, 2),
            size=60,
            direction=Direction.OUTBOUND,
        )
        lanes, default_lane = filt.partition_table(
            PacketTable.from_packets([out_pkt(HOST_A), transit])
        )
        assert len(lanes[0]) == 1
        [row] = default_lane.to_packets()
        assert (row.timestamp, row.pair, row.size, row.direction) == \
            (transit.timestamp, transit.pair, transit.size, transit.direction)

    def test_inner_address(self):
        assert ShardedFilter.inner_address(out_pkt(HOST_A)) == HOST_A
        assert ShardedFilter.inner_address(in_pkt(HOST_B)) == HOST_B

    def test_shard_label(self):
        filt = sharded()
        assert filt.shard_label(0) == "10.1.0.0/16"
        assert filt.shard_label(1) == "10.2.0.0/16"


class TestPolicyIsolation:
    def test_per_shard_drop_controllers(self):
        """Network A saturates its uplink; network B's unsolicited inbound
        must still be admitted (per-customer policy isolation)."""
        from repro.filters.policy import DropController

        shard_a = BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3, rotate_interval=5.0),
            drop_controller=DropController.red_mbps(0.0001, 0.0002),
        )
        shard_b = BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3, rotate_interval=5.0),
            drop_controller=DropController.red_mbps(0.0001, 0.0002),
        )
        filt = ShardedFilter([(NET_A, 16, shard_a), (NET_B, 16, shard_b)])
        # Saturate A's meter only.
        for i in range(20):
            filt.process(out_pkt(HOST_A, t=0.01 * i, sport=5000 + i))
        assert filt.process(in_pkt(HOST_A, t=0.5, dport=9999)) is Verdict.DROP
        assert filt.process(in_pkt(HOST_B, t=0.5, dport=9999)) is Verdict.PASS

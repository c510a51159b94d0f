"""Equivalence tests: the batched table path vs the per-packet pipeline.

The batched path's contract is *bit-identical* behavior — every verdict,
every counter, every RNG draw.  These tests replay the same synthetic
traces through ``EdgeRouter.forward`` and ``EdgeRouter.process_table``
across seeds and configurations and require exact agreement.
"""

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode, socket_key
from repro.core.hashing import HashIndexMemo, make_hash_family
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.policy import DropController
from repro.filters.spi import SPIFilter
from repro.net.packet import Direction
from repro.net.table import PacketTable
from repro.sim.kernels import kernel_for
from repro.sim.replay import replay
from repro.sim.router import EdgeRouter
from repro.workload.generator import TraceConfig, TraceGenerator

from tests.conftest import tcp_pair, udp_pair, verdicts_of


def trace(seed, duration=40.0, rate=6.0):
    return TraceGenerator(
        TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    ).packet_list()


SMALL_CONFIG = BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3,
                                  rotate_interval=5.0)


def build_router(use_blocklist, red=False, field_mode=FieldMode.STRICT):
    controller = DropController.red_mbps(0.5, 2.0) if red else None
    config = BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3,
                                rotate_interval=5.0, field_mode=field_mode)
    flt = BitmapPacketFilter(config, drop_controller=controller)
    blocklist = BlockedConnectionStore() if use_blocklist else None
    return EdgeRouter(flt, blocklist=blocklist)


def assert_routers_identical(a: EdgeRouter, b: EdgeRouter):
    assert a.filter.core.stats.as_dict() == b.filter.core.stats.as_dict()
    assert a.filter.stats.as_dict() == b.filter.stats.as_dict()
    assert a.filter.core.idx == b.filter.core.idx
    assert [v.to_bytes() for v in a.filter.core.vectors] == \
        [v.to_bytes() for v in b.filter.core.vectors]
    assert a.offered._bins == b.offered._bins
    assert a.passed._bins == b.passed._bins
    assert a.inbound_drops._packets == b.inbound_drops._packets
    assert a.inbound_drops._dropped == b.inbound_drops._dropped
    assert a.packets == b.packets
    if a.blocklist is not None:
        assert a.blocklist._blocked == b.blocklist._blocked
        assert a.blocklist.suppressed_packets == b.blocklist.suppressed_packets


class TestRouterBatchEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("use_blocklist", [True, False])
    def test_verdict_sequences_identical(self, seed, use_blocklist):
        packets = trace(seed)
        legacy_router = build_router(use_blocklist)
        batch_router = build_router(use_blocklist)
        legacy = [legacy_router.forward(p) for p in packets]
        batched = verdicts_of(
            batch_router.process_table(PacketTable.from_packets(packets)))
        assert legacy == batched
        assert_routers_identical(legacy_router, batch_router)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_red_controller_identical(self, seed):
        # The RED P_d varies per packet and consumes the drop RNG; both
        # trajectories must match draw for draw.
        packets = trace(seed)
        legacy_router = build_router(True, red=True)
        batch_router = build_router(True, red=True)
        legacy = [legacy_router.forward(p) for p in packets]
        batched = verdicts_of(
            batch_router.process_table(PacketTable.from_packets(packets)))
        assert legacy == batched
        assert_routers_identical(legacy_router, batch_router)

    def test_hole_punching_identical(self):
        packets = trace(6)
        legacy_router = build_router(True, field_mode=FieldMode.HOLE_PUNCHING)
        batch_router = build_router(True, field_mode=FieldMode.HOLE_PUNCHING)
        assert [legacy_router.forward(p) for p in packets] == \
            verdicts_of(batch_router.process_table(PacketTable.from_packets(packets)))
        assert_routers_identical(legacy_router, batch_router)

    @pytest.mark.parametrize("use_blocklist", [True, False])
    def test_outbound_never_dropped_by_filter(self, use_blocklist):
        # The bitmap filter must never drop outbound traffic in either
        # path; with the blocklist off, that means every outbound packet's
        # final verdict is PASS too.
        packets = trace(7)
        for batched in (False, True):
            result = replay(
                packets,
                BitmapPacketFilter(SMALL_CONFIG),
                use_blocklist=use_blocklist,
                batched=batched,
            )
            stats = result.router.filter.stats
            assert stats.dropped[Direction.OUTBOUND] == 0
        if not use_blocklist:
            router = build_router(False)
            verdicts = verdicts_of(router.process_table(PacketTable.from_packets(packets)))
            for packet, verdict in zip(packets, verdicts):
                if packet.direction is Direction.OUTBOUND:
                    assert verdict is Verdict.PASS

    def test_replay_results_identical(self):
        packets = trace(8)
        legacy = replay(packets, BitmapPacketFilter(SMALL_CONFIG))
        batched = replay(packets, BitmapPacketFilter(SMALL_CONFIG), batched=True)
        assert legacy.packets == batched.packets
        assert legacy.inbound_packets == batched.inbound_packets
        assert legacy.inbound_dropped == batched.inbound_dropped
        assert legacy.duration == batched.duration
        assert_routers_identical(legacy.router, batched.router)

    def test_batched_replay_falls_back_for_other_filters(self):
        # SPI now has its own fused kernel; an *unregistered* filter —
        # e.g. any subclass, which may override per-packet hooks — must
        # still take the generic path and stay equivalent.
        packets = trace(9)

        class TracingSPIFilter(SPIFilter):
            pass

        assert kernel_for(SPIFilter()) is not None
        assert kernel_for(TracingSPIFilter()) is None
        legacy = replay(packets, TracingSPIFilter(), batched=False)
        batched = replay(packets, TracingSPIFilter(), batched=True)
        assert legacy.inbound_dropped == batched.inbound_dropped
        assert legacy.router.filter.stats.as_dict() == \
            batched.router.filter.stats.as_dict()

    def test_empty_batch(self):
        router = build_router(True)
        assert router.process_table(PacketTable()) == bytearray()
        assert router.packets == 0

    def test_batches_compose(self):
        # Splitting a table into several process_table calls must match
        # one big table (state carries over between tables).
        table = PacketTable.from_packets(trace(10))
        cut = len(table) // 3
        one = build_router(True)
        many = build_router(True)
        whole = one.process_table(table)
        parts = (many.process_table(table.slice(0, cut))
                 + many.process_table(table.slice(cut, 2 * cut))
                 + many.process_table(table.slice(2 * cut, len(table))))
        assert whole == parts
        assert_routers_identical(one, many)


class TestHashingBatchHelpers:
    def test_indices_many_matches_indices(self):
        family = make_hash_family(3, 2 ** 16, seed=5)
        keys = [(6, i, i * 7, 99, 443) for i in range(50)]
        assert family.indices_many(keys) == \
            [tuple(family.indices(k)) for k in keys]

    def test_memo_returns_same_indices(self):
        family = make_hash_family(3, 2 ** 16, seed=5)
        memo = HashIndexMemo(family)
        key = (6, 1, 2, 3, 4)
        assert memo.get(key) == tuple(family.indices(key))
        assert memo.get(key) == tuple(family.indices(key))
        assert memo.hits == 1 and memo.misses == 1

    def test_memo_bounded_eviction(self):
        family = make_hash_family(2, 2 ** 10, seed=1)
        memo = HashIndexMemo(family, capacity=8)
        keys = [(6, i, i, i, i) for i in range(20)]
        for key in keys:
            memo.get(key)
        assert len(memo) == 8
        # Least-recently-used were evicted; the newest survive.
        assert memo.get_many(keys[-8:]) == [tuple(family.indices(k)) for k in keys[-8:]]

    def test_get_many_batch_larger_than_capacity(self):
        family = make_hash_family(2, 2 ** 10, seed=1)
        memo = HashIndexMemo(family, capacity=4)
        keys = [(6, i, i, i, i) for i in range(16)]
        assert memo.get_many(keys) == [tuple(family.indices(k)) for k in keys]
        assert len(memo) == 4

    def test_memo_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            HashIndexMemo(make_hash_family(2, 2 ** 10), capacity=0)

    def test_socket_key_matches_key_fields(self):
        # The key is outbound-oriented: an inbound packet's pair is read
        # inverted, and hole-punching drops the remote port.
        for pair in (tcp_pair(), udp_pair(), tcp_pair().inverse):
            proto, src, sport, dst, dport = pair
            expected = {
                (Direction.OUTBOUND, False): (proto, src, sport, dst, dport),
                (Direction.OUTBOUND, True): (proto, src, sport, dst),
                (Direction.INBOUND, False): (proto, dst, dport, src, sport),
                (Direction.INBOUND, True): (proto, dst, dport, src),
            }
            for (direction, hole_punching), fields in expected.items():
                key = socket_key(pair, direction, hole_punching)
                assert type(key) is tuple and key == fields


class TestFrontDoor:
    def test_rejects_directionless_packets(self):
        # A packet list becomes one table before any replay stage runs; a
        # packet without a direction has no row to become.
        packets = trace(13)
        packets[5].direction = None
        with pytest.raises(ValueError, match="no direction"):
            replay(packets, BitmapPacketFilter(SMALL_CONFIG), batched=True)

"""Equivalence tests: the batched fast path vs the per-packet pipeline.

The fast path's contract is *bit-identical* behavior — every verdict, every
counter, every RNG draw.  These tests replay the same synthetic traces
through both engines across seeds and configurations and require exact
agreement.
"""

import random

import pytest

from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, FieldMode
from repro.core.hashing import HashIndexMemo, make_hash_family
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.policy import DropController
from repro.filters.spi import SPIFilter
from repro.net.packet import Direction
from repro.sim.fastpath import PacketColumns, socket_key, supports_fastpath
from repro.sim.replay import replay
from repro.sim.router import EdgeRouter
from repro.workload.generator import TraceConfig, TraceGenerator

from tests.conftest import tcp_pair, udp_pair


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
        batched = batch_router.process_batch(packets)
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
        batched = batch_router.process_batch(packets)
        assert legacy == batched
        assert_routers_identical(legacy_router, batch_router)

    def test_hole_punching_identical(self):
        packets = trace(6)
        legacy_router = build_router(True, field_mode=FieldMode.HOLE_PUNCHING)
        batch_router = build_router(True, field_mode=FieldMode.HOLE_PUNCHING)
        assert [legacy_router.forward(p) for p in packets] == \
            batch_router.process_batch(packets)
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
            verdicts = router.process_batch(packets)
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

        assert supports_fastpath(SPIFilter())
        assert not supports_fastpath(TracingSPIFilter())
        legacy = replay(packets, TracingSPIFilter(), batched=False)
        batched = replay(packets, TracingSPIFilter(), batched=True)
        assert legacy.inbound_dropped == batched.inbound_dropped
        assert legacy.router.filter.stats.as_dict() == \
            batched.router.filter.stats.as_dict()

    def test_empty_batch(self):
        router = build_router(True)
        assert router.process_batch([]) == []
        assert router.packets == 0

    def test_batches_compose(self):
        # Splitting a stream into several process_batch calls must match
        # one big batch (state carries over between batches).
        packets = trace(10)
        cut = len(packets) // 3
        one = build_router(True)
        many = build_router(True)
        whole = one.process_batch(packets)
        parts = (many.process_batch(packets[:cut])
                 + many.process_batch(packets[cut:2 * cut])
                 + many.process_batch(packets[2 * cut:]))
        assert whole == parts
        assert_routers_identical(one, many)


class TestFilterProcessBatch:
    @pytest.mark.parametrize("red", [False, True])
    def test_standalone_filter_batch_matches_process(self, red):
        packets = trace(11)
        controller = (lambda: DropController.red_mbps(0.5, 2.0)) if red else (lambda: None)
        legacy = BitmapPacketFilter(SMALL_CONFIG, drop_controller=controller())
        batched = BitmapPacketFilter(SMALL_CONFIG, drop_controller=controller())
        assert [legacy.process(p) for p in packets] == batched.process_batch(packets)
        assert legacy.stats.as_dict() == batched.stats.as_dict()
        assert legacy.core.stats.as_dict() == batched.core.stats.as_dict()
        assert [v.to_bytes() for v in legacy.core.vectors] == \
            [v.to_bytes() for v in batched.core.vectors]


class TestCoreProcessBatch:
    def synthetic_ops(self, seed, count=3000):
        """A randomized mark/lookup schedule crossing many rotations."""
        rng = random.Random(seed)
        now = 0.0
        timestamps, outbound, pairs = [], [], []
        for _ in range(count):
            now += rng.expovariate(50.0)
            timestamps.append(now)
            outbound.append(rng.random() < 0.5)
            pairs.append(tcp_pair(sport=2000 + rng.randrange(200)))
        return timestamps, outbound, pairs

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_per_packet_filter(self, seed):
        timestamps, outbound, pairs = self.synthetic_ops(seed)
        config = BitmapFilterConfig(size=2 ** 12, vectors=3, hashes=3,
                                    rotate_interval=0.5)
        legacy = BitmapFilter(config)
        batched = BitmapFilter(config)
        probability = 0.7  # exercises the RNG path

        expected = []
        for ts, out, pair in zip(timestamps, outbound, pairs):
            legacy.advance_to(ts)
            direction = Direction.OUTBOUND if out else Direction.INBOUND
            expected.append(legacy.filter(pair, direction, probability))

        memo = HashIndexMemo(batched.family)
        keys = [
            socket_key(pair, Direction.OUTBOUND if out else Direction.INBOUND, False)
            for out, pair in zip(outbound, pairs)
        ]
        got = batched.process_batch(
            timestamps, outbound, memo.get_many(keys), drop_probability=probability
        )
        assert expected == got
        assert legacy.stats.as_dict() == batched.stats.as_dict()
        assert legacy.idx == batched.idx
        assert [v.to_bytes() for v in legacy.vectors] == \
            [v.to_bytes() for v in batched.vectors]

    def test_empty(self):
        filt = BitmapFilter(BitmapFilterConfig(size=2 ** 10))
        assert filt.process_batch([], [], []) == []


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
        filt_strict = BitmapFilter(BitmapFilterConfig(size=2 ** 10))
        filt_hole = BitmapFilter(
            BitmapFilterConfig(size=2 ** 10, field_mode=FieldMode.HOLE_PUNCHING)
        )
        for pair in (tcp_pair(), udp_pair(), tcp_pair().inverse):
            for direction in (Direction.OUTBOUND, Direction.INBOUND):
                assert socket_key(pair, direction, False) == \
                    tuple(filt_strict._key_fields(pair, direction))
                assert socket_key(pair, direction, True) == \
                    tuple(filt_hole._key_fields(pair, direction))


class TestPacketColumns:
    def test_columns_share_index_tuples_across_repeats(self):
        flt = BitmapPacketFilter(SMALL_CONFIG)
        packets = trace(12)
        columns = PacketColumns.from_packets(packets, flt)
        assert len(columns) == len(packets)
        seen = {}
        for key_indices in columns.indices:
            seen[id(key_indices)] = key_indices
        # Repetitive flows share tuple objects through the memo.
        assert len(seen) < len(packets)

    def test_rejects_directionless_packets(self):
        flt = BitmapPacketFilter(SMALL_CONFIG)
        packets = trace(13)
        packets[5].direction = None
        with pytest.raises(ValueError):
            PacketColumns.from_packets(packets, flt)

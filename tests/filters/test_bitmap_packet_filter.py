"""Tests for the bitmap filter behind the PacketFilter interface."""

import random

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode
from repro.core.hashing import HashIndexMemo
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.sim.replay import replay
from repro.workload.generator import TraceConfig, TraceGenerator

from tests.conftest import in_packet, out_packet, tcp_pair


def small_bitmap(**kwargs) -> BitmapPacketFilter:
    return BitmapPacketFilter(
        BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3, rotate_interval=5.0),
        **kwargs,
    )


class TestVerdicts:
    def test_outbound_passes_and_marks(self):
        filt = small_bitmap()
        assert filt.process(out_packet(t=0.0)) is Verdict.PASS
        assert filt.core.stats.outbound_marked == 1

    def test_matched_inbound_passes(self):
        filt = small_bitmap()
        filt.process(out_packet(t=0.0))
        assert filt.process(in_packet(t=1.0)) is Verdict.PASS

    def test_unmatched_inbound_dropped(self):
        filt = small_bitmap()
        assert filt.process(in_packet(t=0.0)) is Verdict.DROP

    def test_expiry_by_trace_time(self):
        filt = small_bitmap()
        filt.process(out_packet(t=0.0))
        # Well past T_e = 20 s: rotations must have wiped the mark.
        assert filt.process(in_packet(t=60.0)) is Verdict.DROP

    def test_within_guaranteed_window(self):
        filt = small_bitmap()
        filt.process(out_packet(t=0.0))
        assert filt.process(in_packet(t=14.0)) is Verdict.PASS


class TestThroughputDrivenDropping:
    def test_low_throughput_admits_unknown_inbound(self):
        filt = small_bitmap(
            drop_controller=DropController.red_mbps(low_mbps=50, high_mbps=100)
        )
        # No upload traffic at all -> P_d = 0 -> unknown inbound passes.
        assert filt.process(in_packet(t=0.0)) is Verdict.PASS

    def test_high_throughput_blocks_unknown_inbound(self):
        filt = small_bitmap(
            drop_controller=DropController.red_mbps(low_mbps=0.001, high_mbps=0.002)
        )
        # Push enough upload bytes to exceed H = 0.002 Mbps in the window.
        for i in range(10):
            filt.process(out_packet(pair=tcp_pair(sport=2000 + i), t=0.1 * i, size=1500))
        assert filt.process(in_packet(pair=tcp_pair(sport=9999).inverse, t=1.0)) is Verdict.DROP

    def test_known_inbound_passes_even_under_load(self):
        filt = small_bitmap(
            drop_controller=DropController.red_mbps(low_mbps=0.001, high_mbps=0.002)
        )
        for i in range(10):
            filt.process(out_packet(pair=tcp_pair(sport=2000 + i), t=0.1 * i, size=1500))
        # Response to a marked pair: must bypass P_d entirely.
        assert filt.process(in_packet(pair=tcp_pair(sport=2003).inverse, t=1.0)) is Verdict.PASS


class TestHousekeeping:
    def test_memory_is_constant(self):
        filt = small_bitmap()
        before = filt.memory_bytes
        for i in range(500):
            filt.process(out_packet(pair=tcp_pair(sport=1024 + i), t=0.01 * i))
        assert filt.memory_bytes == before
        assert filt.memory_bytes == 4 * 2 ** 14 // 8

    def test_reset(self):
        filt = small_bitmap()
        filt.process(out_packet(t=0.0))
        filt.reset()
        assert filt.core.stats.outbound_marked == 0
        assert filt.process(in_packet(t=0.1)) is Verdict.DROP

    def test_paper_default_config(self):
        filt = BitmapPacketFilter()
        assert filt.config.size == 2 ** 20
        assert filt.memory_bytes == 512 * 1024


class TestHashMemo:
    """One memo per filter, shared by the per-packet and batched paths."""

    @pytest.fixture(scope="class")
    def trace(self):
        return TraceGenerator(
            TraceConfig(duration=30.0, connection_rate=8.0, seed=3)
        ).packet_list()

    def test_one_memo_per_filter(self):
        filt = small_bitmap()
        assert filt.hash_memo is filt.core.hash_memo
        filt.process(out_packet(t=0.0))
        restored = BitmapPacketFilter.restore(filt.snapshot())
        assert restored.hash_memo is restored.core.hash_memo

    def test_sequential_replay_hashes_each_connection_once(self, trace):
        filt = small_bitmap()
        replay(trace, filt, batched=False)
        assert filt.hash_memo.hits > filt.hash_memo.misses
        # The batched path at the chunk size live feeds use: flows that
        # span chunks must hit the memo the previous chunk filled.  A memo
        # cleared per chunk still hits within a chunk (a strict-mode
        # two-way flow's inbound key equals its outbound key) but misses
        # every flow again in each new chunk, so its hits stay below its
        # misses.
        filt = small_bitmap()
        replay(trace, filt, batched=True, chunk_size=4096)
        assert filt.hash_memo.hits > filt.hash_memo.misses

    @pytest.mark.parametrize("mode", list(FieldMode))
    @pytest.mark.parametrize("red", [False, True])
    def test_capacity_one_memo_replays_identically(self, trace, mode, red):
        def build():
            controller = (DropController.red_mbps(0.5, 2.0) if red
                          else DropController.always_drop())
            return BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3,
                                   rotate_interval=5.0, field_mode=mode),
                drop_controller=controller, rng=random.Random(11),
            )

        default, bounded = build(), build()
        bounded.core.hash_memo = HashIndexMemo(bounded.core.family, capacity=1)
        results = [
            replay(trace, filt, batched=False, record_fingerprint=True)
            for filt in (default, bounded)
        ]
        assert results[0].fingerprint == results[1].fingerprint
        assert default.stats.as_dict() == bounded.stats.as_dict()
        assert default.core.stats.as_dict() == bounded.core.stats.as_dict()
        assert [v.to_bytes() for v in default.core.vectors] == \
            [v.to_bytes() for v in bounded.core.vectors]
        assert len(bounded.hash_memo) == 1
        assert default.core.stats.inbound_dropped > 0

"""Tests for the edge router and replay harness."""

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.base import AcceptAllFilter, Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.naive import NaiveTimerFilter
from repro.filters.policy import DropController
from repro.filters.spi import SPIFilter
from repro.net.packet import Direction
from repro.sim.replay import compare_drop_rates, replay
from repro.sim.router import EdgeRouter

from tests.conftest import in_packet, out_packet, tcp_pair


class TestEdgeRouter:
    def test_passed_traffic_accounted(self):
        router = EdgeRouter(AcceptAllFilter())
        router.forward(out_packet(t=0.0, size=1000))
        assert router.passed.total_bytes(Direction.OUTBOUND) == 1000
        assert router.offered.total_bytes(Direction.OUTBOUND) == 1000

    def test_dropped_traffic_not_in_passed(self):
        router = EdgeRouter(NaiveTimerFilter())
        router.forward(in_packet(t=0.0, size=500))
        assert router.passed.total_bytes(Direction.INBOUND) == 0
        assert router.offered.total_bytes(Direction.INBOUND) == 500

    def test_blocklist_persists_drops(self):
        router = EdgeRouter(NaiveTimerFilter(), blocklist=BlockedConnectionStore())
        assert router.forward(in_packet(t=0.0)) is Verdict.DROP
        # Even the outbound reply direction of the blocked σ is suppressed.
        assert router.forward(out_packet(t=0.1)) is Verdict.DROP
        assert router.blocklist.suppressed_packets == 1

    def test_without_blocklist_outbound_reopens(self):
        router = EdgeRouter(NaiveTimerFilter(), blocklist=None)
        router.forward(in_packet(t=0.0))
        assert router.forward(out_packet(t=0.1)) is Verdict.PASS
        assert router.forward(in_packet(t=0.2)) is Verdict.PASS

    def test_drop_rate(self):
        router = EdgeRouter(NaiveTimerFilter())
        router.forward(out_packet(t=0.0))
        router.forward(in_packet(t=0.1))  # pass (state)
        router.forward(in_packet(pair=tcp_pair(sport=9).inverse, t=0.2))  # drop
        assert router.drop_rate == pytest.approx(0.5)

    def test_direction_required(self):
        from repro.net.packet import Packet

        router = EdgeRouter(AcceptAllFilter())
        with pytest.raises(ValueError):
            router.forward(Packet(0.0, tcp_pair(), 40))

    def test_restore_refuses_series_of_two_intervals(self):
        # One tally bins the offered and passed series alike; a snapshot
        # whose two series disagree would bin one of them wrong.
        router = EdgeRouter(AcceptAllFilter())
        router.forward(out_packet(t=0.0, size=1000))
        snapshot = router.snapshot()
        snapshot["passed"]["interval"] = 2.0
        with pytest.raises(ValueError, match="interval mismatch"):
            EdgeRouter(AcceptAllFilter()).restore_state(snapshot)


class TestRowAccountant:
    """``forward`` appends rows; the router folds them every
    ``FOLD_ROWS`` rows and whenever something reads what they fill."""

    def make_router(self):
        return EdgeRouter(
            BitmapPacketFilter(BitmapFilterConfig(size=2 ** 10, vectors=4, hashes=3,
                                                  rotate_interval=5.0)),
            blocklist=BlockedConnectionStore())

    def test_folds_every_fold_rows(self, small_trace):
        from repro.sim.router import FOLD_ROWS

        router = self.make_router()
        for packet in small_trace[:FOLD_ROWS]:
            router.forward(packet)
        # The last append folded: the filter's own counters are exact.
        assert router._packets == FOLD_ROWS
        assert router._filter.stats.total + router.blocklist.suppressed_packets == FOLD_ROWS
        router.forward(small_trace[FOLD_ROWS])
        assert router._packets == FOLD_ROWS
        assert router.packets == FOLD_ROWS + 1

    @pytest.mark.parametrize("batched", [False, True])
    def test_replay_frees_its_filter_without_the_cyclic_gc(self, small_trace, batched):
        # The router holds its owner's count step weakly: a pipeline ↔
        # router cycle would keep every replayed filter alive until a
        # GC pass, which a campaign of many replays pays in memory.
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            flt = BitmapPacketFilter(BitmapFilterConfig(size=2 ** 12))
            alive = weakref.ref(flt)
            result = replay(small_trace[:3000], flt, batched=batched,
                            record_fingerprint=True)
            del flt, result
            assert alive() is None
        finally:
            gc.enable()

    def test_reads_from_another_thread_fold_each_row_once(self, small_trace):
        import sys
        import threading

        reference = self.make_router()
        for packet in small_trace:
            reference.forward(packet)
        router = self.make_router()
        stop = threading.Event()

        def poll():
            while not stop.is_set():
                router.passed.total_bytes(Direction.INBOUND)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        readers = [threading.Thread(target=poll) for _ in range(3)]
        for reader in readers:
            reader.start()
        try:
            for packet in small_trace:
                router.forward(packet)
        finally:
            stop.set()
            for reader in readers:
                reader.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(reader.is_alive() for reader in readers)
        for lane in ("packets", "offered", "passed", "inbound_drops"):
            mine, theirs = getattr(router, lane), getattr(reference, lane)
            if lane != "packets":
                mine, theirs = mine.snapshot(), theirs.snapshot()
            assert mine == theirs, lane
        assert router.filter.stats.snapshot() == reference.filter.stats.snapshot()


class TestReplay:
    def test_counts(self, small_trace):
        result = replay(small_trace, AcceptAllFilter(), use_blocklist=False)
        assert result.packets == len(small_trace)
        assert result.inbound_dropped == 0
        assert result.inbound_drop_rate == 0.0
        assert result.duration > 0

    def test_bitmap_low_drop_rate_on_benign_replay(self, small_trace):
        """Figure 8 regime: pure positive-listing drop rates are small
        single-digit percentages on a realistic client-network trace."""
        result = replay(
            small_trace,
            BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 20, vectors=4, hashes=3,
                                   rotate_interval=5.0)
            ),
            use_blocklist=False,
        )
        assert 0.0 < result.inbound_drop_rate < 0.25

    def test_empty_trace(self):
        result = replay([], AcceptAllFilter())
        assert result.packets == 0
        assert result.duration == 0.0


class TestCompareDropRates:
    def test_fig8_shape(self, small_trace):
        comparison = compare_drop_rates(
            small_trace,
            {
                "spi": SPIFilter(idle_timeout=240.0),
                "bitmap": BitmapPacketFilter(
                    BitmapFilterConfig(size=2 ** 20, vectors=4, hashes=3,
                                       rotate_interval=5.0)
                ),
            },
        )
        assert comparison.points
        spi_rate = comparison.overall("spi")
        bitmap_rate = comparison.overall("bitmap")
        # Close rates; SPI >= bitmap - epsilon (SPI drops more precisely).
        assert abs(spi_rate - bitmap_rate) < 0.05

    def test_requires_two_filters(self, small_trace):
        with pytest.raises(ValueError):
            compare_drop_rates(small_trace[:10], {"only": AcceptAllFilter()})


class TestThroughputLimiting:
    def test_uplink_bounded_when_filtering(self, small_trace):
        """Figure 9 in miniature: with RED thresholds well below the
        offered uplink load, the passed uplink throughput must come out
        meaningfully below the unfiltered replay's."""
        unfiltered = replay(small_trace, AcceptAllFilter(), use_blocklist=False)
        offered_mean = unfiltered.passed.mean_mbps(Direction.OUTBOUND)
        low = offered_mean * 0.2
        high = offered_mean * 0.4
        filtered = replay(
            small_trace,
            BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 20, vectors=4, hashes=3,
                                   rotate_interval=5.0),
                drop_controller=DropController.red_mbps(low_mbps=low, high_mbps=high),
            ),
            use_blocklist=True,
        )
        limited_mean = filtered.passed.mean_mbps(Direction.OUTBOUND)
        assert limited_mean < offered_mean * 0.9

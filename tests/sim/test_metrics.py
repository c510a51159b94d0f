"""Tests for replay measurement series."""

import pytest

from repro.filters.base import CODE_DROP, CODE_PASS
from repro.net.packet import Direction
from repro.sim.metrics import (
    DropRateSampler,
    ThroughputSeries,
    least_squares_slope,
    record_rows,
    scatter_points,
)

from tests.conftest import in_packet, out_packet


def record(series, *packets):
    """Bin passed ``packets`` into ``series`` through :func:`record_rows`."""
    record_rows(ThroughputSeries(interval=series.interval), series, DropRateSampler(),
                [packet.timestamp for packet in packets],
                [packet.size for packet in packets],
                bytearray(packet.direction is Direction.OUTBOUND for packet in packets),
                bytearray([CODE_PASS]) * len(packets))


def verdict(sampler, timestamp, dropped):
    """Count one inbound verdict into ``sampler`` through :func:`record_rows`."""
    record_rows(ThroughputSeries(), ThroughputSeries(), sampler, [timestamp], [40],
                bytearray(1), bytearray([CODE_DROP if dropped else CODE_PASS]))


class TestThroughputSeries:
    def test_binning(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.5, size=1250))
        record(series, out_packet(t=0.9, size=1250))
        record(series, out_packet(t=1.5, size=2500))
        points = series.series_mbps(Direction.OUTBOUND)
        assert points[0] == (0.0, pytest.approx(0.02))
        assert points[1] == (1.0, pytest.approx(0.02))

    def test_directions_separate(self):
        series = ThroughputSeries()
        record(series, out_packet(t=0.0, size=1000))
        record(series, in_packet(t=0.0, size=500))
        assert series.total_bytes(Direction.OUTBOUND) == 1000
        assert series.total_bytes(Direction.INBOUND) == 500

    def test_mean_over_span(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.0, size=1250))
        record(series, out_packet(t=9.5, size=1250))
        # 2500 bytes over 10 intervals = 2 kbps.
        assert series.mean_mbps(Direction.OUTBOUND) == pytest.approx(0.002)

    def test_peak(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.0, size=125))
        record(series, out_packet(t=5.0, size=1_250_000))
        assert series.peak_mbps(Direction.OUTBOUND) == pytest.approx(10.0)

    def test_quantile(self):
        series = ThroughputSeries(interval=1.0)
        for i in range(10):
            record(series, out_packet(t=float(i), size=(i + 1) * 125))
        median = series.quantile_mbps(Direction.OUTBOUND, 0.5)
        assert median == pytest.approx(0.006, abs=0.002)

    def test_empty(self):
        series = ThroughputSeries()
        assert series.mean_mbps(Direction.OUTBOUND) == 0.0
        assert series.peak_mbps(Direction.INBOUND) == 0.0
        assert series.quantile_mbps(Direction.OUTBOUND, 0.9) == 0.0

    def test_mean_counts_empty_bins_in_span(self):
        """Regression: a bursty trace's silent intervals must dilute the
        mean — 2500 bytes over a 10-interval span is 2 kbps even though
        only two intervals carried traffic."""
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.5, size=1250))
        record(series, out_packet(t=9.5, size=1250))
        assert series.mean_mbps(Direction.OUTBOUND) == pytest.approx(0.002)

    def test_quantile_counts_empty_bins_in_span(self):
        """Regression: quantiles must see zero-traffic intervals between
        the first and last busy bin.  Two busy intervals in a 10-interval
        span mean the median rate is 0, not the busy-bin rate — the old
        code sorted only non-empty bins and reported 0.01 Mbps."""
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.5, size=1250))
        record(series, out_packet(t=9.5, size=1250))
        assert series.quantile_mbps(Direction.OUTBOUND, 0.5) == 0.0
        # The busy bins still dominate the top of the distribution.
        assert series.quantile_mbps(Direction.OUTBOUND, 0.95) == pytest.approx(0.01)
        assert series.quantile_mbps(Direction.OUTBOUND, 1.0) == pytest.approx(0.01)

    def test_span_rates_dense(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.0, size=125))
        record(series, out_packet(t=3.0, size=250))
        rates = series.span_rates_mbps(Direction.OUTBOUND)
        assert rates == pytest.approx([0.001, 0.0, 0.0, 0.002])
        assert series.span_rates_mbps(Direction.INBOUND) == []

    def test_direction_required(self):
        # Rows reach a series only through the router's two doors, and
        # both refuse a packet without a direction.
        from repro.filters.base import AcceptAllFilter
        from repro.net.packet import Packet
        from repro.net.table import PacketTable
        from repro.sim.router import EdgeRouter

        from tests.conftest import tcp_pair

        router = EdgeRouter(AcceptAllFilter())
        with pytest.raises(ValueError):
            router.forward(Packet(0.0, tcp_pair(), 40))
        with pytest.raises(ValueError):
            PacketTable.from_packets([Packet(0.0, tcp_pair(), 40)])
        assert router.offered.snapshot() == ThroughputSeries().snapshot()

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputSeries(interval=0.0)


class TestRecordRows:
    """The plain loop sums runs of rows that share a bin; it must leave
    exactly the bins a row-by-row count leaves, in any fold grouping."""

    @staticmethod
    def row_by_row(rows, interval, window):
        offered = {Direction.OUTBOUND: {}, Direction.INBOUND: {}}
        passed = {Direction.OUTBOUND: {}, Direction.INBOUND: {}}
        packets, dropped = {}, {}
        for now, size, is_out, code in rows:
            index = int(now / interval)
            direction = Direction.OUTBOUND if is_out else Direction.INBOUND
            offered[direction][index] = offered[direction].get(index, 0) + size
            if code == CODE_PASS:
                passed[direction][index] = passed[direction].get(index, 0) + size
            if not is_out:
                slot = int(now / window)
                packets[slot] = packets.get(slot, 0) + 1
                if code != CODE_PASS:
                    dropped[slot] = dropped.get(slot, 0) + 1
        return offered, passed, packets, dropped

    @pytest.mark.parametrize("seed", range(6))
    def test_runs_match_row_by_row(self, seed):
        import random

        rng = random.Random(seed)
        now, rows = 0.0, []
        for _ in range(300):
            now += rng.choice([0.0, 0.0, 0.1, 0.5, 1.0, 3.0, -0.7, -2.0])
            rows.append((now, rng.choice([0, 0, 40, 1500]), rng.random() < 0.5,
                         rng.choice([0, 1, 1, 1, 2])))
        offered, passed = ThroughputSeries(0.5), ThroughputSeries(0.5)
        drops = DropRateSampler(2.0)
        start = 0
        while start < len(rows):
            fold = rows[start:start + rng.choice([1, 3, 64, 200])]
            start += len(fold)
            times, sizes, outbound, codes = zip(*fold)
            record_rows(offered, passed, drops, list(times), list(sizes),
                        bytearray(outbound), bytearray(codes))
        assert (offered._bins, passed._bins, drops._packets, drops._dropped) == \
            self.row_by_row(rows, 0.5, 2.0)


class TestSparseWallClockSpans:
    """Live services feed these series *wall-clock* time: hours of idle,
    restart gaps of days.  Span statistics must count the silent
    intervals without materializing them — a billion-interval gap is one
    subtraction, not a billion-entry list."""

    def test_mean_across_restart_gap(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.5, size=1250))
        # The service comes back ~32 years of epoch seconds later; the
        # old span_rates-based mean would build a ~1e9-entry list here.
        record(series, out_packet(t=1.0e9 + 0.5, size=1250))
        span = series.span_intervals(Direction.OUTBOUND)
        assert span == 1_000_000_001
        expected = 2500 * 8.0 / 1e6 / span
        assert series.mean_mbps(Direction.OUTBOUND) == pytest.approx(expected)

    def test_quantile_across_restart_gap(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=0.5, size=1250))
        record(series, out_packet(t=1.0e9 + 0.5, size=2500))
        # Nearly the whole span is silent: every quantile below the very
        # top is exactly zero, and the top is the busiest bin.
        assert series.quantile_mbps(Direction.OUTBOUND, 0.5) == 0.0
        assert series.quantile_mbps(Direction.OUTBOUND, 0.999999) == 0.0
        assert series.quantile_mbps(Direction.OUTBOUND, 1.0) == pytest.approx(0.02)

    def test_quantile_matches_dense_reference(self):
        """The arithmetic zero-counting quantile must agree with the
        materialize-and-sort reference on a dense-enough series."""
        series = ThroughputSeries(interval=1.0)
        sizes = [125, 0, 250, 0, 0, 625, 125, 0, 375, 500]
        for i, size in enumerate(sizes):
            if size:
                record(series, out_packet(t=float(i), size=size))
        rates = sorted(series.span_rates_mbps(Direction.OUTBOUND))
        span = len(rates)
        for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0):
            rank = min(span - 1, int(q * span))
            assert series.quantile_mbps(Direction.OUTBOUND, q) == pytest.approx(
                rates[rank]
            ), q

    def test_single_bin_span(self):
        series = ThroughputSeries(interval=1.0)
        record(series, out_packet(t=1234567.5, size=1250))
        assert series.span_intervals(Direction.OUTBOUND) == 1
        assert series.mean_mbps(Direction.OUTBOUND) == pytest.approx(0.01)
        assert series.quantile_mbps(Direction.OUTBOUND, 0.0) == pytest.approx(0.01)

    def test_sampler_unaffected_by_gaps(self):
        """Drop windows are keyed sparsely; a restart gap adds no
        phantom windows and leaves the aggregate rate a pure count."""
        sampler = DropRateSampler(window=10.0)
        verdict(sampler, 5.0, dropped=True)
        verdict(sampler, 1.0e9 + 5.0, dropped=False)
        samples = sampler.samples()
        assert len(samples) == 2
        assert sampler.overall_drop_rate() == pytest.approx(0.5)


class TestMergeAPI:
    """The metrics-merge layer the multiprocess replay engine rides on."""

    def test_series_merge_sums_shared_bins(self):
        a = ThroughputSeries(interval=1.0)
        b = ThroughputSeries(interval=1.0)
        record(a, out_packet(t=0.5, size=100))
        record(a, in_packet(t=2.5, size=50))
        record(b, out_packet(t=0.7, size=300))
        record(b, out_packet(t=5.1, size=40))
        merged = a + b
        assert merged._bins[Direction.OUTBOUND] == {0: 400, 5: 40}
        assert merged._bins[Direction.INBOUND] == {2: 50}
        assert merged.total_bytes(Direction.OUTBOUND) == 440
        # The operands are untouched by +.
        assert a.total_bytes(Direction.OUTBOUND) == 100

    def test_series_merge_in_place_chains(self):
        a = ThroughputSeries()
        b = ThroughputSeries()
        record(b, out_packet(t=1.0, size=10))
        assert a.merge(b) is a
        assert a.total_bytes(Direction.OUTBOUND) == 10

    def test_series_interval_mismatch(self):
        with pytest.raises(ValueError):
            ThroughputSeries(interval=1.0).merge(ThroughputSeries(interval=2.0))

    def test_sampler_merge(self):
        a = DropRateSampler(window=10.0)
        b = DropRateSampler(window=10.0)
        verdict(a, 1.0, dropped=True)
        verdict(a, 2.0, dropped=False)
        verdict(b, 3.0, dropped=True)
        verdict(b, 15.0, dropped=False)
        merged = a + b
        samples = merged.samples()
        assert samples[0].packets == 3 and samples[0].dropped == 2
        assert samples[1].packets == 1 and samples[1].dropped == 0
        assert merged.overall_drop_rate() == pytest.approx(0.5)

    def test_sampler_window_mismatch(self):
        with pytest.raises(ValueError):
            DropRateSampler(window=10.0).merge(DropRateSampler(window=5.0))

    def test_filter_stats_merge(self):
        from repro.filters.base import FilterStats, Verdict

        a = FilterStats()
        b = FilterStats()
        a.account(out_packet(size=100), Verdict.PASS)
        b.account(out_packet(size=50), Verdict.PASS)
        b.account(in_packet(size=25), Verdict.DROP)
        merged = a + b
        assert merged.passed[Direction.OUTBOUND] == 2
        assert merged.passed_bytes[Direction.OUTBOUND] == 150
        assert merged.dropped[Direction.INBOUND] == 1
        assert merged.total == 3
        assert a.total == 1  # operands untouched

    def test_bitmap_stats_merge(self):
        from repro.core.bitmap_filter import BitmapFilterStats

        a = BitmapFilterStats(outbound_marked=3, inbound_hits=2, rotations=1)
        b = BitmapFilterStats(inbound_misses=4, inbound_dropped=2, rotations=2)
        merged = a + b
        assert merged.as_dict() == {
            "outbound_marked": 3,
            "inbound_hits": 2,
            "inbound_misses": 4,
            "inbound_dropped": 2,
            "rotations": 3,
        }


class TestDropRateSampler:
    def test_per_window_rates(self):
        sampler = DropRateSampler(window=10.0)
        for i in range(8):
            verdict(sampler, 1.0 + i, dropped=False)
        for i in range(2):
            verdict(sampler, 5.0 + i, dropped=True)
        [sample] = sampler.samples()
        assert sample.packets == 10
        assert sample.dropped == 2
        assert sample.drop_rate == pytest.approx(0.2)

    def test_multiple_windows(self):
        sampler = DropRateSampler(window=10.0)
        verdict(sampler, 5.0, dropped=True)
        verdict(sampler, 15.0, dropped=False)
        samples = sampler.samples()
        assert len(samples) == 2
        assert samples[0].window_start == 0.0
        assert samples[1].window_start == 10.0

    def test_overall(self):
        sampler = DropRateSampler()
        verdict(sampler, 0.0, True)
        verdict(sampler, 1.0, False)
        verdict(sampler, 2.0, False)
        assert sampler.overall_drop_rate() == pytest.approx(1 / 3)

    def test_empty_overall(self):
        assert DropRateSampler().overall_drop_rate() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DropRateSampler(window=0.0)


class TestScatter:
    def test_paired_windows(self):
        a = DropRateSampler(window=10.0)
        b = DropRateSampler(window=10.0)
        for t in (1.0, 2.0, 11.0, 12.0):
            verdict(a, t, dropped=t < 10)
            verdict(b, t, dropped=False)
        points = scatter_points(a, b)
        assert points == [(1.0, 0.0), (0.0, 0.0)]

    def test_slope_of_identity(self):
        points = [(0.1, 0.1), (0.2, 0.2), (0.5, 0.5)]
        assert least_squares_slope(points) == pytest.approx(1.0)

    def test_slope_scaled(self):
        points = [(0.1, 0.2), (0.2, 0.4)]
        assert least_squares_slope(points) == pytest.approx(2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            least_squares_slope([(0.0, 0.1)])


class TestScatterMinPackets:
    def test_thin_windows_filtered(self):
        a = DropRateSampler(window=10.0)
        b = DropRateSampler(window=10.0)
        # Window 0: busy (30 packets); window 1: two stragglers.
        for i in range(30):
            verdict(a, float(i % 10), dropped=False)
            verdict(b, float(i % 10), dropped=False)
        for t in (11.0, 12.0):
            verdict(a, t, dropped=True)
            verdict(b, t, dropped=False)
        assert len(scatter_points(a, b, min_packets=1)) == 2
        assert len(scatter_points(a, b, min_packets=10)) == 1

    def test_min_packets_uses_both_samplers(self):
        a = DropRateSampler(window=10.0)
        b = DropRateSampler(window=10.0)
        for i in range(20):
            verdict(a, float(i % 10), dropped=False)
        verdict(b, 1.0, dropped=False)  # only one packet on b's side
        assert scatter_points(a, b, min_packets=5) == []

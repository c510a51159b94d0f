"""Tests for the uplink-throughput estimator."""

from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dropper import RedDropPolicy
from repro.core.throughput import SlidingWindowMeter, from_mbps, mbps
from repro.sim.kernels import _land, _read

#: Few distinct times, so batches carry ties and cross the 1 s window.
SAMPLES = st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.0, 1.5, 2.75, 4.0]),
              st.integers(min_value=0, max_value=1500)),
    max_size=30,
)


class TestSlidingWindowMeter:
    def test_empty_rate_is_zero(self):
        meter = SlidingWindowMeter(window=1.0)
        assert meter.rate_bps(10.0) == 0.0

    def test_single_packet(self):
        meter = SlidingWindowMeter(window=1.0)
        meter.record(0.0, 125)  # 1000 bits, but only 0.5 s observed so far
        assert meter.rate_bps(0.5) == pytest.approx(2000.0)

    def test_single_packet_after_full_window(self):
        meter = SlidingWindowMeter(window=1.0)
        meter.record(0.5, 125)  # 1000 bits in a full 1 s window
        assert meter.rate_bps(1.5) == pytest.approx(1000.0)

    def test_warmup_uses_elapsed_time(self):
        # Regression: before the fix the first window's traffic was divided
        # by the full window, underestimating throughput (and keeping P_d
        # at 0) until ``window`` seconds had elapsed.
        meter = SlidingWindowMeter(window=10.0)
        meter.record(0.0, 1250)
        meter.record(1.0, 1250)
        # 2500 B over 2 observed seconds = 10 kbps, not 2500*8/10 = 2 kbps.
        assert meter.rate_bps(2.0) == pytest.approx(10_000.0)

    def test_warmup_at_first_instant_falls_back_to_window(self):
        meter = SlidingWindowMeter(window=2.0)
        meter.record(3.0, 1000)
        # No elapsed time to average over: full-window average, not inf.
        assert meter.rate_bps(3.0) == pytest.approx(1000 * 8.0 / 2.0)

    def test_steady_stream(self):
        meter = SlidingWindowMeter(window=1.0)
        for i in range(100):
            meter.record(i * 0.01, 1250)  # 1250 B every 10 ms = 1 Mbps
        assert meter.rate_bps(1.0) == pytest.approx(1e6, rel=0.02)

    def test_eviction(self):
        meter = SlidingWindowMeter(window=1.0)
        meter.record(0.0, 1000)
        assert meter.rate_bps(2.5) == 0.0
        assert len(meter) == 0

    def test_partial_eviction(self):
        meter = SlidingWindowMeter(window=1.0)
        meter.record(0.0, 1000)
        meter.record(0.9, 1000)
        assert meter.rate_bps(1.5) == pytest.approx(8000.0)

    def test_window_scaling(self):
        short = SlidingWindowMeter(window=1.0)
        long = SlidingWindowMeter(window=10.0)
        for meter in (short, long):
            meter.record(5.0, 1000)
        assert short.rate_bps(5.0) == pytest.approx(10 * long.rate_bps(5.0))

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SlidingWindowMeter(window=0)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            SlidingWindowMeter().record(0.0, -1)


class TestUnits:
    def test_mbps_roundtrip(self):
        assert mbps(from_mbps(100.0)) == pytest.approx(100.0)

    def test_mbps_value(self):
        assert mbps(1e6) == 1.0


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0),
            st.integers(min_value=0, max_value=10_000),
        ),
        max_size=50,
    )
)
@settings(max_examples=100)
def test_sliding_window_rate_never_negative(events):
    meter = SlidingWindowMeter(window=2.0)
    for timestamp, size in sorted(events):
        meter.record(timestamp, size)
        assert meter.rate_bps(timestamp) >= 0.0


class TestDeferredEviction:
    """What a fused kernel (:mod:`repro.sim.kernels`) does to its filter's
    meter: samples appended straight onto the deque in any order, then
    one ``_land`` at the latest of their times, or one ``_read`` no
    earlier, against a ``record`` loop and ``rate_bps``."""

    #: Equation 1 over the rates these samples give: the ramp's three arms.
    POLICY = RedDropPolicy(low=4000.0, high=40000.0)

    @staticmethod
    def meters(prefill):
        meters = [SlidingWindowMeter(window=1.0) for _ in range(3)]
        for meter in meters:
            for timestamp, size in prefill:
                meter.record(timestamp, size)
        return meters

    @given(prefill=SAMPLES, batch=SAMPLES, ordered=st.booleans(),
           late=st.sampled_from([0.0, 0.5, 3.0]))
    @settings(max_examples=300)
    # The prefill goes out; (3.0, 10) shields every later sample.
    @example(prefill=[(0.0, 100), (0.9, 200)], ordered=False, late=0.0,
             batch=[(3.0, 10), (1.5, 20), (2.5, 30), (3.0, 40), (0.5, 50)])
    @example(prefill=[(0.0, 100)], batch=[], ordered=False, late=0.5)
    # A fresh meter: the first sample appended opens its span.
    @example(prefill=[], batch=[(1.5, 20), (0.5, 50)], ordered=False, late=0.0)
    def test_matches_a_record_loop(self, prefill, batch, ordered, late):
        if ordered:
            batch = sorted(batch)
        looped, landed, read = self.meters(prefill)
        for timestamp, size in batch:
            looped.record(timestamp, size)
            landed._entries.append((timestamp, size))
            read._entries.append((timestamp, size))
        uploaded = sum(size for _, size in batch)
        latest = max((timestamp for timestamp, _ in batch), default=-inf)
        _land(landed, uploaded, latest)
        assert landed.snapshot() == looped.snapshot()
        now = max(latest, 0.0) + late
        probability = _read(read, self.POLICY, uploaded, now)
        assert probability == self.POLICY.probability(looped.rate_bps(now))
        assert read.snapshot() == looped.snapshot()

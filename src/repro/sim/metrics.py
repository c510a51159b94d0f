"""Measurement series collected during replay.

:class:`ThroughputSeries` bins passed bytes per direction into fixed
intervals — the data behind Figure 9's uplink/downlink bands.
:class:`DropRateSampler` bins verdicts per interval — the data behind
Figure 8's per-window drop-rate scatter.  :func:`record_rows` fills both
from replayed rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.filters.base import CODE_PASS
from repro.net.packet import Direction
from repro.net.table import _numpy


class ThroughputSeries:
    """Per-interval byte counters for each direction."""

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.interval = interval
        self._bins: Dict[Direction, Dict[int, int]] = {
            Direction.OUTBOUND: {},
            Direction.INBOUND: {},
        }

    def series_mbps(self, direction: Direction) -> List[Tuple[float, float]]:
        """(time, Mbps) points, one per non-empty interval."""
        bins = self._bins[direction]
        return [
            (index * self.interval, count * 8.0 / self.interval / 1e6)
            for index, count in sorted(bins.items())
        ]

    def span_rates_mbps(self, direction: Direction) -> List[float]:
        """Per-interval rates over the observed span, one value per interval
        from the first to the last busy bin *including the empty ones* — a
        bursty trace's silent intervals are real 0-Mbps observations, not
        missing data.

        This materializes one float per interval of the span, which is
        fine for trace-time replays but explodes on live wall-clock series
        whose span may cover a restart gap of days; :meth:`mean_mbps` and
        :meth:`quantile_mbps` therefore count the empty intervals
        arithmetically instead of calling this.
        """
        bins = self._bins[direction]
        if not bins:
            return []
        first, last = min(bins), max(bins)
        scale = 8.0 / self.interval / 1e6
        return [bins.get(index, 0) * scale for index in range(first, last + 1)]

    def span_intervals(self, direction: Direction) -> int:
        """Number of intervals in the observed span (first to last busy
        bin inclusive), counting the silent ones."""
        bins = self._bins[direction]
        if not bins:
            return 0
        return max(bins) - min(bins) + 1

    def mean_mbps(self, direction: Direction) -> float:
        """Mean rate over the observed span (first to last busy bin).

        Empty intervals count as 0-Mbps observations but are never
        materialized — a live series fed sparse wall-clock time (a
        service that sat idle for hours, or resumed after a restart gap)
        has a huge span and few busy bins, and building one list entry
        per silent interval would exhaust memory before summing zeros.
        """
        span = self.span_intervals(direction)
        if span == 0:
            return 0.0
        total = sum(self._bins[direction].values())
        return total * 8.0 / self.interval / 1e6 / span

    def peak_mbps(self, direction: Direction) -> float:
        """Rate of the busiest interval."""
        bins = self._bins[direction]
        if not bins:
            return 0.0
        return max(bins.values()) * 8.0 / self.interval / 1e6

    def quantile_mbps(self, direction: Direction, q: float) -> float:
        """q-quantile of per-interval rates (0.95 is robust to replay
        warm-up spikes when checking the Figure 9 bound).

        Zero-traffic intervals between the first and last busy bin count
        as 0-Mbps observations; skipping them would bias every quantile of
        a bursty trace upward.  They are counted arithmetically, not
        materialized: only the busy bins are sorted, and a rank that
        lands inside the silent run is 0.0 by construction — so a live
        wall-clock series with a restart gap of days costs the same as a
        dense trace.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of [0,1]: {q}")
        span = self.span_intervals(direction)
        if span == 0:
            return 0.0
        bins = self._bins[direction]
        rank = min(span - 1, int(q * span))
        zeros = span - len(bins)
        if rank < zeros:
            return 0.0
        busy = sorted(bins.values())
        return busy[rank - zeros] * 8.0 / self.interval / 1e6

    def total_bytes(self, direction: Direction) -> int:
        """All bytes recorded for a direction."""
        return sum(self._bins[direction].values())

    def merge(self, other: "ThroughputSeries") -> "ThroughputSeries":
        """Accumulate another series' bins into this one (in place).

        Bins are keyed by absolute trace time, so merging per-worker
        series from a partitioned replay reproduces the bins a single
        replay of the whole stream would have produced.  Returns ``self``
        so merges chain.
        """
        if other.interval != self.interval:
            raise ValueError(
                f"interval mismatch: {self.interval} vs {other.interval}"
            )
        for direction, bins in other._bins.items():
            mine = self._bins[direction]
            for index, count in bins.items():
                mine[index] = mine.get(index, 0) + count
        return self

    def __add__(self, other: "ThroughputSeries") -> "ThroughputSeries":
        merged = ThroughputSeries(interval=self.interval)
        return merged.merge(self).merge(other)

    def snapshot(self) -> dict:
        """Serializable bin contents (JSON-safe: bins as [index, bytes]
        rows, keyed by direction name)."""
        return {
            "interval": self.interval,
            "bins": {
                direction.value: sorted(bins.items())
                for direction, bins in self._bins.items()
            },
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "ThroughputSeries":
        series = cls(interval=snapshot["interval"])
        for key, rows in snapshot["bins"].items():
            bins = series._bins[Direction(key)]
            for index, count in rows:
                bins[index] = count
        return series


@dataclass
class DropRateSample:
    """One time window's packet accounting for one filter."""

    window_start: float
    packets: int
    dropped: int

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.packets if self.packets else 0.0


class DropRateSampler:
    """Per-window drop rates (inbound), for Figure 8 scatter plots."""

    def __init__(self, window: float = 10.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.window = window
        self._packets: Dict[int, int] = {}
        self._dropped: Dict[int, int] = {}

    def samples(self) -> List[DropRateSample]:
        """Per-window samples in time order."""
        return [
            DropRateSample(
                window_start=index * self.window,
                packets=count,
                dropped=self._dropped.get(index, 0),
            )
            for index, count in sorted(self._packets.items())
        ]

    def overall_drop_rate(self) -> float:
        """Aggregate drop rate across all windows."""
        total = sum(self._packets.values())
        if total == 0:
            return 0.0
        return sum(self._dropped.values()) / total

    def merge(self, other: "DropRateSampler") -> "DropRateSampler":
        """Accumulate another sampler's windows into this one (in place).

        Windows are keyed by absolute trace time, so per-worker samplers
        from a partitioned replay merge into exactly the windows a single
        replay would have filled.  Returns ``self`` so merges chain.
        """
        if other.window != self.window:
            raise ValueError(f"window mismatch: {self.window} vs {other.window}")
        for index, count in other._packets.items():
            self._packets[index] = self._packets.get(index, 0) + count
        for index, count in other._dropped.items():
            self._dropped[index] = self._dropped.get(index, 0) + count
        return self

    def __add__(self, other: "DropRateSampler") -> "DropRateSampler":
        merged = DropRateSampler(window=self.window)
        return merged.merge(self).merge(other)

    def snapshot(self) -> dict:
        """Serializable window contents (JSON-safe [index, count] rows)."""
        return {
            "window": self.window,
            "packets": sorted(self._packets.items()),
            "dropped": sorted(self._dropped.items()),
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "DropRateSampler":
        sampler = cls(window=snapshot["window"])
        for index, count in snapshot["packets"]:
            sampler._packets[index] = count
        for index, count in snapshot["dropped"]:
            sampler._dropped[index] = count
        return sampler


def record_rows(
    offered: ThroughputSeries,
    passed: ThroughputSeries,
    drops: DropRateSampler,
    timestamps,
    sizes,
    outbound,
    codes,
) -> None:
    """Bin replayed rows into the router's series and drop windows.

    Every row's bytes go to ``offered``, the bytes of rows whose code is
    :data:`~repro.filters.base.CODE_PASS` to ``passed``, and every
    inbound row to a drop window, counted as dropped unless it passed.
    Bins are order-independent sums, so a table accounted in one pass
    and per-packet rows accounted in folds of any length fill exactly
    the same bins — a bin touched only by zero-byte packets still gets
    its key.  A table's buffer columns take numpy (``unique`` +
    ``bincount``) when :func:`~repro.net.table._numpy` returns it; list
    columns (the per-packet row accountant's) and small tables take the
    plain loop, so per-packet replay never imports numpy.  Both give
    identical bins.
    """
    interval = offered.interval
    if passed.interval != interval:
        raise ValueError(f"interval mismatch: {interval} vs {passed.interval}")
    np = _numpy() if len(codes) > 64 and not isinstance(sizes, list) else None
    if np is None:
        _record_runs(offered, passed, drops, timestamps, sizes, outbound, codes)
        return
    window = drops.window
    offered_out = offered._bins[Direction.OUTBOUND]
    offered_in = offered._bins[Direction.INBOUND]
    passed_out = passed._bins[Direction.OUTBOUND]
    passed_in = passed._bins[Direction.INBOUND]
    window_packets = drops._packets
    window_dropped = drops._dropped
    # A float64 → int64 cast truncates toward zero exactly like int().
    times = np.frombuffer(timestamps, dtype=np.float64)
    volume = np.frombuffer(sizes, dtype=np.int64)
    out = np.frombuffer(outbound, dtype=np.int8) != 0
    ok = np.frombuffer(codes, dtype=np.uint8) == CODE_PASS
    index = (times / interval).astype(np.int64)
    inbound = ~out
    for bins, mask in ((offered_out, out), (offered_in, inbound),
                       (passed_out, out & ok), (passed_in, inbound & ok)):
        _add_bins(np, bins, index[mask], volume[mask])
    window_index = (times[inbound] / window).astype(np.int64)
    _add_bins(np, window_packets, window_index)
    _add_bins(np, window_dropped, window_index[~ok[inbound]])


def _add_run(bins: Dict[int, int], key, rows: int, total: int) -> None:
    """``bins[key] += total`` when a run had ``rows`` for the bin."""
    if rows:
        bins[key] = bins.get(key, 0) + total


def _record_runs(offered, passed, drops, timestamps, sizes, outbound, codes) -> None:
    """:func:`record_rows`' plain loop.  Rows mostly come in time order,
    so neighbours share a series bin and a drop window: each run of rows
    in one bin is summed in locals and added to the dicts when the bin
    changes."""
    interval, window = offered.interval, drops.window
    offered_out = offered._bins[Direction.OUTBOUND]
    offered_in = offered._bins[Direction.INBOUND]
    passed_out = passed._bins[Direction.OUTBOUND]
    passed_in = passed._bins[Direction.INBOUND]
    window_packets, window_dropped = drops._packets, drops._dropped
    run = window_run = None
    out_rows = out_bytes = in_rows = in_bytes = 0
    out_ok = out_ok_bytes = in_ok = in_ok_bytes = 0
    inbound = dropped = 0
    for now, size, is_out, code in zip(timestamps, sizes, outbound, codes):
        index = int(now / interval)
        if index != run:
            _add_run(offered_out, run, out_rows, out_bytes)
            _add_run(offered_in, run, in_rows, in_bytes)
            _add_run(passed_out, run, out_ok, out_ok_bytes)
            _add_run(passed_in, run, in_ok, in_ok_bytes)
            run = index
            out_rows = out_bytes = in_rows = in_bytes = 0
            out_ok = out_ok_bytes = in_ok = in_ok_bytes = 0
        if is_out:
            out_rows += 1
            out_bytes += size
            if code == CODE_PASS:
                out_ok += 1
                out_ok_bytes += size
            continue
        in_rows += 1
        in_bytes += size
        slot = int(now / window)
        if slot != window_run:
            _add_run(window_packets, window_run, inbound, inbound)
            _add_run(window_dropped, window_run, dropped, dropped)
            window_run = slot
            inbound = dropped = 0
        inbound += 1
        if code == CODE_PASS:
            in_ok += 1
            in_ok_bytes += size
        else:
            dropped += 1
    _add_run(offered_out, run, out_rows, out_bytes)
    _add_run(offered_in, run, in_rows, in_bytes)
    _add_run(passed_out, run, out_ok, out_ok_bytes)
    _add_run(passed_in, run, in_ok, in_ok_bytes)
    _add_run(window_packets, window_run, inbound, inbound)
    _add_run(window_dropped, window_run, dropped, dropped)


def _add_bins(np, bins: Dict[int, int], keys, weights=None) -> None:
    """``bins[key] +=`` the summed weights (or the count) of each key's
    rows.  The float64 ``bincount`` sums of integer sizes are exact below
    2**53 bytes per bin."""
    if not keys.size:
        return
    unique, inverse = np.unique(keys, return_inverse=True)
    sums = np.bincount(inverse, weights=weights)
    if weights is not None:
        sums = sums.astype(np.int64)
    get = bins.get
    for key, value in zip(unique.tolist(), sums.tolist()):
        bins[key] = get(key, 0) + value


def scatter_points(
    a: DropRateSampler, b: DropRateSampler, min_packets: int = 1
) -> List[Tuple[float, float]]:
    """Pair two samplers' windows into (rate_a, rate_b) scatter points —
    the Figure 8 plot of SPI vs bitmap drop rates.

    ``min_packets`` discards near-empty windows (e.g. the trace tail where
    one straggler packet yields a meaningless 50 % "rate").
    """
    a_samples = {s.window_start: s for s in a.samples()}
    b_samples = {s.window_start: s for s in b.samples()}
    points = []
    for start in sorted(set(a_samples) & set(b_samples)):
        sample_a, sample_b = a_samples[start], b_samples[start]
        if min(sample_a.packets, sample_b.packets) < min_packets:
            continue
        points.append((sample_a.drop_rate, sample_b.drop_rate))
    return points


def least_squares_slope(points: List[Tuple[float, float]]) -> float:
    """Slope of the best-fit line through the origin — the paper notes the
    Figure 8 reference line "has a slope of 1.0"."""
    numerator = sum(x * y for x, y in points)
    denominator = sum(x * x for x, _ in points)
    if denominator == 0:
        raise ValueError("degenerate scatter (all x are zero)")
    return numerator / denominator

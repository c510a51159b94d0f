"""Measurement series collected during replay.

:class:`ThroughputSeries` bins passed bytes per direction into fixed
intervals — the data behind Figure 9's uplink/downlink bands.
:class:`DropRateSampler` bins verdicts per interval — the data behind
Figure 8's per-window drop-rate scatter.  An accounting step counts its
rows once (:func:`tally_rows`, one pass keyed by series bin, direction,
verdict code and drop window), and that :class:`VerdictTally` fills both,
the filter's counters and the pipeline's counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import add
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.filters.base import CODE_DROP, CODE_PASS
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


#: A tally cell: the row count of each slot ``3 * outbound + code`` (code
#: :data:`~repro.filters.base.CODE_DROP` 0, ``CODE_PASS`` 1 or
#: ``CODE_UNSEEN`` 2), then each slot's byte sum at ``BYTES + slot``.
BYTES = 6


class VerdictTally(NamedTuple):
    """Rows counted once by :func:`tally_rows`, for every counter of an
    accounting step: :meth:`record` fills the series and drop windows,
    :meth:`~repro.filters.base.FilterStats.account_tally` the filter's
    counters, and a pipeline's count step reads ``totals``."""

    #: Series bin ``int(t / interval)`` → cell, for each bin a row touches.
    bins: Dict[int, List[int]]
    #: Drop window ``int(t / window)`` → [inbound rows, those not passed].
    windows: Dict[int, List[int]]
    #: The cells summed over the bins.
    totals: List[int]

    def record(self, offered: ThroughputSeries, passed: ThroughputSeries,
               drops: DropRateSampler) -> None:
        """Add the rows' bytes to ``offered``, the passed rows' bytes to
        ``passed`` and the inbound rows to ``drops``, dropped unless they
        passed; a bin or window a row touches gets its key, whatever the
        row's size.  The series and sampler must share the tally's binning."""
        offered_in = offered._bins[Direction.INBOUND]
        offered_out = offered._bins[Direction.OUTBOUND]
        passed_in = passed._bins[Direction.INBOUND]
        passed_out = passed._bins[Direction.OUTBOUND]
        for key, cell in self.bins.items():
            # Slots 0-2 are inbound, 3-5 outbound; 1 and 4 passed.
            n0, n1, n2, n3, n4, n5, b0, b1, b2, b3, b4, b5 = cell
            if n0 or n1 or n2:
                offered_in[key] = offered_in.get(key, 0) + b0 + b1 + b2
            if n3 or n4 or n5:
                offered_out[key] = offered_out.get(key, 0) + b3 + b4 + b5
            if n1:
                passed_in[key] = passed_in.get(key, 0) + b1
            if n4:
                passed_out[key] = passed_out.get(key, 0) + b4
        packets, dropped = drops._packets, drops._dropped
        for key, (rows, missed) in self.windows.items():
            packets[key] = packets.get(key, 0) + rows
            if missed:
                dropped[key] = dropped.get(key, 0) + missed


def tally_rows(timestamps, sizes, outbound, codes,
               interval: Optional[float] = None,
               window: Optional[float] = None) -> VerdictTally:
    """The :class:`VerdictTally` of four row columns (timestamp, size,
    outbound flag, verdict code) by series ``interval`` and drop
    ``window``; without them, one bin keyed 0 and no windows.

    Table columns of more than 64 rows take numpy when
    :func:`~repro.net.table._numpy` returns it (each index kind's keys
    from its runs of equal keys, ``bincount`` over ``bin * 6 + slot``:
    sized by the bins present, never by the span); list columns and small
    tables one plain loop, so per-packet replay never imports numpy.
    Both give identical tallies.
    """
    np = _numpy() if len(codes) > 64 and not isinstance(sizes, list) else None
    if np is None:
        bins, windows = _tally_runs(timestamps, sizes, outbound, codes,
                                    interval or inf, window or inf)
    else:
        bins, windows = _tally_numpy(np, timestamps, sizes, outbound, codes,
                                     interval, window)
    totals = [sum(column) for column in zip(*bins.values())] or [0] * 2 * BYTES
    return VerdictTally(bins, windows if window else {}, totals)


def _tally_numpy(np, timestamps, sizes, outbound, codes, interval, window):
    times = np.frombuffer(timestamps, dtype=np.float64)
    code = np.frombuffer(codes, dtype=np.uint8)
    out = np.frombuffer(outbound, dtype=np.int8) != 0
    cell, keys = code + 3 * out.view(np.uint8), [0]
    # A float64 → int64 cast truncates toward zero exactly like int().
    if interval:
        keys, inverse = _runs(np, (times / interval).astype(np.int64))
        keys, cell = keys.tolist(), inverse * BYTES + cell
    counts = np.bincount(cell, minlength=BYTES * len(keys)).reshape(-1, BYTES)
    # float64 sums of integer sizes are exact below 2**53 bytes per bin.
    volume = np.bincount(cell, weights=np.frombuffer(sizes, dtype=np.int64),
                         minlength=BYTES * len(keys)).astype(np.int64)
    bins = dict(zip(keys, np.hstack((counts, volume.reshape(-1, BYTES))).tolist()))
    # ``take`` at the inbound positions: a boolean mask copies slower.
    inbound = np.flatnonzero(~out) if window else ()
    if not len(inbound):
        return bins, {}
    keys, inverse = _runs(np, (times.take(inbound) / window).astype(np.int64))
    missed = np.bincount(inverse * 2 + (code.take(inbound) != CODE_PASS),
                         minlength=2 * len(keys)).reshape(-1, 2)
    missed[:, 0] += missed[:, 1]
    return bins, dict(zip(keys.tolist(), missed.tolist()))


def _runs(np, keys):
    """``np.unique(keys, return_inverse=True)`` for a non-empty key column,
    without sorting it: a table's rows come in runs of one key (in time
    order, or nearly), so only the runs' first keys are sorted and each
    run's index repeats over the run."""
    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    unique, inverse = np.unique(keys[starts], return_inverse=True)
    return unique, np.repeat(inverse, np.diff(starts, append=len(keys)))


def _add_cell(cells: Dict[int, List[int]], key: int, run: List[int]) -> None:
    """``cells[key] += run``, elementwise."""
    cell = cells.get(key)
    cells[key] = run if cell is None else list(map(add, cell, run))


def _tally_runs(timestamps, sizes, outbound, codes, interval, window):
    """:func:`tally_rows`' plain loop.  Rows mostly come in time order: a
    run of rows in one bin is summed in locals, all six slots at once, and
    added to its cell when the bin changes; drop windows likewise."""
    bins, windows, run, window_run = {}, {}, None, None
    PASS, DROP = CODE_PASS, CODE_DROP
    # The run's rows and bytes by slot; the window's inbound rows and misses.
    n0 = n1 = n2 = n3 = n4 = n5 = b0 = b1 = b2 = b3 = b4 = b5 = seen = missed = 0
    for now, size, is_out, code in zip(timestamps, sizes, outbound, codes):
        index = int(now / interval)
        if index != run:
            if run is not None:
                _add_cell(bins, run, [n0, n1, n2, n3, n4, n5, b0, b1, b2, b3, b4, b5])
            run = index
            n0 = n1 = n2 = n3 = n4 = n5 = b0 = b1 = b2 = b3 = b4 = b5 = 0
        if is_out:
            if code == PASS:
                n4 += 1
                b4 += size
            elif code == DROP:
                n3 += 1
                b3 += size
            else:
                n5 += 1
                b5 += size
            continue
        slot = int(now / window)
        if slot != window_run:
            if seen:
                _add_cell(windows, window_run, [seen, missed])
            window_run = slot
            seen = missed = 0
        seen += 1
        if code == PASS:
            n1 += 1
            b1 += size
            continue
        missed += 1
        if code == DROP:
            n0 += 1
            b0 += size
        else:
            n2 += 1
            b2 += size
    if run is not None:
        _add_cell(bins, run, [n0, n1, n2, n3, n4, n5, b0, b1, b2, b3, b4, b5])
    if seen:
        _add_cell(windows, window_run, [seen, missed])
    return bins, windows


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

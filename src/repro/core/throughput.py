"""The uplink-throughput estimator.

The drop probability of Equation 1 is driven by "an indicator of upload
bandwidth throughput b", which the paper notes "is an essential component
in off-the-shelf network devices".  :class:`SlidingWindowMeter` is that
indicator: an exact byte count over the last W seconds, reported in bits
per second.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple


def restore_meter(snapshot: dict) -> "SlidingWindowMeter":
    """Rebuild a meter from its :meth:`SlidingWindowMeter.snapshot` output."""
    kind = snapshot.get("kind")
    if kind == "sliding-window":
        return SlidingWindowMeter.restore(snapshot)
    raise ValueError(f"unknown meter snapshot kind: {kind!r}")


class SlidingWindowMeter:
    """Exact byte count over a trailing window of ``window`` seconds.

    Feed ``(timestamp, bytes)`` observations; read back bits/second.
    Stores one (timestamp, bytes) entry per packet inside the window;
    memory is bounded by window length times packet rate.  It is exact
    and deterministic.  Eviction pops the oldest samples below a
    horizon, so appending samples in any order and evicting once at the
    largest horizon leaves what a :meth:`record` loop leaves; the fused
    kernels (:mod:`repro.sim.kernels`) rely on that to hold the meter in
    locals and defer its evictions.
    """

    def __init__(self, window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        self._entries: Deque[Tuple[float, int]] = deque()
        self._total_bytes = 0
        self._first_time: Optional[float] = None

    def record(self, timestamp: float, size_bytes: int) -> None:
        """Account one packet of ``size_bytes`` at ``timestamp`` seconds."""
        if size_bytes < 0:
            raise ValueError(f"negative size: {size_bytes}")
        if self._first_time is None:
            self._first_time = timestamp
        entries = self._entries
        entries.append((timestamp, size_bytes))
        total = self._total_bytes + size_bytes
        # The sample just appended is inside the window, so the deque
        # never empties here.
        horizon = timestamp - self.window
        while entries[0][0] < horizon:
            total -= entries.popleft()[1]
        self._total_bytes = total

    def rate_bps(self, now: float) -> float:
        """Estimated throughput in bits/second as of ``now``."""
        horizon = now - self.window
        entries = self._entries
        while entries and entries[0][0] < horizon:
            self._total_bytes -= entries.popleft()[1]
        if self._first_time is None:
            return 0.0
        # During warm-up (less than ``window`` seconds observed) divide by
        # the elapsed span, not the full window — otherwise early traffic is
        # averaged against time that never happened and P_d stays 0 until a
        # whole window has passed.  With zero elapsed time there is no span
        # to average over yet; fall back to the full window rather than
        # report an infinite rate off a single packet.
        elapsed = now - self._first_time
        span = min(self.window, elapsed) if elapsed > 0 else self.window
        return self._total_bytes * 8.0 / span

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> dict:
        """Serializable estimator state (plain ints/floats/lists, JSON-safe).

        A restarted edge-filter service must resume with the *exact* rate
        estimate it shut down with — ``P_d`` is a function of this state,
        so verdict-for-verdict warm restart needs it byte-exact.
        """
        return {
            "kind": "sliding-window",
            "window": self.window,
            "entries": [[timestamp, size] for timestamp, size in self._entries],
            "first_time": self._first_time,
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "SlidingWindowMeter":
        meter = cls(window=snapshot["window"])
        for timestamp, size in snapshot["entries"]:
            meter._entries.append((timestamp, size))
            meter._total_bytes += size
        meter._first_time = snapshot["first_time"]
        return meter


def mbps(bits_per_second: float) -> float:
    """Convert bits/second to megabits/second (the paper's unit)."""
    return bits_per_second / 1e6


def from_mbps(megabits_per_second: float) -> float:
    """Convert megabits/second to bits/second."""
    return megabits_per_second * 1e6

"""Indiscriminate rate-limiting baselines.

What an ISP without the bitmap filter actually deploys: a policer on the
uplink that drops *whatever* exceeds the contracted rate — P2P uploads and
legitimate client request/response traffic alike.  Comparing these against
the bitmap filter quantifies the paper's real selling point: the bitmap
filter limits only *unsolicited inbound* (and the uploads it triggers),
leaving client-initiated traffic untouched.

Two classics:

* :class:`TokenBucketFilter` — token-bucket policing of one direction.
* :class:`RedPolicerFilter` — RED-style probabilistic policing (Equation 1
  applied to every packet of the policed direction, not just unmatched
  inbound packets).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.dropper import DropPolicy, RedDropPolicy, restore_policy
from repro.core.throughput import SlidingWindowMeter, restore_meter
from repro.filters.base import (
    FilterStats,
    PacketFilter,
    Verdict,
    check_resume_clock,
    restore_rng_state,
    rng_state,
)
from repro.net.packet import Direction, Packet


class TokenBucket:
    """A standard token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Tokens are bytes; a packet passes when the bucket holds its size.
    """

    def __init__(self, rate_bytes_per_sec: float, burst_bytes: float) -> None:
        if rate_bytes_per_sec <= 0:
            raise ValueError(f"rate must be positive: {rate_bytes_per_sec}")
        if burst_bytes <= 0:
            raise ValueError(f"burst must be positive: {burst_bytes}")
        self.rate = rate_bytes_per_sec
        self.burst = burst_bytes
        self._tokens = burst_bytes
        self._last = None  # type: Optional[float]

    def consume(self, now: float, size: int) -> bool:
        """Try to take ``size`` tokens at time ``now``."""
        if self._last is None:
            self._last = now
        elif now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
            self._last = now
        if self._tokens >= size:
            self._tokens -= size
            return True
        return False

    @property
    def tokens(self) -> float:
        return self._tokens


class TokenBucketFilter(PacketFilter):
    """Police one direction with a token bucket; the other always passes."""

    name = "token-bucket"

    def __init__(
        self,
        rate_mbps: float,
        burst_bytes: Optional[float] = None,
        direction: Direction = Direction.OUTBOUND,
    ) -> None:
        super().__init__()
        rate_bytes = rate_mbps * 1e6 / 8.0
        self.bucket = TokenBucket(
            rate_bytes, burst_bytes if burst_bytes is not None else rate_bytes * 0.5
        )
        self.direction = direction

    def decide(self, packet: Packet) -> Verdict:
        if packet.direction is not self.direction:
            return Verdict.PASS
        if self.bucket.consume(packet.timestamp, packet.size):
            return Verdict.PASS
        return Verdict.DROP

    def snapshot(self) -> dict:
        """Bucket level and refill stamp — the filter's whole state."""
        return {
            "kind": self.name,
            "rate": self.bucket.rate,
            "burst": self.bucket.burst,
            "tokens": self.bucket._tokens,
            "last": self.bucket._last,
            "direction": self.direction.value,
            "stats": self.stats.snapshot(),
        }

    @classmethod
    def restore(cls, snapshot: dict, clock: str = "resume") -> "TokenBucketFilter":
        if snapshot.get("kind") not in (None, cls.name):
            raise ValueError(
                f"snapshot is for filter kind {snapshot['kind']!r}, not {cls.name!r}"
            )
        check_resume_clock(clock, cls.name)
        filt = cls.__new__(cls)
        PacketFilter.__init__(filt)
        # Rebuild the bucket from raw byte-rate, not a lossy rate_mbps
        # reconversion through the constructor.
        filt.bucket = TokenBucket(snapshot["rate"], snapshot["burst"])
        filt.bucket._tokens = snapshot["tokens"]
        filt.bucket._last = snapshot["last"]
        filt.direction = Direction(snapshot["direction"])
        filt.stats = FilterStats.restore(snapshot["stats"])
        return filt


class RedPolicerFilter(PacketFilter):
    """Equation-1 policing applied to every packet of one direction.

    Unlike the bitmap filter, this cannot distinguish a P2P upload from a
    web response leaving the network — both get the same P_d.
    """

    name = "red-policer"

    def __init__(
        self,
        policy: DropPolicy,
        meter: Optional[SlidingWindowMeter] = None,
        direction: Direction = Direction.OUTBOUND,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        self.policy = policy
        self.meter = meter if meter is not None else SlidingWindowMeter(window=1.0)
        self.direction = direction
        self._rng = rng or random.Random(0)

    @classmethod
    def mbps(cls, low_mbps: float, high_mbps: float, **kwargs) -> "RedPolicerFilter":
        return cls(RedDropPolicy(low=low_mbps * 1e6, high=high_mbps * 1e6), **kwargs)

    def decide(self, packet: Packet) -> Verdict:
        if packet.direction is not self.direction:
            return Verdict.PASS
        now = packet.timestamp
        probability = self.policy.probability(self.meter.rate_bps(now))
        if probability >= 1.0 or (probability > 0.0 and self._rng.random() < probability):
            return Verdict.DROP
        self.meter.record(now, packet.size)
        return Verdict.PASS

    def snapshot(self) -> dict:
        """Policy parameters, meter observations, RNG position."""
        return {
            "kind": self.name,
            "policy": self.policy.snapshot(),
            "meter": self.meter.snapshot(),
            "direction": self.direction.value,
            "rng": rng_state(self._rng),
            "stats": self.stats.snapshot(),
        }

    @classmethod
    def restore(cls, snapshot: dict, clock: str = "resume") -> "RedPolicerFilter":
        if snapshot.get("kind") not in (None, cls.name):
            raise ValueError(
                f"snapshot is for filter kind {snapshot['kind']!r}, not {cls.name!r}"
            )
        check_resume_clock(clock, cls.name)
        filt = cls.__new__(cls)
        PacketFilter.__init__(filt)
        filt.policy = restore_policy(snapshot["policy"])
        filt.meter = restore_meter(snapshot["meter"])
        filt.direction = Direction(snapshot["direction"])
        filt._rng = restore_rng_state(snapshot["rng"])
        filt.stats = FilterStats.restore(snapshot["stats"])
        return filt

"""Throughput-driven drop control shared by every filter.

Couples a :class:`repro.core.throughput.SlidingWindowMeter` (fed with the
uplink bytes the filter passes) to a :class:`repro.core.dropper.DropPolicy`
(Equation 1).  Filters call :meth:`record_upload` for each passed outbound
packet and :meth:`probability` when an unmatched inbound packet needs a
``P_d``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dropper import (
    DropPolicy,
    RedDropPolicy,
    StaticDropPolicy,
    restore_policy,
)
from repro.core.throughput import SlidingWindowMeter, restore_meter


class DropController:
    """Glue between the uplink throughput estimate and ``P_d``."""

    def __init__(
        self,
        policy: Optional[DropPolicy] = None,
        meter: Optional[SlidingWindowMeter] = None,
    ) -> None:
        self.policy = policy if policy is not None else StaticDropPolicy(1.0)
        self.meter = meter if meter is not None else SlidingWindowMeter(window=1.0)

    def record_upload(self, timestamp: float, size_bytes: int) -> None:
        """Account one passed outbound packet toward the uplink rate."""
        self.meter.record(timestamp, size_bytes)

    def throughput_bps(self, now: float) -> float:
        return self.meter.rate_bps(now)

    def probability(self, now: float) -> float:
        """Current ``P_d`` given the measured uplink throughput."""
        return self.policy.probability(self.meter.rate_bps(now))

    def snapshot(self) -> dict:
        """Serializable policy + estimator state (the full ``P_d`` inputs)."""
        return {"policy": self.policy.snapshot(), "meter": self.meter.snapshot()}

    @classmethod
    def restore(cls, snapshot: dict) -> "DropController":
        """Rebuild a controller — policy parameters and the estimator's
        exact observation state — from :meth:`snapshot` output."""
        return cls(
            policy=restore_policy(snapshot["policy"]),
            meter=restore_meter(snapshot["meter"]),
        )

    @classmethod
    def red_mbps(
        cls, low_mbps: float, high_mbps: float, window: float = 1.0
    ) -> "DropController":
        """Convenience: Equation 1 with thresholds in Mbps (the paper uses
        L = 50 Mbps, H = 100 Mbps in section 5.3)."""
        return cls(
            policy=RedDropPolicy(low=low_mbps * 1e6, high=high_mbps * 1e6),
            meter=SlidingWindowMeter(window=window),
        )

    @classmethod
    def always_drop(cls) -> "DropController":
        """P_d = 1 — the Figure 8 configuration ('drop all inbound packets
        without states')."""
        return cls(policy=StaticDropPolicy(1.0))

    @classmethod
    def never_drop(cls) -> "DropController":
        return cls(policy=StaticDropPolicy(0.0))

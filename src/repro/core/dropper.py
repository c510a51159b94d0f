"""Drop-probability policies — Equation 1 and the static P_d.

The paper generates the conditional drop probability ``P_d`` "in a similar
form to the random early detection (RED) algorithm": zero below a low
threshold ``L``, one above a high threshold ``H``, linear in between, driven
by the measured uplink throughput ``b``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class DropPolicy(ABC):
    """Maps an uplink-throughput indicator to a drop probability in [0, 1]."""

    @abstractmethod
    def probability(self, throughput: float) -> float:
        """``P_d`` for the given throughput (same units as the thresholds)."""

    @abstractmethod
    def snapshot(self) -> dict:
        """Serializable policy parameters (plain JSON-safe data)."""


def restore_policy(snapshot: dict) -> DropPolicy:
    """Rebuild any policy from its :meth:`DropPolicy.snapshot` output."""
    kind = snapshot.get("kind")
    if kind == "red":
        return RedDropPolicy(low=snapshot["low"], high=snapshot["high"])
    if kind == "static":
        return StaticDropPolicy(snapshot["probability"])
    if kind == "target-rate":
        from repro.core.autotune import TargetRateController

        return TargetRateController.restore(snapshot)
    raise ValueError(f"unknown drop-policy snapshot kind: {kind!r}")


class RedDropPolicy(DropPolicy):
    """Equation 1: RED-style linear ramp between ``low`` and ``high``.

    ::

        P_d = 0                    if b <= L
        P_d = (b - L) / (H - L)    if L < b < H
        P_d = 1                    if b >= H
    """

    def __init__(self, low: float, high: float) -> None:
        if low < 0:
            raise ValueError(f"low threshold must be non-negative, got {low}")
        if high <= low:
            raise ValueError(f"need high > low, got low={low}, high={high}")
        self.low = low
        self.high = high

    def probability(self, throughput: float) -> float:
        if throughput <= self.low:
            return 0.0
        if throughput >= self.high:
            return 1.0
        return (throughput - self.low) / (self.high - self.low)

    def snapshot(self) -> dict:
        return {"kind": "red", "low": self.low, "high": self.high}

    def __repr__(self) -> str:  # pragma: no cover
        return f"RedDropPolicy(low={self.low}, high={self.high})"


class StaticDropPolicy(DropPolicy):
    """A constant ``P_d`` regardless of throughput.

    ``StaticDropPolicy(1.0)`` reproduces the Figure 8 configuration:
    "drop all inbound packets without states".
    """

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of [0,1]: {probability}")
        self._probability = probability

    def probability(self, throughput: float) -> float:
        return self._probability

    def snapshot(self) -> dict:
        return {"kind": "static", "probability": self._probability}

    def __repr__(self) -> str:  # pragma: no cover
        return f"StaticDropPolicy({self._probability})"

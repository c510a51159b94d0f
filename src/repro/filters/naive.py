"""The section 4.2 "naïve solution": exact per-socket-pair timers.

"Suppose that a timer with an initial value of T is associated with the
socket pair σ_out of each outbound packet that is new to an edge router.
If the socket pair σ_out is not new to the router, the value of the
associated timer is simply reset to T.  [...] When the timer expires, the
associated socket pair is deleted.  For each inbound packet, the router
extracts the socket pair σ_in and checks if its inverse exists.  If it
exists, the packet is bypassed; otherwise, it is dropped under certain
probability P_d."

This filter is behaviourally *exact* — it is what the bitmap filter
approximates with constant memory.  It doubles as the reference model in
property-based tests: the bitmap filter must never drop an inbound packet
whose pair was marked within ``(k-1)·Δt`` seconds, which is precisely this
filter with ``T = (k-1)·Δt``.

The countdown timers are implemented as absolute expiry timestamps; an
entry older than ``T`` at lookup time is treated as deleted (lazy expiry)
and periodically garbage-collected.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Tuple

from repro.core.bitmap_filter import FieldMode, socket_key
from repro.filters.base import PacketFilter, Verdict
from repro.filters.policy import DropController
from repro.net.packet import Direction, Packet, SocketPair


class NaiveTimerFilter(PacketFilter):
    """Exact positive-listing filter with per-pair expiry timers."""

    name = "naive-timer"

    def __init__(
        self,
        expiry: float = 20.0,
        field_mode: FieldMode = FieldMode.STRICT,
        drop_controller: Optional[DropController] = None,
        rng: Optional[random.Random] = None,
        gc_interval: float = 60.0,
    ) -> None:
        super().__init__()
        if expiry <= 0:
            raise ValueError(f"expiry must be positive: {expiry}")
        self.expiry = expiry
        self.field_mode = field_mode
        self.drop_controller = drop_controller or DropController.always_drop()
        self._rng = rng or random.Random(0)
        self._deadlines: Dict[Tuple[int, ...], float] = {}
        self._gc_interval = gc_interval
        self._next_gc: Optional[float] = None

    @property
    def tracked_pairs(self) -> int:
        return len(self._deadlines)

    def decide(self, packet: Packet) -> Verdict:
        now = packet.timestamp
        self._maybe_gc(now)
        key = socket_key(packet.pair, packet.direction,
                         self.field_mode is FieldMode.HOLE_PUNCHING)

        if packet.direction is Direction.OUTBOUND:
            self._deadlines[key] = now + self.expiry
            self.drop_controller.record_upload(now, packet.size)
            return Verdict.PASS

        deadline = self._deadlines.get(key)
        if deadline is not None:
            if now <= deadline:
                return Verdict.PASS
            del self._deadlines[key]  # lazy expiry
        probability = self.drop_controller.probability(now)
        if probability >= 1.0 or self._rng.random() < probability:
            return Verdict.DROP
        return Verdict.PASS

    def knows(self, pair: SocketPair, direction: Direction, now: float) -> bool:
        """Non-mutating membership check (for tests and cross-validation)."""
        key = socket_key(pair, direction, self.field_mode is FieldMode.HOLE_PUNCHING)
        deadline = self._deadlines.get(key)
        return deadline is not None and now <= deadline

    def _maybe_gc(self, now: float) -> None:
        if self._next_gc is None:
            self._next_gc = now + self._gc_interval
            return
        if now < self._next_gc:
            return
        self._next_gc = now + self._gc_interval
        expired = [key for key, deadline in self._deadlines.items() if deadline < now]
        for key in expired:
            del self._deadlines[key]

    def reset(self) -> None:
        super().reset()
        self._deadlines.clear()
        self._next_gc = None

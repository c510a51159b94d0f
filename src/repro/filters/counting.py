"""Close-aware counting filter — an extension of the bitmap filter.

The bitmap filter expires entries purely by time (``T_e = k·Δt``).  But
TCP close signals (FIN/RST) are visible in packet headers — no payload
inspection — so an extension can *delete* a connection's entry the moment
it closes, cutting the filter's utilization (and therefore its
penetration probability, Equation 2) between rotations.

Design:

* ``k`` rotating :class:`CountingBloomFilter` columns replace the bit
  vectors; marks increment all columns, lookups test the current column,
  rotation clears the oldest — identical geometry to the paper's filter.
* On an outbound RST, the pair is deleted from every column immediately.
* On FIN, full deletion waits for the *second* FIN (an orderly close is
  bidirectional).  Half-closed pairs are tracked in a small exact table —
  per-flow state, but only for flows in the act of closing, so its size
  is bounded by close rate × handshake time, not by live-flow count.

Cost: 4-bit counters need 4× the memory of plain bits at equal ``N``.
``benchmarks/bench_ext_counting.py`` quantifies when the trade wins.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode, socket_key
from repro.core.counting_bloom import CountingBloomFilter
from repro.filters.base import (
    FilterStats,
    PacketFilter,
    Verdict,
    check_resume_clock,
    restore_rng_state,
    rng_state,
)
from repro.filters.policy import DropController
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Direction, Packet


class CountingBitmapFilter(PacketFilter):
    """Rotating counting-Bloom positive-listing filter with close-aware
    entry deletion."""

    name = "counting-bitmap"

    def __init__(
        self,
        config: Optional[BitmapFilterConfig] = None,
        drop_controller: Optional[DropController] = None,
        rng: Optional[random.Random] = None,
        half_close_timeout: float = 60.0,
    ) -> None:
        super().__init__()
        self.config = config or BitmapFilterConfig()
        if half_close_timeout <= 0:
            raise ValueError(f"half_close_timeout must be positive: {half_close_timeout}")
        self.columns: List[CountingBloomFilter] = [
            CountingBloomFilter(self.config.size, self.config.hashes, seed=self.config.seed)
            for _ in range(self.config.vectors)
        ]
        self.idx = 0
        self.drop_controller = drop_controller or DropController.always_drop()
        self._rng = rng or random.Random(self.config.seed)
        self._next_rotation: Optional[float] = None
        #: Pairs that sent one FIN, awaiting the reverse FIN.
        self._half_closed: Dict[Tuple[int, ...], float] = {}
        self.half_close_timeout = half_close_timeout
        self.deleted_on_close = 0

    # ------------------------------------------------------------------

    def rotate(self, count: int = 1) -> int:
        """Run ``count`` rotations, clearing each vacated column once."""
        k = self.config.vectors
        for step in range(min(count, k)):
            self.columns[(self.idx + step) % k].clear()
        self.idx = (self.idx + count) % k
        return self.idx

    def advance_to(self, now: float) -> int:
        """Run the rotations due by ``now``, clearing each column at most
        once however long the gap; returns how many ran."""
        if self._next_rotation is None:
            self._next_rotation = now + self.config.rotate_interval
            return 0
        interval = self.config.rotate_interval
        next_rotation = self._next_rotation
        ran = 0
        while now >= next_rotation:
            next_rotation += interval
            ran += 1
        if ran:
            self.rotate(ran)
            self._next_rotation = next_rotation
            self._expire_half_closed(now)
        return ran

    def _expire_half_closed(self, now: float) -> None:
        horizon = now - self.half_close_timeout
        stale = [key for key, stamp in self._half_closed.items() if stamp < horizon]
        for key in stale:
            del self._half_closed[key]

    # ------------------------------------------------------------------

    def decide(self, packet: Packet) -> Verdict:
        now = packet.timestamp
        self.advance_to(now)
        key = socket_key(packet.pair, packet.direction,
                         self.config.field_mode is FieldMode.HOLE_PUNCHING)

        if packet.direction is Direction.OUTBOUND:
            for column in self.columns:
                column.add(key)
            self.drop_controller.record_upload(now, packet.size)
            self._track_close(packet, key, now)
            return Verdict.PASS

        hit = key in self.columns[self.idx]
        if hit:
            self._track_close(packet, key, now)
            return Verdict.PASS
        probability = self.drop_controller.probability(now)
        if probability >= 1.0 or self._rng.random() < probability:
            return Verdict.DROP
        return Verdict.PASS

    def _track_close(self, packet: Packet, key: Tuple[int, ...], now: float) -> None:
        if packet.pair.protocol != IPPROTO_TCP:
            return
        if packet.is_rst:
            self._delete(key)
            self._half_closed.pop(key, None)
            return
        if packet.is_fin:
            if key in self._half_closed:
                del self._half_closed[key]
                self._delete(key)
            else:
                self._half_closed[key] = now

    def _delete(self, key: Tuple[int, ...]) -> None:
        """Remove the pair from every column.

        Each outbound packet of the flow incremented the counters, so one
        decrement per column leaves residue; decrement until the key stops
        testing positive in that column (bounded by the 15-saturation)."""
        for column in self.columns:
            for _ in range(16):
                if not column.remove(key):
                    break
        self.deleted_on_close += 1

    # ------------------------------------------------------------------

    @property
    def current_utilization(self) -> float:
        return self.columns[self.idx].utilization

    @property
    def memory_bytes(self) -> int:
        """4-bit counters: k · N/2 bytes (4× the plain bitmap)."""
        return sum(column.memory_bytes for column in self.columns)

    @property
    def half_closed_pairs(self) -> int:
        return len(self._half_closed)

    def reset(self) -> None:
        super().reset()
        for column in self.columns:
            column.clear()
        self.idx = 0
        self._next_rotation = None
        self._half_closed.clear()
        self.deleted_on_close = 0

    def snapshot(self) -> dict:
        """Column cells + counters, rotation clock, half-close table, RNG."""
        return {
            "kind": self.name,
            "config": {
                "size": self.config.size,
                "vectors": self.config.vectors,
                "hashes": self.config.hashes,
                "rotate_interval": self.config.rotate_interval,
                "field_mode": self.config.field_mode.value,
                "seed": self.config.seed,
            },
            "idx": self.idx,
            "next_rotation": self._next_rotation,
            "half_close_timeout": self.half_close_timeout,
            "deleted_on_close": self.deleted_on_close,
            "rng": rng_state(self._rng),
            "controller": self.drop_controller.snapshot(),
            "stats": self.stats.snapshot(),
            "columns": [
                {
                    "cells": list(column._cells),
                    "added": column.added,
                    "removed": column.removed,
                    "saturations": column.saturations,
                }
                for column in self.columns
            ],
            "half_closed": [
                [list(key), stamp] for key, stamp in self._half_closed.items()
            ],
        }

    @classmethod
    def restore(cls, snapshot: dict, clock: str = "resume") -> "CountingBitmapFilter":
        if snapshot.get("kind") not in (None, cls.name):
            raise ValueError(
                f"snapshot is for filter kind {snapshot['kind']!r}, not {cls.name!r}"
            )
        check_resume_clock(clock, cls.name)
        config_doc = snapshot["config"]
        filt = cls(
            config=BitmapFilterConfig(
                size=config_doc["size"],
                vectors=config_doc["vectors"],
                hashes=config_doc["hashes"],
                rotate_interval=config_doc["rotate_interval"],
                field_mode=FieldMode(config_doc["field_mode"]),
                seed=config_doc["seed"],
            ),
            half_close_timeout=snapshot["half_close_timeout"],
        )
        for column, column_doc in zip(filt.columns, snapshot["columns"]):
            column._cells[:] = bytearray(column_doc["cells"])
            column.added = column_doc["added"]
            column.removed = column_doc["removed"]
            column.saturations = column_doc["saturations"]
        filt.idx = snapshot["idx"]
        filt._next_rotation = snapshot["next_rotation"]
        filt.deleted_on_close = snapshot["deleted_on_close"]
        filt._rng = restore_rng_state(snapshot["rng"])
        filt.drop_controller = DropController.restore(snapshot["controller"])
        filt.stats = FilterStats.restore(snapshot["stats"])
        filt._half_closed = {
            tuple(key): stamp for key, stamp in snapshot["half_closed"]
        }
        return filt

"""Close-aware counting filter — an extension of the bitmap filter.

The bitmap filter expires entries purely by time (``T_e = k·Δt``).  But
TCP close signals (FIN/RST) are visible in packet headers — no payload
inspection — so an extension can *delete* a connection's entry the moment
it closes, cutting the filter's utilization (and therefore its
penetration probability, Equation 2) between rotations.

Design:

* The paper's rotating core (:class:`~repro.core.bitmap_filter.BitmapFilter`)
  over :class:`~repro.core.bitvector.CounterVector` columns of 4-bit
  cells: marks increment all columns, lookups test the current column,
  rotation clears the oldest, and the clock, hash memo, ``P_d`` coin and
  stats are the core's — only the cells differ from the paper's filter.
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

from repro.core.bitmap_filter import (
    BitmapFilter,
    BitmapFilterConfig,
    FieldMode,
    socket_key,
)
from repro.core.bitvector import CounterVector
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


class CountingCore(BitmapFilter):
    """The rotating bitmap core over 4-bit counter columns."""

    vector_type = CounterVector


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
        if half_close_timeout <= 0:
            raise ValueError(f"half_close_timeout must be positive: {half_close_timeout}")
        self.core = CountingCore(config, rng=rng)
        self.drop_controller = drop_controller or DropController.always_drop()
        #: Pairs that sent one FIN, awaiting the reverse FIN.
        self._half_closed: Dict[Tuple[int, ...], float] = {}
        self.half_close_timeout = half_close_timeout
        self.deleted_on_close = 0

    @property
    def config(self) -> BitmapFilterConfig:
        return self.core.config

    @property
    def columns(self) -> List[CounterVector]:
        return self.core.vectors

    # ------------------------------------------------------------------

    def advance_to(self, now: float) -> int:
        """Run the core's rotations due by ``now``, then age out stale
        half-closes; returns how many rotations ran."""
        ran = self.core.advance_to(now)
        if ran:
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
        core = self.core

        if packet.direction is Direction.OUTBOUND:
            core.mark_outbound(packet.pair)
            self.drop_controller.record_upload(now, packet.size)
            self._track_close(packet, now)
            return Verdict.PASS

        if core.lookup_inbound(packet.pair):
            self._track_close(packet, now)
            return Verdict.PASS
        # P_d is read on a miss only: the rate meter's lazy eviction on
        # each read shows in this filter's snapshot document.
        if core.drop(self.drop_controller.probability(now)):
            return Verdict.DROP
        return Verdict.PASS

    def _track_close(self, packet: Packet, now: float) -> None:
        if packet.pair.protocol != IPPROTO_TCP or not (packet.is_rst or packet.is_fin):
            return
        key = socket_key(packet.pair, packet.direction,
                         self.config.field_mode is FieldMode.HOLE_PUNCHING)
        if packet.is_rst:
            self._delete(key)
            self._half_closed.pop(key, None)
        elif key in self._half_closed:
            del self._half_closed[key]
            self._delete(key)
        else:
            self._half_closed[key] = now

    def _delete(self, key: Tuple[int, ...]) -> None:
        """Remove the pair from every column.

        Each outbound packet of the flow incremented the counters, so one
        decrement per column leaves residue; decrement until the key stops
        testing positive in that column (bounded by the 15-saturation)."""
        indices = self.core.hash_memo.get(key)
        for column in self.columns:
            for _ in range(16):
                if not column.remove_many(indices):
                    break
        self.deleted_on_close += 1

    # ------------------------------------------------------------------

    @property
    def current_utilization(self) -> float:
        return self.core.current_utilization

    @property
    def memory_bytes(self) -> int:
        """4-bit counters: k · N/2 bytes (4× the plain bitmap)."""
        return sum(column.memory_bytes for column in self.columns)

    @property
    def half_closed_pairs(self) -> int:
        return len(self._half_closed)

    def reset(self) -> None:
        super().reset()
        self.core.reset()
        self._half_closed.clear()
        self.deleted_on_close = 0

    def snapshot(self) -> dict:
        """Column cells + counters, rotation clock, half-close table, RNG."""
        core = self.core
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
            "idx": core.idx,
            "next_rotation": core._next_rotation,
            "half_close_timeout": self.half_close_timeout,
            "deleted_on_close": self.deleted_on_close,
            "rng": rng_state(core._rng),
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
        """Rebuild a filter from :meth:`snapshot` output.

        Resume-only: the half-close table holds absolute timestamps, so
        the rotation clock cannot be rebased onto a new one.  A document
        whose column count, cell count or index disagrees with its config
        is rejected before any state is built.
        """
        if snapshot.get("kind") not in (None, cls.name):
            raise ValueError(
                f"snapshot is for filter kind {snapshot['kind']!r}, not {cls.name!r}"
            )
        check_resume_clock(clock, cls.name)
        config_doc = snapshot["config"]
        config = BitmapFilterConfig(
            size=config_doc["size"],
            vectors=config_doc["vectors"],
            hashes=config_doc["hashes"],
            rotate_interval=config_doc["rotate_interval"],
            field_mode=FieldMode(config_doc["field_mode"]),
            seed=config_doc["seed"],
        )
        columns = snapshot["columns"]
        if len(columns) != config.vectors:
            raise ValueError(
                f"snapshot columns: {len(columns)} columns, config says "
                f"{config.vectors}"
            )
        cell_bytes = config.size // 2
        for position, column_doc in enumerate(columns):
            if len(column_doc["cells"]) != cell_bytes:
                raise ValueError(
                    f"snapshot cells of column {position}: "
                    f"{len(column_doc['cells'])} bytes, expected {cell_bytes}"
                )
        if not 0 <= snapshot["idx"] < config.vectors:
            raise ValueError(f"snapshot idx out of range: {snapshot['idx']}")
        filt = cls(config=config, half_close_timeout=snapshot["half_close_timeout"])
        core = filt.core
        for column, column_doc in zip(filt.columns, columns):
            column._cells[:] = bytearray(column_doc["cells"])
            column.added = column_doc["added"]
            column.removed = column_doc["removed"]
            column.saturations = column_doc["saturations"]
        core.idx = snapshot["idx"]
        core._next_rotation = snapshot["next_rotation"]
        core._rng = restore_rng_state(snapshot["rng"])
        filt.deleted_on_close = snapshot["deleted_on_close"]
        filt.drop_controller = DropController.restore(snapshot["controller"])
        filt.stats = FilterStats.restore(snapshot["stats"])
        filt._half_closed = {
            tuple(key): stamp for key, stamp in snapshot["half_closed"]
        }
        return filt

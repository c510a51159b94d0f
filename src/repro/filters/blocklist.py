"""Blocked-connection persistence for trace replay (section 5.3).

"To simulate a blocked connection, when an inbound packet is decided to be
dropped by the bitmap filter, the socket pair σ of that packet is stored
and all the future packets that match any stored σ or σ̄ are all dropped
without checking the bitmap."

This models what happens in a live network — a dropped connection attempt
never establishes, so none of its later packets exist — which a passive
replay cannot otherwise express.  Entries age out after ``retention``
seconds so a peer retrying much later is treated as a fresh attempt.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.net.packet import Packet, SocketPair


class BlockedConnectionStore:
    """Remembers dropped connections so their later packets stay dropped."""

    def __init__(self, retention: Optional[float] = 3600.0, gc_interval: float = 300.0):
        if retention is not None and retention <= 0:
            raise ValueError(f"retention must be positive or None: {retention}")
        self.retention = retention
        self._blocked: Dict[SocketPair, float] = {}
        self._gc_interval = gc_interval
        self._next_gc: Optional[float] = None
        self.suppressed_packets = 0
        self.suppressed_bytes = 0

    def __len__(self) -> int:
        return len(self._blocked)

    def block(self, pair: SocketPair, now: float) -> None:
        """Record a dropped connection (stored under its canonical form so
        σ and σ̄ both match)."""
        self._blocked[pair.canonical] = now

    def _expired(self, stamped: float, now: float) -> bool:
        """The one expiry predicate: lookups, the batched gate, interior
        GC and :meth:`compact` all use it, so a verdict never depends on
        whether GC happened to run first."""
        return self.retention is not None and now - stamped > self.retention

    def is_blocked(self, pair: SocketPair, now: float) -> bool:
        stamped = self._blocked.get(pair.canonical)
        if stamped is None:
            return False
        if self._expired(stamped, now):
            del self._blocked[pair.canonical]
            return False
        return True

    def suppress(self, packet: Packet) -> bool:
        """True when the packet belongs to a blocked connection; accounts
        it and refreshes the block timestamp (an active retry keeps the
        connection blocked)."""
        return self.suppress_fields(packet.pair, packet.timestamp, packet.size)

    def suppress_fields(self, pair: SocketPair, now: float, size: int) -> bool:
        """Field-wise :meth:`suppress` — the columnar replay path carries
        (pair, timestamp, size) as separate columns and never builds a
        :class:`Packet` just to ask this question."""
        self._maybe_gc(now)
        if not self.is_blocked(pair, now):
            return False
        self._blocked[pair.canonical] = now
        self.suppressed_packets += 1
        self.suppressed_bytes += size
        return True

    def gate(
        self, pairs: Sequence[SocketPair], rows: Iterable[tuple]
    ) -> Tuple[Iterator[tuple], Callable[[int, float], None]]:
        """The batched :meth:`suppress`: the rows a filter may see, and
        its block hook.

        ``rows`` are a table's ``(position, timestamp, size, outbound,
        pair_id, flags)`` tuples and ``pairs`` its interned pair pool.
        The generator applies to each row what :meth:`suppress` applies
        to each packet — the GC clock, retention expiry, the stamp
        refresh and the suppression counters — and yields only the rows
        of connections not blocked.  ``block(pair_id, now)`` is
        :meth:`block` by pool id, for the filter's inbound drops.  The
        filter consumes the generator row by row, so a drop blocks its
        connection's later rows in time, exactly as the per-packet loop
        does.  Canonical pairs are computed once per interned flow.
        """
        blocked = self._blocked
        canonical: List[Optional[SocketPair]] = [None] * len(pairs)

        def block(pid: int, now: float) -> None:
            key = canonical[pid]
            if key is None:
                key = canonical[pid] = pairs[pid].canonical
            blocked[key] = now

        def admitted() -> Iterator[tuple]:
            # The GC clock as one float compare per row: -inf anchors it
            # on the first row, +inf (no retention) never fires.
            if self.retention is None:
                next_gc = math.inf
            else:
                next_gc = -math.inf if self._next_gc is None else self._next_gc
            for row in rows:
                now = row[1]
                if now >= next_gc:
                    self._maybe_gc(now)
                    next_gc = self._next_gc
                pid = row[4]
                key = canonical[pid]
                if key is None:
                    key = canonical[pid] = pairs[pid].canonical
                stamped = blocked.get(key)
                if stamped is not None:
                    if self._expired(stamped, now):
                        del blocked[key]
                    else:
                        blocked[key] = now
                        self.suppressed_packets += 1
                        self.suppressed_bytes += row[2]
                        continue
                yield row

        return admitted(), block

    def _maybe_gc(self, now: float) -> None:
        if self.retention is None:
            return
        if self._next_gc is None:
            self._next_gc = now + self._gc_interval
            return
        if now < self._next_gc:
            return
        self._next_gc = now + self._gc_interval
        self.compact(now)

    def compact(self, now: float) -> None:
        """Drop every entry already outside ``retention`` as of ``now``.

        Interior GC runs opportunistically (every ``gc_interval`` of
        *observed* packet time), so which expired entries still linger in
        the table depends on the store's packet arrival pattern — e.g. a
        partitioned replay's per-lane stores GC on their own lanes'
        clocks.  Expiry itself is per-connection (``is_blocked`` checks
        each pair's own stamp), so verdicts never depend on GC timing;
        compacting at end of replay makes the *final table contents*
        deterministic too: exactly the entries still within retention.
        """
        if self.retention is None:
            return
        stale = [
            pair for pair, stamped in self._blocked.items()
            if self._expired(stamped, now)
        ]
        for pair in stale:
            del self._blocked[pair]

    def entries(self) -> Dict[SocketPair, float]:
        """A copy of the blocked rows: canonical pair → last stamp."""
        return dict(self._blocked)

    def absorb(
        self,
        entries: Dict[SocketPair, float],
        suppressed_packets: int = 0,
        suppressed_bytes: int = 0,
    ) -> None:
        """Union another store's :meth:`entries` and counters into this
        one — partitioned lanes own disjoint connections, so the union
        is a plain update."""
        self._blocked.update(entries)
        self.suppressed_packets += suppressed_packets
        self.suppressed_bytes += suppressed_bytes

    def clear(self) -> None:
        self._blocked.clear()
        self.suppressed_packets = 0
        self.suppressed_bytes = 0
        self._next_gc = None

    def snapshot(self) -> dict:
        """Serializable store state (entries + counters + GC clock).

        Entries travel as flat ``[protocol, src_addr, src_port, dst_addr,
        dst_port, stamp]`` rows — plain JSON-safe data.  A restored store
        keeps refusing exactly the connections the snapshotted one did,
        which is what makes a service warm restart verdict-identical:
        a blocked σ forgotten across the restart would get a fresh trip
        through the filter.
        """
        return {
            "retention": self.retention,
            "gc_interval": self._gc_interval,
            "next_gc": self._next_gc,
            "suppressed_packets": self.suppressed_packets,
            "suppressed_bytes": self.suppressed_bytes,
            "blocked": [
                [*pair, stamp] for pair, stamp in self._blocked.items()
            ],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "BlockedConnectionStore":
        """Rebuild a store from :meth:`snapshot` output."""
        store = cls(
            retention=snapshot["retention"],
            gc_interval=snapshot["gc_interval"],
        )
        store._next_gc = snapshot["next_gc"]
        store.suppressed_packets = snapshot["suppressed_packets"]
        store.suppressed_bytes = snapshot["suppressed_bytes"]
        for protocol, src_addr, src_port, dst_addr, dst_port, stamp in snapshot[
            "blocked"
        ]:
            store._blocked[
                SocketPair(protocol, src_addr, src_port, dst_addr, dst_port)
            ] = stamp
        return store

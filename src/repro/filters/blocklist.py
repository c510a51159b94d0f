"""Blocked-connection persistence for trace replay (section 5.3).

"To simulate a blocked connection, when an inbound packet is decided to be
dropped by the bitmap filter, the socket pair σ of that packet is stored
and all the future packets that match any stored σ or σ̄ are all dropped
without checking the bitmap."

This models what happens in a live network — a dropped connection attempt
never establishes, so none of its later packets exist — which a passive
replay cannot otherwise express.  Entries age out after ``retention``
seconds so a peer retrying much later is treated as a fresh attempt.

The per-packet path asks :meth:`BlockedConnectionStore.suppress` of every
packet.  At an edge router that question sits on every packet's path and
is answered "no" for nearly all of them, so the batched path asks it only
of the rows that can say "yes": :meth:`BlockedConnectionStore.gate` gives
a table's batch function the set of its flows that may be suppressed —
those in the store when the table starts and those blocked during it,
with their σ̄ twins — and one suppression call for their rows.  It
reads each of the table's flows once, into a table-local pair → id map,
and flags them by walking the smaller of the store and that map, so
its work follows the table and the store, never the pool.  The GC
clock, the one other per-packet step, fires at rows that depend only on
the timestamps (:meth:`BlockedConnectionStore.gc_rows`), so the router
splits its table there and compacts between the pieces
(:meth:`BlockedConnectionStore.collect`).
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from operator import le, rshift
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.packet import Packet, SocketPair
from repro.net.table import _numpy


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
        self, table
    ) -> Tuple[Set[int], Callable[[int, float, int], bool], Callable[[int, float], None]]:
        """The batched :meth:`suppress` for one
        :class:`~repro.net.table.PacketTable`: ``(flagged, suppress,
        block)``.

        ``flagged`` is the set of the table's pair ids that may be
        suppressed: those whose canonical σ is in the store now, expired
        or not, and every pair a filter blocks through ``block(pair_id,
        now)`` (:meth:`block` by pool id) together with its σ̄ twin in the
        same table.  A batch function tests ``pair_id in flagged`` first
        on each row and calls ``suppress(pair_id, now, size)`` for a
        flagged one: it applies what :meth:`suppress` applies to a packet
        — retention expiry, the stamp refresh and the suppression
        counters — and returns True when the row is suppressed.  A flow
        whose entry is gone or has just expired leaves ``flagged``.  No
        other row touches the store, and a drop flags its connection's
        later rows in time, exactly as the per-packet loop blocks them.

        The GC clock is not applied here: :meth:`gc_rows` finds the rows
        where it fires and the caller gates each piece between them.
        When the store holds entries at table start, or at the first
        block, the table's distinct flows
        (:meth:`~repro.net.table.PacketTable.flow_slots`) are read from
        the pool once each into a pair → id map, so nothing is sized by
        the pool.  Flows are flagged by walking the smaller side: each
        entry's σ and σ̄ looked up in the map, or each flow's canonical
        pair looked up in the store.  Canonical pairs are kept only for
        flagged flows, and a block finds the σ̄ twin with one map lookup.
        """
        blocked = self._blocked
        pairs = table.pairs
        #: Pair id → pair and pair → pair id, for every flow of the table
        #: once indexed; ``aliases`` holds every id of a pair the pool
        #: interns more than once, under the id ``ids`` maps it to.
        flows: Dict[int, SocketPair] = {}
        ids: Dict[SocketPair, int] = {}
        aliases: Dict[int, List[int]] = {}
        #: Pair id → canonical σ, for the flagged flows.
        canonical: Dict[int, SocketPair] = {}
        flagged: Set[int] = set()

        def index() -> None:
            pids = set(map(rshift, table.flow_slots(), repeat(1)))
            flows.update(zip(pids, map(pairs.__getitem__, pids)))
            ids.update(zip(flows.values(), flows))
            if len(ids) < len(flows):
                for pid, pair in flows.items():
                    first = ids[pair]
                    if first != pid:
                        aliases.setdefault(first, [first]).append(pid)

        def flag(pair: SocketPair, key: SocketPair) -> None:
            first = ids.get(pair)
            if first is not None:
                for pid in aliases.get(first, (first,)):
                    flagged.add(pid)
                    canonical[pid] = key

        # An empty store flags nothing: the index waits for a first block.
        if blocked:
            index()
            if len(blocked) < len(ids):
                for key in blocked:
                    flag(key, key)
                    flag(key.inverse, key)
            else:
                for pair in ids:
                    key = pair.canonical
                    if key in blocked:
                        flag(pair, key)

        def suppress(pid: int, now: float, size: int) -> bool:
            key = canonical[pid]
            stamped = blocked.get(key)
            if stamped is not None:
                if not self._expired(stamped, now):
                    blocked[key] = now
                    self.suppressed_packets += 1
                    self.suppressed_bytes += size
                    return True
                del blocked[key]
            flagged.discard(pid)
            return False

        def block(pid: int, now: float) -> None:
            if not flows:
                index()
            pair = flows[pid]
            key = pair.canonical
            blocked[key] = now
            flag(pair, key)
            flag(key.inverse if key is pair else key, key)  # σ̄

        return flagged, suppress, block

    def gc_rows(self, timestamps: Sequence[float]) -> List[int]:
        """The positions in a table's ``timestamps`` column at which
        :meth:`suppress`'s GC clock fires, in order; anchors an unanchored
        clock on the first row, as :meth:`suppress` does.

        A row fires when its timestamp reaches the clock's next deadline,
        which then moves to that timestamp plus ``gc_interval``, so the
        firing rows depend on nothing but the timestamps and the clock.
        The batched router splits its table there and calls
        :meth:`collect` with each firing row's timestamp before gating
        the piece that row opens, which is when the per-packet path
        compacts.  Nothing here runs per row in Python.
        """
        if self.retention is None or not len(timestamps):
            return []
        start = 0
        if self._next_gc is None:
            self._next_gc = timestamps[0] + self._gc_interval
            start = 1
        deadline = self._next_gc
        np = _numpy() if len(timestamps) > 64 else None
        if np is not None:
            column = np.frombuffer(timestamps, dtype=np.float64)
        elif max(timestamps) < deadline:
            return []
        rows: List[int] = []
        while start < len(timestamps):
            if np is not None:
                reached = column[start:] >= deadline
                if not reached.any():
                    break
                position = start + int(reached.argmax())
            else:
                position = next(compress(
                    count(start),
                    map(le, repeat(deadline), islice(timestamps, start, None)),
                ), None)
                if position is None:
                    break
            rows.append(position)
            deadline = timestamps[position] + self._gc_interval
            start = position + 1
        return rows

    def collect(self, now: float) -> None:
        """The GC clock firing at ``now``: move its deadline and compact."""
        self._next_gc = now + self._gc_interval
        self.compact(now)

    def _maybe_gc(self, now: float) -> None:
        if self.retention is None:
            return
        if self._next_gc is None:
            self._next_gc = now + self._gc_interval
            return
        if now >= self._next_gc:
            self.collect(now)

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

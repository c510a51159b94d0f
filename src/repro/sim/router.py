"""The edge router: filter + blocked-connection persistence + accounting.

The section 5.3 replay methodology: a packet first checks the blocked-σ
store (a connection once refused stays refused); surviving packets go to
the filter; inbound drops register the connection as blocked.  Offered
and passed traffic feed the throughput series, inbound verdicts the drop
windows.

:meth:`EdgeRouter.forward` runs one packet — the reference path.
:meth:`EdgeRouter.process_table` is the one batched path: the blocked-σ
gate, the filter's fused batch function (:mod:`repro.sim.kernels`) and
one accounting pass over the whole table.

Both paths account through the same three steps: the series and drop
windows (:func:`~repro.sim.metrics.record_rows`), the filter's counters
(:meth:`FilterStats.account_rows`) and the owner's count step (the
pipeline's inbound, drop and fingerprint counters).  A table is
accounted once, when its verdicts are in; ``forward`` only appends
``(timestamp, size, outbound, code)`` to four row columns, which the
router folds through those steps every :data:`FOLD_ROWS` rows and
before anything reads what they fill.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional

from repro.filters.base import CODE_DROP, CODE_PASS, CODE_UNSEEN, PacketFilter, Verdict
from repro.filters.blocklist import BlockedConnectionStore
from repro.net.packet import Direction, Packet
from repro.sim.kernels import kernel_for, table_rows
from repro.sim.metrics import DropRateSampler, ThroughputSeries, record_rows

#: Per-packet rows the router holds before it folds them.
FOLD_ROWS = 4096


class EdgeRouter:
    """One deployment point of Figure 6, as replayable code.

    ``filter``, ``offered``, ``passed``, ``inbound_drops``, ``packets``
    and ``drop_rate`` fold the pending per-packet rows first, so they
    always read exact; so do :meth:`snapshot`, :meth:`restore_state`,
    :meth:`merge_lane` and :meth:`process_table`.  A caller that holds
    the filter itself reads its ``stats`` exact after :meth:`fold`.

    ``count(timestamps, outbound, codes)``, when given, is a bound
    method of the router's owner, called as its share of every
    accounting step (a :class:`~repro.sim.pipeline.ReplayPipeline`
    counts inbound drops and folds the verdict fingerprint there).  It
    is held weakly: the owner holds the router, and a reference cycle
    would keep every replayed filter alive until the cyclic GC ran.
    """

    def __init__(
        self,
        packet_filter: PacketFilter,
        blocklist: Optional[BlockedConnectionStore] = None,
        throughput_interval: float = 1.0,
        drop_window: float = 10.0,
        count: Optional[Callable[..., None]] = None,
    ) -> None:
        self._filter = packet_filter
        self.blocklist = blocklist
        self._passed = ThroughputSeries(interval=throughput_interval)
        self._offered = ThroughputSeries(interval=throughput_interval)
        self._inbound_drops = DropRateSampler(window=drop_window)
        self._packets = 0
        self._count = weakref.WeakMethod(count) if count is not None else None
        # The row columns.  ``forward`` appends the code last, so
        # ``len(self._codes)`` rows are complete in all four.
        self._times = []
        self._sizes = []
        self._outbound = bytearray()
        self._codes = bytearray()
        # A service's control thread reads the accessors while a worker
        # thread feeds the router: one fold at a time.
        self._fold_lock = threading.Lock()

    def forward(self, packet: Packet) -> Verdict:
        """Run one packet through the router; returns the final verdict."""
        direction = packet.direction
        if direction is None:
            raise ValueError("packet has no direction set")
        blocklist = self.blocklist
        if blocklist is not None and blocklist.suppress(packet):
            verdict, code = Verdict.DROP, CODE_UNSEEN
        else:
            verdict = self._filter.decide(packet)
            if verdict is Verdict.PASS:
                code = CODE_PASS
            else:
                code = CODE_DROP
                if blocklist is not None and direction is Direction.INBOUND:
                    blocklist.block(packet.pair, packet.timestamp)
        self._times.append(packet.timestamp)
        self._sizes.append(packet.size)
        self._outbound.append(direction is Direction.OUTBOUND)
        codes = self._codes
        codes.append(code)
        if len(codes) >= FOLD_ROWS:
            self.fold()
        return verdict

    def fold(self) -> None:
        """Account the rows :meth:`forward` appended since the last fold."""
        with self._fold_lock:
            rows = len(self._codes)
            if not rows:
                return
            # Take exactly the complete rows: a forward on another thread
            # may be appending the next one.
            columns = (self._times, self._sizes, self._outbound, self._codes)
            pending = [column[:rows] for column in columns]
            for column in columns:
                del column[:rows]
            self._account(*pending)

    def _account(self, timestamps, sizes, outbound, codes) -> None:
        """The one accounting step of both paths (callers hold the fold
        lock): series and drop windows, filter counters, the packet
        count and the owner's count step."""
        record_rows(self._offered, self._passed, self._inbound_drops,
                    timestamps, sizes, outbound, codes)
        self._filter.stats.account_rows(sizes, outbound, codes)
        self._packets += len(codes)
        count = self._count() if self._count is not None else None
        if count is not None:
            count(timestamps, outbound, codes)

    def process_table(self, table) -> bytearray:
        """Run a timestamp-ordered :class:`~repro.net.table.PacketTable`
        through the router; returns one verdict code per row.

        Bit-identical to ``[self.forward(view) for view in
        table.iter_views()]``, which is what filters without a registered
        batch function run.  The codes are
        :data:`~repro.filters.base.CODE_PASS` for a pass and
        :data:`~repro.filters.base.CODE_DROP` or
        :data:`~repro.filters.base.CODE_UNSEEN` (suppressed by the
        blocked-σ gate) for a drop.  Pending per-packet rows fold first,
        so every count keeps stream order.  Registered filters take three
        steps:

        1. the blocked-σ gate (:meth:`BlockedConnectionStore.gate`) yields
           the rows the filter may see and supplies its ``block`` hook;
        2. the filter's batch function writes one verdict code per row it
           sees — it consumes the gate row by row, so a drop blocks its
           connection's later rows in time;
        3. one accounting pass over the table's columns, the step every
           fold runs too.
        """
        self.fold()
        flt = self._filter
        blocklist = self.blocklist
        kernel = kernel_for(flt, gated=blocklist is not None)
        if kernel is None:
            forward, PASS = self.forward, Verdict.PASS
            return bytearray(forward(view) is PASS for view in table.iter_views())
        total = len(table)
        if not total:
            return bytearray()
        codes = bytearray((CODE_UNSEEN,)) * total
        rows = table_rows(table)
        block = None
        if blocklist is not None:
            rows, block = blocklist.gate(table.pairs, rows)
        kernel(flt, table, rows, codes, block)
        with self._fold_lock:
            self._account(table.timestamps, table.sizes, table.outbound, codes)
        return codes

    # ------------------------------------------------------------------
    # Folding accessors
    # ------------------------------------------------------------------

    @property
    def filter(self) -> PacketFilter:
        self.fold()
        return self._filter

    @property
    def offered(self) -> ThroughputSeries:
        """Bytes presented to the router, per direction and interval."""
        self.fold()
        return self._offered

    @property
    def passed(self) -> ThroughputSeries:
        """Bytes the router let through, per direction and interval."""
        self.fold()
        return self._passed

    @property
    def inbound_drops(self) -> DropRateSampler:
        """Inbound verdicts per drop window."""
        self.fold()
        return self._inbound_drops

    @property
    def packets(self) -> int:
        """Packets the router has adjudicated."""
        self.fold()
        return self._packets

    @property
    def drop_rate(self) -> float:
        """Overall inbound drop rate including blocklist suppressions."""
        return self.inbound_drops.overall_drop_rate()

    def merge_lane(self, lane) -> "EdgeRouter":
        """Fold one partitioned-replay lane's measurements into this router.

        ``lane`` is anything exposing ``offered``/``passed`` series, an
        ``inbound_drops`` sampler and a ``packets`` count — a
        :class:`repro.sim.parallel.LaneResult` or another router/result.
        Series bins and drop windows are keyed by absolute trace time, so
        merging per-lane records reproduces exactly the measurements one
        interleaved replay would have collected.
        """
        self.fold()
        self._offered.merge(lane.offered)
        self._passed.merge(lane.passed)
        self._inbound_drops.merge(lane.inbound_drops)
        self._packets += lane.packets
        return self

    # ------------------------------------------------------------------
    # Persistence — the service plane's warm-restart coverage
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable router measurement lanes + blocklist.

        Covers everything the router owns *except the filter* (which has
        its own snapshot with deeper state — bits, RNG, estimator): the
        offered/passed throughput lanes, the inbound drop-rate windows,
        the packet counter and the blocked-σ store.  Restoring this over
        a fresh router makes a resumed service's telemetry continue the
        same series an uninterrupted run would have produced.
        """
        self.fold()
        return {
            "packets": self._packets,
            "offered": self._offered.snapshot(),
            "passed": self._passed.snapshot(),
            "inbound_drops": self._inbound_drops.snapshot(),
            "blocklist": (
                self.blocklist.snapshot() if self.blocklist is not None else None
            ),
        }

    def restore_state(self, snapshot: dict) -> "EdgeRouter":
        """Overwrite this router's measurement lanes and blocklist with a
        :meth:`snapshot`'s contents (the filter is untouched — restore it
        separately).  Returns ``self``."""
        self.fold()
        self._packets = snapshot["packets"]
        self._offered = ThroughputSeries.restore(snapshot["offered"])
        self._passed = ThroughputSeries.restore(snapshot["passed"])
        self._inbound_drops = DropRateSampler.restore(snapshot["inbound_drops"])
        blocked = snapshot["blocklist"]
        if blocked is not None:
            self.blocklist = BlockedConnectionStore.restore(blocked)
        elif self.blocklist is not None:
            # The snapshot ran without a blocklist; a restored service
            # must not invent one (suppression would diverge).
            self.blocklist = None
        return self

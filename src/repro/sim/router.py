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
"""

from __future__ import annotations

from typing import Optional

from repro.filters.base import CODE_UNSEEN, PacketFilter, Verdict
from repro.filters.blocklist import BlockedConnectionStore
from repro.net.packet import Direction, Packet
from repro.sim.kernels import kernel_for, table_rows
from repro.sim.metrics import DropRateSampler, ThroughputSeries, record_rows


class EdgeRouter:
    """One deployment point of Figure 6, as replayable code."""

    def __init__(
        self,
        packet_filter: PacketFilter,
        blocklist: Optional[BlockedConnectionStore] = None,
        throughput_interval: float = 1.0,
        drop_window: float = 10.0,
    ) -> None:
        self.filter = packet_filter
        self.blocklist = blocklist
        self.passed = ThroughputSeries(interval=throughput_interval)
        self.offered = ThroughputSeries(interval=throughput_interval)
        self.inbound_drops = DropRateSampler(window=drop_window)
        self.packets = 0

    def forward(self, packet: Packet) -> Verdict:
        """Run one packet through the router; returns the final verdict."""
        direction = packet.direction
        if direction is None:
            raise ValueError("packet has no direction set")
        self.packets += 1
        self.offered.record(packet)
        inbound = direction is Direction.INBOUND
        blocklist = self.blocklist

        if blocklist is not None and blocklist.suppress(packet):
            if inbound:
                self.inbound_drops.record(packet.timestamp, dropped=True)
            return Verdict.DROP

        verdict = self.filter.process(packet)
        if verdict is Verdict.PASS:
            self.passed.record(packet)
            if inbound:
                self.inbound_drops.record(packet.timestamp, False)
        elif inbound:
            self.inbound_drops.record(packet.timestamp, True)
            if blocklist is not None:
                blocklist.block(packet.pair, packet.timestamp)
        return verdict

    def process_table(self, table) -> bytearray:
        """Run a timestamp-ordered :class:`~repro.net.table.PacketTable`
        through the router; returns one verdict code per row.

        Bit-identical to ``[self.forward(view) for view in
        table.iter_views()]``, which is what filters without a registered
        batch function run.  The codes are
        :data:`~repro.filters.base.CODE_PASS` for a pass and
        :data:`~repro.filters.base.CODE_DROP` or
        :data:`~repro.filters.base.CODE_UNSEEN` (suppressed by the
        blocked-σ gate) for a drop.  Registered filters take three steps:

        1. the blocked-σ gate (:meth:`BlockedConnectionStore.gate`) yields
           the rows the filter may see and supplies its ``block`` hook;
        2. the filter's batch function writes one verdict code per row it
           sees — it consumes the gate row by row, so a drop blocks its
           connection's later rows in time;
        3. one accounting pass: :func:`~repro.sim.metrics.record_rows`
           bins the series and drop windows, and
           :meth:`FilterStats.account_rows` counts the rows the filter
           saw — both order-independent sums.
        """
        flt = self.filter
        blocklist = self.blocklist
        kernel = kernel_for(flt, gated=blocklist is not None)
        if kernel is None:
            forward, PASS = self.forward, Verdict.PASS
            return bytearray(forward(view) is PASS for view in table.iter_views())
        total = len(table)
        self.packets += total
        if not total:
            return bytearray()
        codes = bytearray((CODE_UNSEEN,)) * total
        rows = table_rows(table)
        block = None
        if blocklist is not None:
            rows, block = blocklist.gate(table.pairs, rows)
        kernel(flt, table, rows, codes, block)
        record_rows(self.offered, self.passed, self.inbound_drops,
                    table.timestamps, table.sizes, table.outbound, codes)
        flt.stats.account_rows(table.sizes, table.outbound, codes)
        return codes

    def merge_lane(self, lane) -> "EdgeRouter":
        """Fold one partitioned-replay lane's measurements into this router.

        ``lane`` is anything exposing ``offered``/``passed`` series, an
        ``inbound_drops`` sampler and a ``packets`` count — a
        :class:`repro.sim.parallel.LaneResult` or another router/result.
        Series bins and drop windows are keyed by absolute trace time, so
        merging per-lane records reproduces exactly the measurements one
        interleaved replay would have collected.
        """
        self.offered.merge(lane.offered)
        self.passed.merge(lane.passed)
        self.inbound_drops.merge(lane.inbound_drops)
        self.packets += lane.packets
        return self

    @property
    def drop_rate(self) -> float:
        """Overall inbound drop rate including blocklist suppressions."""
        return self.inbound_drops.overall_drop_rate()

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
        return {
            "packets": self.packets,
            "offered": self.offered.snapshot(),
            "passed": self.passed.snapshot(),
            "inbound_drops": self.inbound_drops.snapshot(),
            "blocklist": (
                self.blocklist.snapshot() if self.blocklist is not None else None
            ),
        }

    def restore_state(self, snapshot: dict) -> "EdgeRouter":
        """Overwrite this router's measurement lanes and blocklist with a
        :meth:`snapshot`'s contents (the filter is untouched — restore it
        separately).  Returns ``self``."""
        self.packets = snapshot["packets"]
        self.offered = ThroughputSeries.restore(snapshot["offered"])
        self.passed = ThroughputSeries.restore(snapshot["passed"])
        self.inbound_drops = DropRateSampler.restore(snapshot["inbound_drops"])
        blocked = snapshot["blocklist"]
        if blocked is not None:
            self.blocklist = BlockedConnectionStore.restore(blocked)
        elif self.blocklist is not None:
            # The snapshot ran without a blocklist; a restored service
            # must not invent one (suppression would diverge).
            self.blocklist = None
        return self

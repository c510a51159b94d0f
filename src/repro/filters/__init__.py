"""Packet filters under a common interface.

Three filters implement the paper's positive-listing idea at different
cost/fidelity points:

* :class:`SPIFilter` — exact per-flow state (the Linux-conntrack-style
  baseline of sections 2 and 5.3); O(flows) memory.
* :class:`NaiveTimerFilter` — the section 4.2 "naïve solution": a per-
  socket-pair countdown timer; exact, O(pairs) memory.
* :class:`BitmapPacketFilter` — the paper's contribution; constant memory.

All consume :class:`repro.net.packet.Packet` objects with directions set
and return a :class:`Verdict`.  :class:`FilterSpec` is the one value the
command line, the fleet and the swarm bench build their filters from.
"""

from repro.filters.base import (
    AcceptAllFilter,
    FilterStats,
    PacketFilter,
    SnapshotUnsupported,
    Verdict,
)
from repro.filters.spi import SPIFilter
from repro.filters.naive import NaiveTimerFilter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spec import FilterSpec

#: Snapshot ``kind`` tag → restoring filter class.
_SNAPSHOT_KINDS = {
    BitmapPacketFilter.name: BitmapPacketFilter,
    SPIFilter.name: SPIFilter,
    CountingBitmapFilter.name: CountingBitmapFilter,
    TokenBucketFilter.name: TokenBucketFilter,
    RedPolicerFilter.name: RedPolicerFilter,
    FilterChain.name: FilterChain,
}


def restore_filter(snapshot: dict, clock: str = "resume") -> PacketFilter:
    """Rebuild any snapshot-capable filter from its ``snapshot()`` output.

    Dispatches on the snapshot's ``kind`` tag.  Untagged snapshots are
    bitmap-filter state from before tagging existed.  ``clock`` passes
    through to the filter's ``restore`` — only the bitmap filter accepts
    anything other than ``"resume"``.
    """
    kind = snapshot.get("kind")
    if kind is None:
        return BitmapPacketFilter.restore(snapshot, clock=clock)
    if kind == "sharded":
        # Imported on demand: the sharded filter sits on top of the
        # repro.shard plan layer, which this package init stays below.
        from repro.filters.sharded import ShardedFilter

        return ShardedFilter.restore(snapshot, clock=clock)
    filter_cls = _SNAPSHOT_KINDS.get(kind)
    if filter_cls is None:
        raise ValueError(f"unknown filter snapshot kind {kind!r}")
    return filter_cls.restore(snapshot, clock=clock)


__all__ = [
    "Verdict",
    "FilterStats",
    "PacketFilter",
    "AcceptAllFilter",
    "SnapshotUnsupported",
    "SPIFilter",
    "NaiveTimerFilter",
    "BitmapPacketFilter",
    "CountingBitmapFilter",
    "TokenBucketFilter",
    "RedPolicerFilter",
    "BlockedConnectionStore",
    "FilterChain",
    "FilterSpec",
    "restore_filter",
]

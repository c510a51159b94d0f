"""Fleet plane: a supervision layer over shard daemons.

One :class:`FleetSupervisor` owns N :class:`~repro.fleet.daemon.ShardDaemon`
subprocesses — each a full ``repro serve`` filter service listening on a
unix feed socket and a unix control socket — plus the shard plan that
partitions the packet stream between them.  The supervisor launches,
pings and stops the whole fleet as one daemon handle does one shard.

The fleet reproduces the offline partitioned replay exactly: per-lane
verdict fingerprints combine through
:func:`~repro.shard.lifecycle.combine_lane_fingerprints` into the same
value ``parallel_replay(..., workers=1, record_fingerprint=True)``
computes, and the merged blocklist is the union of the per-shard stores
compacted at the fleet's trace end — bit-identical even across shard
crashes, restarts-from-snapshot, and rolling restarts.
"""

from repro.fleet.daemon import FleetError, ShardDaemon
from repro.fleet.supervisor import FleetResult, FleetSupervisor, offline_reference

__all__ = [
    "FleetError",
    "FleetResult",
    "FleetSupervisor",
    "ShardDaemon",
    "offline_reference",
]

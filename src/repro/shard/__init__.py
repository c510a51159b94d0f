"""Shared shard layer: one partition/spawn/merge stack.

Three shard-shaped mechanisms grew up independently in this codebase —
:class:`~repro.filters.sharded.ShardedFilter` lanes (in-process
per-subnet member filters), :mod:`repro.sim.parallel` workers (one
process per lane) and :class:`~repro.service.service.FilterService`
daemons (long-lived shards under a fleet supervisor).  They all answer
the same questions:

* **Which lane owns a packet?** — :mod:`repro.shard.plan`:
  :class:`ShardPlan` keys the client-address space onto N lanes, either
  by an ordered subnet table (:class:`SubnetShardPlan`, the Figure 6
  core-router placement) or by consistent-hashing client subnets onto a
  ring (:class:`HashShardPlan`, the ISP-scale fleet keying), and
  partitions packet lists and columnar tables into per-lane sub-streams.
* **Where do lanes run?** — in-process, in the multiprocess
  :class:`WorkerPool` of :mod:`repro.shard.lifecycle`, or in the
  shard-daemon subprocesses of :mod:`repro.fleet`.
* **How do lane results merge back?** — :func:`fold_lane_record` for
  filter statistics, the metrics ``merge()`` layer for series/windows,
  and :func:`combine_lane_fingerprints` for lane-keyed verdict
  fingerprints (the quantity a fleet aggregates and an offline
  partitioned replay reproduces bit for bit).

:mod:`repro.fleet` builds the N-daemon supervisor on top of this layer.
"""

from repro.shard.lifecycle import (
    DefaultLaneFilter,
    WorkerPool,
    combine_lane_fingerprints,
    fold_lane_record,
    pipeline_counters,
    restore_pipeline,
)
from repro.shard.plan import (
    HashShardPlan,
    ShardPlan,
    SubnetShardPlan,
    plan_from_spec,
)

__all__ = [
    "DefaultLaneFilter",
    "HashShardPlan",
    "ShardPlan",
    "SubnetShardPlan",
    "WorkerPool",
    "combine_lane_fingerprints",
    "fold_lane_record",
    "pipeline_counters",
    "plan_from_spec",
    "restore_pipeline",
]

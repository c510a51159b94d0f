"""Multiprocess sharded replay — Figure 6's core-router placement at scale.

A :class:`repro.filters.sharded.ShardedFilter` already partitions filter
state by client network, and shards "touch disjoint memory": a packet's
shard is decided by its *inner* address, a connection's packets all share
one inner address, and the blocked-σ store is keyed per connection.  A
sharded replay therefore decomposes exactly:

1. **Partition** the timestamp-ordered stream into per-shard sub-streams
   (the filter's :class:`~repro.shard.plan.ShardPlan`); transit packets
   matching no shard go to a *default lane* that applies
   ``default_verdict``.
2. **Replay each lane in its own worker process**, each driving the
   lane filter's fused kernel (:mod:`repro.sim.kernels` — any registered
   filter type, not just bitmap) over its sub-stream with the batched
   backend.  Lane processes live under a
   :class:`~repro.shard.lifecycle.WorkerPool` and read their lane's
   columns from one shared-memory segment (:mod:`repro.sim.shm`); the
   serial (``workers=1``) path replays a deep copy of each lane filter
   instead.  Every lane's filter carries its own RNG (seeded
   deterministically at construction), so verdicts are independent of
   worker scheduling.
3. **Merge** the picklable per-lane records back into one aggregate
   (:func:`~repro.shard.lifecycle.fold_lane_record` plus the metrics
   ``merge()`` layer): throughput-series bins and drop-rate windows are
   keyed by absolute trace time and counters are pure sums, so the
   merged result is bit-identical to a single-process replay of the
   interleaved stream.

The per-lane unit of work is one shard, so parallelism is capped by the
shard count; ``workers`` caps the number of simultaneous processes.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.filters.base import FilterStats
from repro.filters.sharded import ShardedFilter
from repro.net.packet import SocketPair
from repro.net.table import PacketTable, as_table
from repro.shard.lifecycle import (
    DefaultLaneFilter,
    WorkerPool,
    combine_lane_fingerprints,
    fold_lane_record,
)
from repro.sim.metrics import DropRateSampler, ThroughputSeries
from repro.sim.pipeline import PipelineConfig, ReplayPipeline, ReplayResult

__all__ = [
    "DefaultLaneFilter",
    "LaneResult",
    "parallel_replay",
]


@dataclass
class LaneResult:
    """One worker's replay outcome, shipped back over ``multiprocessing``.

    Everything here is plain picklable data: counter dataclasses, series
    objects backed by ``dict``s, and (optionally) the lane's blocked-σ
    table.  ``lane`` is the shard index, or -1 for the default lane.
    ``fingerprint`` is the lane's own FNV-1a verdict fingerprint when
    the replay recorded one — the per-lane quantity
    :func:`~repro.shard.lifecycle.combine_lane_fingerprints` aggregates.
    """

    lane: int
    packets: int
    inbound_packets: int
    inbound_dropped: int
    filter_stats: FilterStats
    core_stats: Optional[dict]
    offered: ThroughputSeries
    passed: ThroughputSeries
    inbound_drops: DropRateSampler
    blocked: Optional[Dict[SocketPair, float]]
    suppressed_packets: int
    suppressed_bytes: int
    fingerprint: Optional[int] = None


def _replay_lane(task) -> LaneResult:
    """Worker entry point: batched replay of one lane, record everything.

    ``task`` and the returned :class:`LaneResult` cross the process
    boundary by pickling.  ``lane_input`` is the lane table itself on the
    in-process path, or a :class:`~repro.sim.shm.ShmLane` reference, in
    which case the worker maps the parent's column bytes in place and
    replays the zero-copy view table.
    """
    from repro.sim.replay import replay
    from repro.sim.shm import ShmLane, attach_lane

    (lane, lane_filter, lane_input, use_blocklist, throughput_interval,
     drop_window, record_fingerprint) = task
    attachment = None
    if isinstance(lane_input, ShmLane):
        attachment = attach_lane(lane_input)
        lane_input = attachment.table
    try:
        result = replay(
            lane_input,
            lane_filter,
            use_blocklist=use_blocklist,
            throughput_interval=throughput_interval,
            drop_window=drop_window,
            batched=True,
            record_fingerprint=record_fingerprint,
        )
    finally:
        if attachment is not None:
            attachment.close()
    router = result.router
    core = getattr(lane_filter, "core", None)
    blocklist = router.blocklist
    return LaneResult(
        lane=lane,
        packets=result.packets,
        inbound_packets=result.inbound_packets,
        inbound_dropped=result.inbound_dropped,
        filter_stats=lane_filter.stats,
        core_stats=core.stats.as_dict() if core is not None else None,
        offered=router.offered,
        passed=router.passed,
        inbound_drops=router.inbound_drops,
        blocked=blocklist.entries() if blocklist is not None else None,
        suppressed_packets=blocklist.suppressed_packets if blocklist else 0,
        suppressed_bytes=blocklist.suppressed_bytes if blocklist else 0,
        fingerprint=result.fingerprint,
    )


def _check_rng_isolation(sharded: ShardedFilter) -> None:
    """Reject shard filters sharing one RNG object.

    In-process, shards sharing a ``random.Random`` interleave their draws;
    across processes each worker would advance its own copy, silently
    breaking the equivalence contract.  Per-shard RNGs (the default —
    every ``BitmapPacketFilter`` seeds its own) are required.
    """
    seen: Dict[int, str] = {}
    for position, member in enumerate(sharded.members):
        holder = getattr(member, "core", member)
        rng = getattr(holder, "_rng", None)
        if rng is None:
            continue
        label = sharded.shard_label(position)
        previous = seen.get(id(rng))
        if previous is not None:
            raise ValueError(
                f"shards {previous} and {label} share one RNG object; "
                "parallel replay needs a deterministic per-shard RNG"
            )
        seen[id(rng)] = label


def parallel_replay(
    packets,
    packet_filter: ShardedFilter,
    workers: Optional[int] = None,
    use_blocklist: bool = True,
    throughput_interval: float = 1.0,
    drop_window: float = 10.0,
    record_fingerprint: bool = False,
) -> ReplayResult:
    """Replay a packet stream through a sharded filter, one worker per lane.

    ``packets`` may be a packet list, a :class:`PacketTable`, or an
    iterable of either; it becomes one table at the front door
    (:func:`~repro.net.table.as_table`), partitions by interned flow
    (:meth:`ShardedFilter.partition_table`) into pool-sharing lane
    tables, and each lane replays through the batched backend.

    Produces the same merged verdict counts, throughput-series bins,
    drop-rate windows and per-shard statistics as
    ``replay(packets, packet_filter)`` in a single process, for any
    ``workers`` — the partitioning is by connection ownership, so no
    decision ever depends on another lane's state.  ``workers`` bounds
    concurrent processes (default: ``os.cpu_count()``); ``workers=1``
    runs the lanes serially in-process with zero multiprocessing overhead
    but the same merge path.  A multiprocess dispatch publishes every
    lane's columns into one shared-memory segment and ships workers only
    offsets (:mod:`repro.sim.shm`).

    The result is the :class:`ReplayResult` every backend returns, with
    ``workers`` and per-lane ``lanes`` filled in.  ``router.filter`` is
    the caller's :class:`ShardedFilter` with lane statistics flushed back
    in, so ``shard_stats()`` reads as if the replay had run in-process;
    filter *state* (bitmap bits, rotation clocks) stays with the lanes —
    a parallel replay is a measurement run, not a warm filter you can
    keep feeding.

    ``record_fingerprint`` records each lane's own FNV-1a verdict
    fingerprint (``result.lanes[i].fingerprint``) and sets
    ``result.fingerprint`` to their lane-keyed, order-independent
    combination (:func:`~repro.shard.lifecycle.combine_lane_fingerprints`).
    This is **not** the interleaved-stream fingerprint an in-process
    replay records — it is the shard-decomposed invariant a fleet of
    independent daemons can reproduce, and the offline reference the
    fleet smoke verifies against.
    """
    from repro.sim.shm import SharedTableArena

    if not isinstance(packet_filter, ShardedFilter):
        raise ValueError(
            "parallel replay needs a ShardedFilter — only sharded state "
            f"partitions across processes (got {type(packet_filter).__name__})"
        )
    _check_rng_isolation(packet_filter)
    if workers is None:
        workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")

    table = as_table(packets)
    span = (table.timestamps[0], table.timestamps[-1]) if len(table) else None
    lanes, default_lane = packet_filter.partition_table(table)

    lane_work: List[Tuple[int, object, PacketTable]] = []
    for position, lane_table in enumerate(lanes):
        if len(lane_table):
            lane_work.append(
                (position, packet_filter.members[position], lane_table)
            )
    if len(default_lane):
        lane_work.append(
            (-1, DefaultLaneFilter(packet_filter.default_verdict), default_lane)
        )

    options = (use_blocklist, throughput_interval, drop_window,
               record_fingerprint)
    if workers <= 1 or len(lane_work) <= 1:
        # The in-process path replays a deep copy of each lane filter, so
        # the parent's filter only accumulates the merged statistics
        # afterwards.  Multiprocess dispatch skips this — pickling into
        # the worker is already a copy, and a parent-side deepcopy would
        # just double the dispatch cost.
        records = [
            _replay_lane((lane, copy.deepcopy(lane_filter), lane_table,
                          *options))
            for lane, lane_filter, lane_table in lane_work
        ]
    else:
        arena = SharedTableArena.publish(
            [(lane, lane_table) for lane, _, lane_table in lane_work]
        )
        try:
            tasks = [(lane, lane_filter, ref, *options)
                     for (lane, lane_filter, _), ref in zip(lane_work,
                                                           arena.lanes)]
            with WorkerPool(min(workers, len(tasks))) as pool:
                records = pool.map(_replay_lane, tasks)
        finally:
            arena.dispose()

    return _merge(packet_filter, span, records, workers,
                  use_blocklist, throughput_interval, drop_window,
                  record_fingerprint)


def _merge(
    packet_filter: ShardedFilter,
    span: Optional[Tuple[float, float]],
    records: List[LaneResult],
    workers: int,
    use_blocklist: bool,
    throughput_interval: float,
    drop_window: float,
    record_fingerprint: bool = False,
) -> ReplayResult:
    """Fold per-lane records into one router-shaped aggregate.

    The merge drives the same :class:`ReplayPipeline` every backend uses:
    per-lane measurements fold in through :meth:`ReplayPipeline.merge_lane`,
    filter statistics and blocked-σ rows through the shared
    :func:`~repro.shard.lifecycle.fold_lane_record` arm, and the shared
    finalize hook compacts the merged blocklist at the trace's end time.
    A lane's store only GCs on its own lane's clock, so an idle lane can
    ship expired entries a single-process store would already have
    collected; end-of-replay compaction leaves exactly the still-live
    entries — the same table every other backend's finalize produces.
    """
    pipeline = ReplayPipeline(PipelineConfig(
        packet_filter=packet_filter,
        use_blocklist=use_blocklist,
        throughput_interval=throughput_interval,
        drop_window=drop_window,
    ))
    blocklist = pipeline.router.blocklist
    for record in records:
        pipeline.merge_lane(record)
        fold_lane_record(packet_filter, record, blocklist=blocklist)
    if span is not None:
        pipeline.observe_span(*span)
    result = pipeline.finalize(workers=workers, lanes=records)
    if record_fingerprint:
        result.fingerprint = combine_lane_fingerprints({
            record.lane: record.fingerprint
            for record in records
            if record.fingerprint is not None
        })
    return result

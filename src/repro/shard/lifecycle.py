"""Shard lifecycles: how a lane comes up, reports health, goes down.

Before this layer existed, three mechanisms each carried a private copy
of the same lifecycle: the parallel backend deep-copied lane filters and
hand-rolled pool teardown, the sharded filter reset its members one way,
and the filter service serialized/rehydrated pipeline state another.
:class:`ShardLifecycle` is the shared contract — launch / ping / stop
plus snapshot–restore delegation — with two in-tree implementations
(:class:`MemberLane` for in-process lanes, :class:`WorkerPool` for the
multiprocess worker set) and a third in :mod:`repro.fleet` (the
shard-daemon subprocess handle).

The merge side lives here too, because every shard mechanism folds lane
results identically:

* :func:`fold_lane_record` — one lane's filter statistics (and
  optionally its blocked-σ rows) into a sharded filter;
* :func:`combine_lane_fingerprints` — per-lane verdict fingerprints into
  one order-independent fleet fingerprint;
* :func:`pipeline_counters` / :func:`restore_pipeline` — the pipeline
  counter block a snapshot persists and a warm restart rehydrates.
"""

from __future__ import annotations

import copy
import multiprocessing
import signal
from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.bitmap_filter import BitmapFilterStats
from repro.core.hashing import FNV64_OFFSET, splitmix64
from repro.filters.base import PacketFilter, SnapshotUnsupported, Verdict
from repro.net.packet import Packet


class ShardLifecycle(ABC):
    """One shard's lifecycle contract.

    ``launch`` brings the shard up, ``ping`` reports liveness as a plain
    dict (shape varies by implementation: an in-process lane reports its
    counters, a daemon handle reports process health), ``stop`` tears it
    down; all three are idempotent.  Snapshot delegation is optional —
    the default raises :class:`~repro.filters.base.SnapshotUnsupported`,
    matching the filter-snapshot protocol's refusal convention.
    Lifecycles are context managers: ``launch`` on enter, ``stop`` on
    exit (even on error).
    """

    @abstractmethod
    def launch(self) -> None:
        """Bring the shard up (spawn / isolate / bind)."""

    @abstractmethod
    def ping(self) -> dict:
        """Liveness and basic counters, as JSON-safe data."""

    @abstractmethod
    def stop(self) -> None:
        """Tear the shard down, releasing what ``launch`` acquired."""

    def snapshot_state(self) -> Any:
        raise SnapshotUnsupported(
            f"{type(self).__name__} does not delegate snapshots"
        )

    def restore_state(self, state: Any, clock: str = "resume") -> None:
        raise SnapshotUnsupported(
            f"{type(self).__name__} does not delegate restore"
        )

    def __enter__(self) -> "ShardLifecycle":
        self.launch()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class MemberLane(ShardLifecycle):
    """An in-process lane over one member filter.

    This is the lifecycle of a :class:`~repro.filters.sharded.ShardedFilter`
    lane and of the parallel backend's serial (``workers=1``) path:
    ``launch`` optionally deep-copies the member so a measurement replay
    leaves the owner's filter state untouched (the isolation the
    parallel merge contract requires — the owner's filter accumulates
    only the merged statistics afterwards), and snapshot delegation goes
    straight through the filter-snapshot protocol.
    """

    def __init__(
        self, lane: int, member: PacketFilter, isolate: bool = False
    ) -> None:
        self.lane = lane
        self.member = member
        self.isolate = isolate
        self.filter: Optional[PacketFilter] = None

    def launch(self) -> None:
        if self.filter is None:
            self.filter = (
                copy.deepcopy(self.member) if self.isolate else self.member
            )

    def ping(self) -> dict:
        target = self.filter if self.filter is not None else self.member
        return {
            "lane": self.lane,
            "status": "up" if self.filter is not None else "down",
            "packets": target.stats.total,
        }

    def stop(self) -> None:
        self.filter = None

    def snapshot_state(self) -> dict:
        target = self.filter if self.filter is not None else self.member
        return target.snapshot()

    def restore_state(self, state: Any, clock: str = "resume") -> None:
        from repro.filters import restore_filter

        self.member = restore_filter(state, clock=clock)
        self.filter = None


def pool_context():
    """Prefer fork (cheap, inherits read-only state); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _init_worker() -> None:
    """Pool workers ignore SIGINT.

    A terminal Ctrl-C delivers SIGINT to the whole foreground process
    group — parent *and* workers.  If workers die on their own, the
    parent's interrupt handling races a pile of broken-pipe errors from
    mid-pickle corpses; with SIGINT masked in the workers, the parent is
    the single owner of the interrupt and tears the pool down in order
    (terminate, join, re-raise).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class WorkerPool(ShardLifecycle):
    """The multiprocess worker set's lifecycle, with guaranteed teardown.

    One :class:`WorkerPool` owns the process lanes of a partitioned
    replay: ``launch`` builds a fork-preferred pool whose workers mask
    SIGINT, :meth:`map` runs lane tasks and — on *any* failure while
    waiting, including SIGINT landing in the parent — terminates and
    joins every worker before re-raising, so an interrupted replay never
    leaks processes.  ``stop`` is the normal reap (close + join).
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.workers = workers
        self._pool = None

    def launch(self) -> None:
        if self._pool is None:
            self._pool = pool_context().Pool(
                processes=self.workers, initializer=_init_worker
            )

    def map(self, func: Callable, tasks: Sequence) -> List:
        """Map lane tasks over the workers; terminate-and-join on any
        exception while waiting, so no child outlives a failed map."""
        if self._pool is None:
            raise RuntimeError("worker pool is not launched")
        try:
            return self._pool.map(func, tasks)
        except BaseException:
            self.terminate()
            raise

    def imap(self, func: Callable, tasks: Sequence) -> Iterator:
        """Ordered streaming map: results arrive as they finish, in task
        order, so the consumer overlaps its own work with the workers'.
        Same teardown contract as :meth:`map` — any exception while
        waiting (including SIGINT in the parent) terminates and joins
        every worker before re-raising."""
        if self._pool is None:
            raise RuntimeError("worker pool is not launched")
        results = self._pool.imap(func, tasks)

        def drain() -> Iterator:
            try:
                for result in results:
                    yield result
            except BaseException:
                self.terminate()
                raise

        return drain()

    def ping(self) -> dict:
        processes = getattr(self._pool, "_pool", None) or []
        return {
            "workers": self.workers,
            "status": "up" if self._pool is not None else "down",
            "alive": sum(1 for process in processes if process.is_alive()),
        }

    def stop(self) -> None:
        if self._pool is None:
            return
        self._pool.close()
        self._pool.join()
        self._pool = None

    def terminate(self) -> None:
        """Hard teardown: kill workers mid-task and reap them."""
        if self._pool is None:
            return
        self._pool.terminate()
        self._pool.join()
        self._pool = None


class DefaultLaneFilter(PacketFilter):
    """The default lane's stand-in filter: transit packets matching no
    shard get the sharded filter's ``default_verdict``, exactly as
    :meth:`ShardedFilter.decide` would hand them."""

    name = "default-lane"

    def __init__(self, verdict: Verdict) -> None:
        super().__init__()
        self.verdict = verdict

    def decide(self, packet: Packet) -> Verdict:
        return self.verdict


# -- merge arm ---------------------------------------------------------------

_MASK64 = (1 << 64) - 1
#: Golden-ratio increment; decorrelates the lane key from small indices.
_LANE_SALT = 0x9E3779B97F4A7C15


def combine_lane_fingerprints(lane_fingerprints: Dict[int, int]) -> int:
    """Combine per-lane verdict fingerprints into one 64-bit value.

    A single verdict fingerprint is order-dependent over the interleaved
    stream, which no fleet of independent shards can reproduce — but each
    *lane's* verdict order is identical whether the lane ran in a worker
    process, a daemon, or an offline partitioned replay.  So the fleet
    invariant is lane-keyed: mix each lane's FNV fingerprint with its
    lane index (splitmix64) and sum mod 2^64.  Addition commutes and
    associates, so the combined value is independent of shard reporting
    order, restart history, and aggregation grouping; keying by lane
    index keeps two lanes with swapped streams from colliding.  Lane -1
    is the default (transit) lane.

    Lanes whose fingerprint still sits at the FNV offset basis (the
    empty verdict sequence) contribute nothing — an idle fleet shard and
    a lane the offline partition never materialized combine identically.
    """
    combined = 0
    for lane, fingerprint in lane_fingerprints.items():
        if fingerprint == FNV64_OFFSET:
            continue
        key = splitmix64((lane & _MASK64) ^ _LANE_SALT)
        combined = (combined + splitmix64(key ^ fingerprint)) & _MASK64
    return combined


def fold_lane_record(sharded, record, blocklist=None) -> None:
    """Fold one lane's replay record into a sharded filter.

    ``record`` is anything LaneResult-shaped (``lane``, ``filter_stats``,
    ``core_stats``, ``blocked``, ``suppressed_*``).  Statistics merge
    into the sharded top-level counters and the owning member (plus its
    bitmap core, when both sides have one); default-lane traffic
    (``lane < 0``) is what the sharded filter counts as unrouted.  With a
    ``blocklist``, the lane's blocked-σ rows union in — lanes own
    disjoint connections, so the union is a plain update.  This is the
    one merge arm behind both the offline parallel merge and the fleet
    aggregator.
    """
    sharded.stats.merge(record.filter_stats)
    if record.lane >= 0:
        member = sharded.shards[record.lane][2]
        member.stats.merge(record.filter_stats)
        core = getattr(member, "core", None)
        if core is not None and record.core_stats is not None:
            core.stats.merge(BitmapFilterStats(**record.core_stats))
    else:
        sharded.unrouted_packets += record.filter_stats.total
    if blocklist is not None and record.blocked is not None:
        blocklist.absorb(record.blocked, record.suppressed_packets,
                         record.suppressed_bytes)


def pipeline_counters(pipeline) -> dict:
    """The pipeline counter block a service snapshot persists — the
    exact complement of :func:`restore_pipeline`."""
    return {
        "inbound": pipeline.inbound,
        "dropped": pipeline.dropped,
        "first_ts": pipeline.first_ts,
        "last_ts": pipeline.last_ts,
        "fingerprint": pipeline.fingerprint,
    }


def restore_pipeline(pipeline, document: dict) -> None:
    """Rehydrate a pipeline from a snapshot document: the router's
    measurement lanes and blocked-σ store, then the counter block."""
    pipeline.router.restore_state(document["router"])
    counters = document["pipeline"]
    pipeline.inbound = counters["inbound"]
    pipeline.dropped = counters["dropped"]
    pipeline.first_ts = counters["first_ts"]
    pipeline.last_ts = counters["last_ts"]
    pipeline.fingerprint = counters["fingerprint"]

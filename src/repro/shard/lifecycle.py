"""Shard lanes: the multiprocess worker set and the lane merge arm.

:class:`WorkerPool` owns the worker processes of a partitioned replay
(launch / map / stop, with guaranteed teardown), and
:class:`DefaultLaneFilter` stands in for the sharded filter on the
default (transit) lane.  The merge side lives here too, because every
shard mechanism — the offline parallel replay and the fleet aggregator
— folds lane results identically:

* :func:`fold_lane_record` — one lane's filter statistics (and
  optionally its blocked-σ rows) into a sharded filter;
* :func:`combine_lane_fingerprints` — per-lane verdict fingerprints into
  one order-independent fleet fingerprint;
* :func:`pipeline_counters` / :func:`restore_pipeline` — the pipeline
  counter block a snapshot persists and a warm restart rehydrates.
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import Callable, Dict, List, Sequence

from repro.core.bitmap_filter import BitmapFilterStats
from repro.core.hashing import FNV64_OFFSET, splitmix64
from repro.filters.base import PacketFilter, Verdict
from repro.net.packet import Packet


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


class WorkerPool:
    """The multiprocess worker set, with guaranteed teardown.

    One :class:`WorkerPool` owns the process lanes of a partitioned
    replay: ``launch`` builds a fork-preferred pool whose workers mask
    SIGINT, :meth:`map` runs lane tasks and — on *any* failure while
    waiting, including SIGINT landing in the parent — terminates and
    joins every worker before re-raising, so an interrupted replay never
    leaks processes.  ``stop`` is the normal reap (close + join).  The
    pool is a context manager: ``launch`` on enter, ``stop`` on exit
    (even on error).
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

    def __enter__(self) -> "WorkerPool":
        self.launch()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


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
    exact complement of :func:`restore_pipeline`.  The router's pending
    rows fold first, so the block is exact."""
    pipeline.router.fold()
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

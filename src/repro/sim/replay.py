"""Trace replay — the section 5.3 simulations as reusable harness code.

:func:`replay` is a thin front door over the unified engine in
:mod:`repro.sim.pipeline`: it maps the ``(batched, workers, scheduler)``
knobs onto one :class:`~repro.sim.pipeline.ExecutionBackend` and runs the
shared stage pipeline.  Every combination either selects a backend or
raises — there are no silent mode downgrades.  The batched engine has a
single path: packet input becomes one
:class:`~repro.net.table.PacketTable` at its front door, and every table
goes through :meth:`~repro.sim.router.EdgeRouter.process_table`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.filters.base import PacketFilter
from repro.net.packet import Packet
from repro.net.table import PacketTable, as_table
from repro.sim.engine import EventScheduler
from repro.sim.metrics import scatter_points
from repro.sim.pipeline import (
    ExecutionBackend,
    PipelineConfig,
    ReplayResult,
    select_backend,
)

__all__ = ["ReplayResult", "replay", "DropRateComparison", "compare_drop_rates"]


def replay(
    packets: Iterable[Packet],
    packet_filter: PacketFilter,
    use_blocklist: bool = True,
    throughput_interval: float = 1.0,
    drop_window: float = 10.0,
    scheduler: Optional[EventScheduler] = None,
    batched: Optional[bool] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
    record_fingerprint: bool = False,
    transport: str = "auto",
) -> ReplayResult:
    """Replay a timestamp-ordered packet stream through a filter.

    ``packets`` may be a ``List[Packet]``, any packet iterable, a
    columnar :class:`~repro.net.table.PacketTable`, or an iterable of
    tables (:meth:`~repro.workload.generator.TraceGenerator.iter_tables`
    streams chunks in bounded memory) — every backend accepts either
    representation and produces identical results on equal streams.

    ``use_blocklist`` enables the blocked-σ persistence of section 5.3
    (dropped inbound connections stay dropped).  An optional scheduler
    lets callers attach periodic probes; it is advanced in trace time.

    ``batched`` selects the columnar chunked engine
    (:class:`~repro.sim.pipeline.BatchedBackend`): packet input becomes
    one :class:`~repro.net.table.PacketTable` at the front door, and each
    table goes through :meth:`~repro.sim.router.EdgeRouter.process_table`
    — the filter's fused function from :mod:`repro.sim.kernels` when it
    has one, the per-packet reference loop otherwise, with identical
    results either way.  ``None`` (the
    default) lets the backend decide: sequential in-process, batched
    lanes under the parallel engine.  With a scheduler attached the
    batched engine splits chunks at event boundaries, so probes fire at
    exactly the per-packet moments; ``batched=False`` forces the
    per-packet loop everywhere, including parallel lanes.

    ``workers > 1`` dispatches to the multiprocess sharded engine
    (:class:`~repro.sim.pipeline.ParallelBackend` /
    :func:`repro.sim.parallel.parallel_replay`): the stream is
    partitioned by shard ownership, one worker process replays each lane,
    and the merged result carries the same aggregate counts, series bins
    and per-shard statistics as a single-process run.  Requires a
    :class:`~repro.filters.sharded.ShardedFilter` and no scheduler
    (incoherent combinations raise —
    see :func:`~repro.sim.pipeline.select_backend` for the full matrix).

    An explicit ``backend`` bypasses the knob dispatch entirely (and is
    mutually exclusive with ``batched``/``workers``/``chunk_size``).

    ``transport`` (``auto``/``shm``/``pickle``) picks the parallel
    backend's lane dispatch mechanism — shared-memory column buffers or
    pickled lane tables (see :func:`repro.sim.parallel.parallel_replay`);
    it is only meaningful with ``workers > 1``.

    ``record_fingerprint`` maintains a running 64-bit FNV-1a fingerprint
    of the verdict sequence (``result.fingerprint``) — the cheap
    equality witness the service plane's warm-restart tests compare
    against an offline replay.  The parallel backend merges lanes
    without a global verdict order, so it cannot record one (raises).
    """
    if backend is None:
        backend = select_backend(
            batched=batched, workers=workers, scheduler=scheduler,
            chunk_size=chunk_size, transport=transport,
        )
    elif (batched is not None or workers != 1 or chunk_size is not None
          or transport != "auto"):
        raise ValueError(
            "pass either backend= or the batched/workers/chunk_size/"
            "transport knobs, not both"
        )
    if record_fingerprint and backend.name == "parallel":
        raise ValueError(
            "record_fingerprint needs a global verdict order; the parallel "
            "backend merges per-shard lanes and has none"
        )
    config = PipelineConfig(
        packet_filter=packet_filter,
        use_blocklist=use_blocklist,
        throughput_interval=throughput_interval,
        drop_window=drop_window,
        scheduler=scheduler,
        record_fingerprint=record_fingerprint,
    )
    return backend.run(packets, config)


@dataclass
class DropRateComparison:
    """Figure 8's data: two (or more) filters over the same trace.

    ``timings`` records the comparison's phase split: ``trace_s`` (the
    one-time stream materialization, 0.0 when the caller handed over a
    ready list/table or a factory) and per-filter replay seconds under
    ``replay_s`` — the generate/replay accounting the benchmark JSONs
    publish.
    """

    results: Dict[str, ReplayResult]
    points: List[Tuple[float, float]]
    timings: Dict[str, object] = dataclass_field(default_factory=dict)

    def overall(self, name: str) -> float:
        """One filter's overall inbound drop rate."""
        return self.results[name].inbound_drop_rate


def compare_drop_rates(
    packets,
    filters: Dict[str, PacketFilter],
    use_blocklist: bool = False,
    drop_window: float = 10.0,
    min_window_packets: int = 20,
    batched: Optional[bool] = None,
    workers: int = 1,
) -> DropRateComparison:
    """Replay the same trace through each filter independently.

    Figure 8 compares *per-window inbound drop rates* of the SPI filter
    (x-axis) against the bitmap filter (y-axis); the blocklist is off by
    default there so the filters' raw decisions are compared packet by
    packet.  ``points`` pairs the first two filters in insertion order.

    ``packets`` may also be a **callable trace factory**: it is invoked
    once per filter and its return value (typically a fresh
    ``iter_tables`` chunk stream) goes straight to :func:`replay`
    *without* being materialized — the bounded-memory path for
    10–100M-packet Figure-8 campaigns, where one merged table would not
    fit.  Deterministic generators make every invocation replay the
    identical stream, so results match the materialized path exactly.

    ``batched`` / ``workers`` pass straight through to :func:`replay`,
    so Figure-8 comparisons on large traces can use the columnar and
    multiprocess fast paths — the per-window rates are identical by the
    backends' equivalence contract.
    """
    if len(filters) < 2:
        raise ValueError("need at least two filters to compare")
    factory = packets if callable(packets) else None
    trace_s = 0.0
    if factory is None and not isinstance(packets, (list, PacketTable)):
        # The same stream replays once per filter — materialize one
        # reusable representation (a generator of table chunks merges
        # into a single table; packet iterables do the same via the
        # exact Packet → row converter).
        started = time.perf_counter()
        packets = as_table(packets)
        trace_s = time.perf_counter() - started
    results: Dict[str, ReplayResult] = {}
    replay_s: Dict[str, float] = {}
    for name, flt in filters.items():
        stream = factory() if factory is not None else packets
        started = time.perf_counter()
        results[name] = replay(stream, flt, use_blocklist=use_blocklist,
                               drop_window=drop_window, batched=batched,
                               workers=workers)
        replay_s[name] = time.perf_counter() - started
    names = list(filters)
    points = scatter_points(
        results[names[0]].router.inbound_drops,
        results[names[1]].router.inbound_drops,
        min_packets=min_window_packets,
    )
    return DropRateComparison(
        results=results,
        points=points,
        timings={"trace_s": trace_s, "replay_s": replay_s},
    )

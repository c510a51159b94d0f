"""Trace replay — the section 5.3 simulations as reusable harness code.

:func:`replay` is a thin front door over the unified engine in
:mod:`repro.sim.pipeline`: it maps the ``(batched, workers, chunk_size)``
knobs onto one :class:`~repro.sim.pipeline.ExecutionBackend` and runs the
shared stage pipeline.  Every combination either selects a backend or
raises — there are no silent mode downgrades.  The batched engine has a
single path: packet input becomes one
:class:`~repro.net.table.PacketTable` at its front door, and every table
goes through :meth:`~repro.sim.router.EdgeRouter.process_table`.
:func:`compare_drop_rates` drives one
:class:`~repro.sim.pipeline.ReplayStepper` per filter in lockstep over a
single pass of its input.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.filters.base import PacketFilter
from repro.net.packet import Packet
from repro.net.table import PacketTable, as_table
from repro.sim.metrics import scatter_points
from repro.sim.pipeline import (
    ExecutionBackend,
    PipelineConfig,
    ReplayResult,
    ReplayStepper,
    iter_chunks,
    select_backend,
)

__all__ = ["ReplayResult", "replay", "DropRateComparison", "compare_drop_rates"]


def replay(
    packets: Iterable[Packet],
    packet_filter: PacketFilter,
    use_blocklist: bool = True,
    throughput_interval: float = 1.0,
    drop_window: float = 10.0,
    batched: Optional[bool] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    backend: Optional[ExecutionBackend] = None,
    record_fingerprint: bool = False,
) -> ReplayResult:
    """Replay a timestamp-ordered packet stream through a filter.

    ``packets`` may be a ``List[Packet]``, any packet iterable, a
    columnar :class:`~repro.net.table.PacketTable`, or an iterable of
    tables (:meth:`~repro.workload.generator.TraceGenerator.iter_tables`
    streams chunks in bounded memory) — every backend accepts either
    representation and produces identical results on equal streams.

    ``use_blocklist`` enables the blocked-σ persistence of section 5.3
    (dropped inbound connections stay dropped).

    ``batched`` selects the columnar chunked engine
    (:class:`~repro.sim.pipeline.BatchedBackend`): packet input becomes
    one :class:`~repro.net.table.PacketTable` at the front door, and each
    table goes through :meth:`~repro.sim.router.EdgeRouter.process_table`
    — the filter's fused function from :mod:`repro.sim.kernels` when it
    has one, the per-packet reference loop otherwise, with identical
    results either way.  ``None`` (the default) lets the backend decide:
    sequential in-process, batched lanes under the parallel engine.
    ``batched=False`` forces the per-packet loop and needs ``workers=1``.

    ``workers > 1`` dispatches to the multiprocess sharded engine
    (:class:`~repro.sim.pipeline.ParallelBackend` /
    :func:`repro.sim.parallel.parallel_replay`): the stream is
    partitioned by shard ownership, one worker process replays each lane
    batched over a shared-memory view of its columns, and the merged
    result carries the same aggregate counts, series bins and per-shard
    statistics as a single-process run.  Requires a
    :class:`~repro.filters.sharded.ShardedFilter` (incoherent
    combinations raise — see :func:`~repro.sim.pipeline.select_backend`
    for the full matrix).

    An explicit ``backend`` bypasses the knob dispatch entirely (and is
    mutually exclusive with ``batched``/``workers``/``chunk_size``).

    ``record_fingerprint`` maintains a running 64-bit FNV-1a fingerprint
    of the verdict sequence (``result.fingerprint``) — the cheap
    equality witness the service plane's warm-restart tests compare
    against an offline replay.  The parallel backend merges lanes
    without a global verdict order, so it cannot record one (raises).
    """
    if backend is None:
        backend = select_backend(
            batched=batched, workers=workers, chunk_size=chunk_size,
        )
    elif batched is not None or workers != 1 or chunk_size is not None:
        raise ValueError(
            "pass either backend= or the batched/workers/chunk_size "
            "knobs, not both"
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
        record_fingerprint=record_fingerprint,
    )
    return backend.run(packets, config)


@dataclass
class DropRateComparison:
    """Figure 8's data: two (or more) filters over the same trace.

    ``timings`` records the comparison's phase split: ``trace_s`` (the
    seconds spent pulling chunks from the input — generation time for a
    factory or iterator, next to nothing for a ready list or table) and
    per-filter ``replay_s`` (each filter's feed plus finish time) — the
    generate/replay accounting the benchmark JSONs publish.
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

    The filters run in lockstep: each input chunk is pulled once and fed
    to one :class:`~repro.sim.pipeline.ReplayStepper` per filter before
    the next is pulled, so the trace is generated once whatever the
    number of filters, and only one chunk is held at a time.  Stepped
    replay is bit-identical to :func:`replay`, so every result equals a
    per-filter replay of the same stream.  Because chunks interleave
    across filters, the filters must not share mutable state (one RNG,
    one drop controller).

    ``packets`` may be a packet list or a
    :class:`~repro.net.table.PacketTable` (one chunk, fed as given), an
    iterable of tables (streamed chunk by chunk), a packet iterable (one
    table), or a **callable trace factory**, called once — typically
    returning an ``iter_tables`` chunk stream, the bounded-memory path
    for 10–100M-packet campaigns.

    ``batched`` / ``workers`` select the backend as in :func:`replay`.
    The parallel backend (``workers > 1``) cannot step, so there each
    filter runs its own :func:`replay`: a factory is called per filter,
    any other iterable is materialized into one table first.
    """
    if len(filters) < 2:
        raise ValueError("need at least two filters to compare")
    backend = select_backend(batched=batched, workers=workers)
    try:
        steppers = {
            name: backend.stepper(PipelineConfig(
                packet_filter=flt, use_blocklist=use_blocklist,
                drop_window=drop_window,
            ))
            for name, flt in filters.items()
        }
    except NotImplementedError:
        results, trace_s, replay_s = _replay_each(
            packets, filters, backend, use_blocklist, drop_window)
    else:
        results, trace_s, replay_s = _replay_lockstep(packets, steppers)
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


def _replay_lockstep(packets, steppers: Dict[str, ReplayStepper]):
    """Pull each chunk once and feed it to every stepper in turn."""
    trace_s = 0.0
    replay_s = dict.fromkeys(steppers, 0.0)
    pulling = time.perf_counter()
    if callable(packets):
        packets = packets()
    # A list or table is one chunk as given, so each stepper sees exactly
    # what replay() would; other iterables are consumed once, here.
    chunks = ((packets,) if isinstance(packets, (list, PacketTable))
              else iter_chunks(packets))
    for chunk in chunks:
        trace_s += time.perf_counter() - pulling
        for name, stepper in steppers.items():
            started = time.perf_counter()
            stepper.feed(chunk)
            replay_s[name] += time.perf_counter() - started
        pulling = time.perf_counter()
    trace_s += time.perf_counter() - pulling
    results: Dict[str, ReplayResult] = {}
    for name, stepper in steppers.items():
        started = time.perf_counter()
        results[name] = stepper.finish()
        replay_s[name] += time.perf_counter() - started
    return results, trace_s, replay_s


def _replay_each(packets, filters: Dict[str, PacketFilter],
                 backend: ExecutionBackend, use_blocklist: bool,
                 drop_window: float):
    """One :func:`replay` per filter, for backends that cannot step."""
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
                               drop_window=drop_window, backend=backend)
        replay_s[name] = time.perf_counter() - started
    return results, trace_s, replay_s

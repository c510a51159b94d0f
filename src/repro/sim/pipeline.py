"""Unified replay engine: one stage pipeline, pluggable execution backends.

Every replay entry point — :func:`repro.sim.replay.replay`,
:func:`repro.sim.replay.compare_drop_rates`,
:class:`repro.sim.closedloop.ClosedLoopSimulator` and ``repro filter`` in
the CLI — drives the same four-stage packet pipeline:

1. **blocklist lookup** — a connection once refused stays refused
   (:meth:`BlockedConnectionStore.suppress`, batched as
   :meth:`BlockedConnectionStore.gate`);
2. **filter verdict** — :meth:`PacketFilter.decide`, batched as the
   filter's fused function in :mod:`repro.sim.kernels`;
3. **metrics / accounting** — offered/passed throughput bins, inbound
   drop windows, filter counters, replay counters and the verdict
   fingerprint, all folded from one tally of the rows
   (:func:`~repro.sim.metrics.tally_rows`) per table or per fold of
   per-packet rows;
4. **blocklist update** — a dropped inbound σ is registered as blocked.

The stages are implemented once in :class:`repro.sim.router.EdgeRouter`
(:meth:`~repro.sim.router.EdgeRouter.forward` per packet,
:meth:`~repro.sim.router.EdgeRouter.process_table` per table);
:class:`ReplayPipeline` adds its counters to every accounting step (its
inbound and drop counts read from the step's tally) and the finalize
hook (end-of-replay blocklist compaction, result assembly) behind.  An
:class:`ExecutionBackend` decides *how* the stream traverses the stages:

* :class:`SequentialBackend` — one packet at a time; the reference
  every other backend must reproduce.
* :class:`BatchedBackend` — :class:`PacketTable` chunks.  Its front door
  (:func:`iter_chunks`, shared with :meth:`ReplayStepper.feed`) turns a
  packet list or iterable into one table before anything else runs, so
  nothing past it sees a ``Packet`` list.
* :class:`ParallelBackend` — multiprocess sharded lanes
  (:mod:`repro.sim.parallel`), each lane itself driven by the batched
  backend over a shared-memory view of its columns.

All backends are bit-identical by contract: same verdicts, same
statistics, same RNG consumption (``tests/sim/test_pipeline.py`` holds
the cross-backend property tests).  :func:`select_backend` maps the
``(batched, workers, chunk_size)`` knobs of :func:`replay` onto one
backend and raises on incoherent combinations instead of silently
downgrading.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Iterable, Iterator, List, Optional

from repro.filters.base import CODE_PASS, PacketFilter, Verdict
from repro.filters.blocklist import BlockedConnectionStore
from repro.net.packet import Packet
from repro.net.table import PacketTable
from repro.sim.metrics import ThroughputSeries
from repro.sim.router import EdgeRouter


def iter_packetlike(packets) -> Iterator:
    """Flatten any accepted stream shape into packet-shaped objects.

    Accepts a ``List[Packet]``, any iterable of packets, one
    :class:`PacketTable`, or an iterable of tables (e.g.
    :meth:`TraceGenerator.iter_tables`).  Table rows come out as a single
    reused zero-allocation :class:`~repro.net.table.PacketView` cursor —
    consume each item before advancing, do not retain it.
    """
    if isinstance(packets, PacketTable):
        yield from packets.iter_views()
        return
    iterator = iter(packets)
    first = next(iterator, None)
    if first is None:
        return
    if isinstance(first, PacketTable):
        yield from first.iter_views()
        for table in iterator:
            yield from table.iter_views()
        return
    yield first
    yield from iterator


def iter_chunks(stream, limit: Optional[int] = None) -> Iterator[PacketTable]:
    """The batched front door: any accepted stream shape as tables of at
    most ``limit`` rows (``None``: as given).

    A :class:`PacketTable` or an iterable of tables passes through
    (sliced to ``limit``); a packet list or packet iterable becomes one
    table (:meth:`PacketTable.from_packets`, which raises
    :class:`ValueError` on a packet without a direction) before any
    replay stage runs.
    """
    if isinstance(stream, PacketTable):
        tables: Iterable[PacketTable] = (stream,)
    else:
        iterator = iter(stream)
        first = next(iterator, None)
        if first is None:
            return
        if isinstance(first, PacketTable):
            tables = chain((first,), iterator)
        else:
            tables = (PacketTable.from_packets(chain((first,), iterator)),)
    for table in tables:
        if limit is None or len(table) <= limit:
            yield table
            continue
        for start in range(0, len(table), limit):
            yield table.slice(start, start + limit)


@dataclass
class PipelineConfig:
    """Everything a backend needs to instantiate the stage pipeline."""

    packet_filter: PacketFilter
    use_blocklist: bool = True
    throughput_interval: float = 1.0
    drop_window: float = 10.0
    #: Maintain a running verdict fingerprint (see :func:`fingerprint_verdicts`).
    record_fingerprint: bool = False


#: FNV-1a 64-bit offset basis — the empty verdict fingerprint.
FINGERPRINT_SEED = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_FNV_MASK = (1 << 64) - 1
#: P⁸ mod 2⁶⁴: the multiplier of one eight-row block.
_FNV_PRIME_8 = pow(_FNV_PRIME, 8, 1 << 64)
#: Row code → 1 for a drop (CODE_DROP or CODE_UNSEEN), 0 for a pass.
_DROP_BITS = bytes(code != CODE_PASS for code in range(256))
#: (block word | low-2-bit state << 1) → block constant; see
#: :func:`_block_offsets`.
_BLOCK_OFFSETS: Optional[Dict[int, int]] = None


def _block_offsets() -> Dict[int, int]:
    """The constant C of every eight-row fold: h′ = h·P⁸ + C (mod 2⁶⁴).

    A fold XORs in 1 (pass) or 2 (drop), which touches only the low two
    bits, and the FNV prime is odd, so those bits evolve on their own:
    C is fixed by the block's drop pattern and h's low two bits.  The
    key is the block's eight 0/1 drop bytes read as one native 64-bit
    word (bits 1–2 always clear) OR'd with the state shifted left one.
    Built on first use (1,024 entries), not at import.
    """
    global _BLOCK_OFFSETS
    offsets: Dict[int, int] = {}
    for pattern in range(256):
        drops = bytes((pattern >> row) & 1 for row in range(8))
        word = int.from_bytes(drops, sys.byteorder)
        for state in range(4):
            folded = state
            for drop in drops:
                folded = ((folded ^ (2 if drop else 1)) * _FNV_PRIME) & _FNV_MASK
            offsets[word | state << 1] = (folded - state * _FNV_PRIME_8) & _FNV_MASK
    _BLOCK_OFFSETS = offsets
    return offsets


def fingerprint_verdicts(fingerprint: int, codes) -> int:
    """Fold verdict codes into a running 64-bit FNV-1a fingerprint.

    ``codes`` holds one row code per verdict (a ``bytes``-like buffer:
    :data:`~repro.filters.base.CODE_PASS` folds in 1, any other code 2).
    The fingerprint is a pure function of the verdict *sequence* —
    independent of chunking, batching or representation — so two replays
    of the same stream compare with one integer, and a service warm
    restart can persist the accumulator (a plain int) and keep folding.
    Start from :data:`FINGERPRINT_SEED`.  Whole eight-row blocks fold in
    one step each (:func:`_block_offsets`), the rest row by row.
    """
    whole = len(codes) & -8
    if whole:
        offsets = _BLOCK_OFFSETS or _block_offsets()
        drops = memoryview(codes.translate(_DROP_BITS))[:whole].cast("Q")
        for word in drops:
            fingerprint = (
                fingerprint * _FNV_PRIME_8 + offsets[word | (fingerprint & 3) << 1]
            ) & _FNV_MASK
        codes = codes[whole:]
    for code in codes:
        fingerprint = (
            (fingerprint ^ (1 if code == CODE_PASS else 2)) * _FNV_PRIME
        ) & _FNV_MASK
    return fingerprint


@dataclass
class ReplayResult:
    """Everything a replay produces — one shape for every backend.

    Single-process runs leave ``workers`` at 1 and ``lanes`` empty; the
    parallel backend fills both (``lanes`` holds the per-shard
    :class:`repro.sim.parallel.LaneResult` records merged into
    ``router``).
    """

    router: EdgeRouter
    packets: int
    inbound_packets: int
    inbound_dropped: int
    duration: float
    #: Worker-process cap the replay ran under (1 = in-process).
    workers: int = 1
    #: Per-lane records of a partitioned replay (empty when in-process).
    lanes: List[Any] = field(default_factory=list)
    #: Running verdict fingerprint (None unless the pipeline recorded one).
    fingerprint: Optional[int] = None

    @property
    def inbound_drop_rate(self) -> float:
        """Fraction of inbound packets dropped (Figure 8's metric)."""
        if self.inbound_packets == 0:
            return 0.0
        return self.inbound_dropped / self.inbound_packets

    @property
    def passed(self) -> ThroughputSeries:
        """Throughput of traffic the filter admitted."""
        return self.router.passed

    @property
    def offered(self) -> ThroughputSeries:
        """Throughput of everything presented to the router."""
        return self.router.offered

    def lane_packet_counts(self) -> Dict[str, int]:
        """Packets per parallel lane, keyed by shard label (transit under
        ``*``); empty for single-process runs."""
        sharded = self.router.filter
        return {
            (sharded.shard_label(lane.lane) if lane.lane >= 0 else "*"): lane.packets
            for lane in self.lanes
        }


class ReplayPipeline:
    """The shared stage sequence, instantiated per replay.

    Backends feed packets through :meth:`process` (per packet) or
    :meth:`process_table` (per chunk) and close with :meth:`finalize` —
    the *single* home of end-of-replay work: the blocklist compaction
    that makes final table contents GC-phase-independent.

    ``inbound``, ``dropped``, ``first_ts``, ``last_ts`` and
    ``fingerprint`` are filled by the router's accounting steps
    (:meth:`_count_rows`), so they read exact after a fold: at the end
    of every :meth:`ReplayStepper.feed`, in :meth:`finalize` and in
    :func:`~repro.shard.lifecycle.pipeline_counters`.
    """

    def __init__(self, config: PipelineConfig) -> None:
        self.config = config
        self.router = EdgeRouter(
            config.packet_filter,
            blocklist=BlockedConnectionStore() if config.use_blocklist else None,
            throughput_interval=config.throughput_interval,
            drop_window=config.drop_window,
            count=self._count_rows,
        )
        self.inbound = 0
        self.dropped = 0
        self.first_ts: Optional[float] = None
        self.last_ts = 0.0
        self.fingerprint: Optional[int] = (
            FINGERPRINT_SEED if config.record_fingerprint else None
        )

    # -- traversal -----------------------------------------------------

    def process(self, packet: Packet) -> Verdict:
        """Run one packet through all four stages."""
        return self.router.forward(packet)

    def process_table(self, table: PacketTable) -> bytearray:
        """Run a timestamp-ordered :class:`PacketTable` through all four
        stages; identical to ``[self.process(p) for p in table]``, as one
        verdict code per row (see :meth:`EdgeRouter.process_table`)."""
        return self.router.process_table(table)

    def _count_rows(self, tally, timestamps, codes) -> None:
        """The pipeline's share of every router accounting step (see
        :class:`EdgeRouter`): the trace span, the inbound and inbound-drop
        counts from the step's tally, and the verdict fingerprint."""
        if self.first_ts is None:
            self.first_ts = timestamps[0]
        self.last_ts = timestamps[-1]
        drop, passed, unseen = tally.totals[:3]  # the inbound slots, by code
        self.inbound += drop + passed + unseen
        self.dropped += drop + unseen
        if self.fingerprint is not None:
            self.fingerprint = fingerprint_verdicts(self.fingerprint, codes)

    # -- lane merging (parallel backend) --------------------------------

    def merge_lane(self, lane) -> None:
        """Fold one partitioned-replay lane's measurements and counters
        into this pipeline (series bins, drop windows, packet counts)."""
        self.router.merge_lane(lane)
        self.inbound += lane.inbound_packets
        self.dropped += lane.inbound_dropped

    def observe_span(self, first_ts: float, last_ts: float) -> None:
        """Declare the trace span for replays that never saw the packets
        in-process (the parallel merge path)."""
        if self.first_ts is None:
            self.first_ts = first_ts
        self.last_ts = last_ts

    # -- finalize hook --------------------------------------------------

    def finalize(self, *, workers: int = 1, lanes: Optional[List[Any]] = None) -> ReplayResult:
        """Close the replay and assemble the unified result.

        The one place end-of-replay work happens, for every backend:
        the blocklist is compacted at the last timestamp — the surviving
        table is exactly the entries still within retention, independent
        of interior GC phase and therefore identical across backends.
        """
        self.router.fold()
        if self.first_ts is not None and self.router.blocklist is not None:
            self.router.blocklist.compact(self.last_ts)
        return ReplayResult(
            router=self.router,
            packets=self.router.packets,
            inbound_packets=self.inbound,
            inbound_dropped=self.dropped,
            duration=(
                self.last_ts - self.first_ts if self.first_ts is not None else 0.0
            ),
            workers=workers,
            lanes=lanes if lanes is not None else [],
            fingerprint=self.fingerprint,
        )


# ---------------------------------------------------------------------------


class ReplayStepper:
    """Incremental pipeline traversal for open-ended streams.

    A batch ``run`` consumes one finite stream and finalizes; a live
    service feeds chunks as they arrive and must keep the pipeline open
    between them (and across snapshots), and
    :func:`~repro.sim.replay.compare_drop_rates` feeds each chunk to one
    stepper per filter before pulling the next.  :meth:`feed` pushes one chunk —
    a :class:`PacketTable` or a packet sequence — through the same stage
    implementations the owning backend's ``run`` uses, so a stepper-fed
    replay is verdict-identical to a one-shot replay of the concatenated
    stream.  :meth:`finish` closes the pipeline (blocklist compaction)
    and assembles the :class:`ReplayResult`.
    """

    def __init__(self, pipeline: ReplayPipeline, chunk_size: Optional[int] = None,
                 per_packet: bool = False) -> None:
        self.pipeline = pipeline
        self.chunk_size = chunk_size
        self.per_packet = per_packet
        self._finished = False

    def feed(self, chunk) -> bytearray:
        """Run one timestamp-ordered chunk through the open pipeline;
        returns one verdict code per row, as
        :meth:`ReplayPipeline.process_table` does."""
        if self._finished:
            raise RuntimeError("stepper already finished")
        pipeline = self.pipeline
        if self.per_packet:
            process, PASS = pipeline.process, Verdict.PASS
            codes = bytearray(process(packet) is PASS for packet in iter_packetlike(chunk))
        else:
            codes = bytearray()
            for table in iter_chunks(chunk, self.chunk_size):
                codes += pipeline.process_table(table)
        # Between chunks, everything the pipeline fills reads exact.
        pipeline.router.fold()
        return codes

    def finish(self) -> ReplayResult:
        """Close the pipeline and assemble the result (idempotent guard:
        a finished stepper refuses further feeds)."""
        if self._finished:
            raise RuntimeError("stepper already finished")
        self._finished = True
        return self.pipeline.finalize()


class ExecutionBackend(ABC):
    """How a packet stream traverses the stage pipeline."""

    name = "backend"

    def describe(self) -> str:
        """Human-readable engine label (CLI output)."""
        return self.name

    @abstractmethod
    def run(self, packets: Iterable[Packet], config: PipelineConfig) -> ReplayResult:
        """Replay ``packets`` through a fresh pipeline built from ``config``."""

    def stepper(self, config: PipelineConfig) -> ReplayStepper:
        """Open an incremental pipeline for chunk-at-a-time feeding.

        The returned :class:`ReplayStepper` traverses the stages exactly
        as this backend's :meth:`run` would, so feeding a stream in any
        chunking and calling ``finish()`` reproduces ``run``'s result
        bit for bit.  Backends whose execution model cannot pause
        mid-stream (multiprocess lanes) raise ``NotImplementedError``.
        """
        raise NotImplementedError(f"{self.name} backend cannot step incrementally")


class SequentialBackend(ExecutionBackend):
    """Per-packet traversal — the reference engine every other backend
    must reproduce bit for bit."""

    name = "sequential"

    def run(self, packets: Iterable[Packet], config: PipelineConfig) -> ReplayResult:
        pipeline = ReplayPipeline(config)
        process = pipeline.process
        for packet in iter_packetlike(packets):
            process(packet)
        return pipeline.finalize()

    def stepper(self, config: PipelineConfig) -> ReplayStepper:
        return ReplayStepper(ReplayPipeline(config), per_packet=True)


class BatchedBackend(ExecutionBackend):
    """Chunked traversal: :class:`PacketTable` chunks through
    :meth:`EdgeRouter.process_table`.

    Filters with a registered fused function (:mod:`repro.sim.kernels`:
    bitmap, SPI, counting Bloom, token-bucket, RED policer, chain) take it
    behind the blocked-σ gate; everything else replays per row through
    the reference :meth:`EdgeRouter.forward`, as does the chain when a
    blocklist is attached.  ``chunk_size`` bounds each table handed to the
    router; ``None`` replays each input table (or the columnarized packet
    stream) as one chunk.
    """

    name = "batched"

    def __init__(self, chunk_size: Optional[int] = None) -> None:
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
        self.chunk_size = chunk_size

    def run(self, packets: Iterable[Packet], config: PipelineConfig) -> ReplayResult:
        pipeline = ReplayPipeline(config)
        for table in iter_chunks(packets, self.chunk_size):
            pipeline.process_table(table)
        return pipeline.finalize()

    def stepper(self, config: PipelineConfig) -> ReplayStepper:
        return ReplayStepper(ReplayPipeline(config), chunk_size=self.chunk_size)


class ParallelBackend(ExecutionBackend):
    """Multiprocess sharded traversal (:mod:`repro.sim.parallel`).

    The stream partitions into per-shard lanes; each worker process
    drives one lane through the batched backend, and the per-lane
    records merge back through the shared pipeline finalize hook.
    """

    name = "parallel"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1: {workers}")
        self.workers = workers

    def describe(self) -> str:
        return f"parallel x{self.workers}"

    def stepper(self, config: PipelineConfig) -> ReplayStepper:
        raise NotImplementedError(
            "the parallel backend shards whole streams across worker "
            "processes and cannot pause mid-stream; use the sequential or "
            "batched backend for incremental feeding"
        )

    def run(self, packets: Iterable[Packet], config: PipelineConfig) -> ReplayResult:
        from repro.sim.parallel import parallel_replay

        return parallel_replay(
            packets,
            config.packet_filter,
            workers=self.workers,
            use_blocklist=config.use_blocklist,
            throughput_interval=config.throughput_interval,
            drop_window=config.drop_window,
            # Parallel lanes record per-lane fingerprints, combined
            # lane-keyed — not the interleaved-stream value (replay()'s
            # front door still refuses the ambiguous combination).
            record_fingerprint=config.record_fingerprint,
        )


def select_backend(
    batched: Optional[bool] = None,
    workers: int = 1,
    chunk_size: Optional[int] = None,
) -> ExecutionBackend:
    """Map the ``(batched, workers, chunk_size)`` knobs onto one backend.

    ``batched=None`` means "backend default": sequential in-process,
    batched lanes under the parallel backend.  Incoherent combinations
    raise instead of silently downgrading:

    ======== ======= ==================================================
    batched  workers backend
    ======== ======= ==================================================
    None     1       sequential
    False    1       sequential
    True     1       batched
    None     >1      parallel, batched lanes
    True     >1      parallel, batched lanes
    False    >1      **ValueError** (parallel lanes are always batched)
    any      <1      **ValueError**
    ======== ======= ==================================================

    ``chunk_size`` is only meaningful for the batched backend; asking for
    it anywhere else is an error, not a silent ignore.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    if workers > 1:
        if batched is False:
            raise ValueError(
                "parallel lanes always replay batched; batched=False needs "
                "workers=1"
            )
        if chunk_size is not None:
            raise ValueError(
                "chunk_size applies to the batched backend only; the "
                "parallel backend batches whole lanes"
            )
        return ParallelBackend(workers)
    if batched:
        return BatchedBackend(chunk_size=chunk_size)
    if chunk_size is not None:
        raise ValueError("chunk_size requires batched=True")
    return SequentialBackend()

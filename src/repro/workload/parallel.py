"""Parallel trace materialization: the synthesiser's process-pool path.

Spec synthesis is cheap and inherently serial (one shared RNG walks the
Poisson arrival loop), but materialization — expanding each
:class:`~repro.workload.apps.ConnectionSpec` to packet rows — is seeded
*per spec* via ``derive_seed(seed, index)``, so any partition of the
spec list can be expanded anywhere.  :func:`parallel_tables` exploits
that split:

1. the parent partitions the (start-sorted) spec list into contiguous
   batches and ships them to a :class:`~repro.shard.lifecycle.WorkerPool`;
2. each worker expands its specs with their private RNGs and returns a
   :class:`RowBatch` — ready-made ``array`` columns plus a *batch-local*
   payload pool (arrays pickle as raw buffers, so a batch crosses the
   process boundary as a handful of byte blobs, the same
   columns-not-objects idea as :mod:`repro.net.stream`);
3. the parent interns pairs/payloads into the shared pool in the exact
   order the serial path would (pairs per spec in index order, payloads
   in first-appearance row order — batch-local pools remap cleanly
   because batches are consumed in spec order), then feeds the columns
   through the same :class:`~repro.workload.generator._PendingMerger` /
   :class:`~repro.workload.generator._ChunkEmitter` machinery the serial
   path uses.

The emitted chunk stream is **byte-identical** to the serial
``iter_tables`` for every worker count: the merge is a stable timestamp
sort over rows appended in admission order (same tiebreak invariant),
and chunk boundaries are consecutive ``chunk_size`` windows of the
merged stream regardless of flush cadence.
``tests/workload/test_parallel_generation.py`` pins all of this.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.hashing import derive_seed
from repro.net.table import PacketTable
from repro.shard.lifecycle import WorkerPool
from repro.workload.apps import ConnectionSpec, connection_rows
from repro.workload.generator import _ChunkEmitter, _PendingMerger

__all__ = ["GenerationStats", "RowBatch", "parallel_tables"]


@dataclass
class GenerationStats:
    """Utilization accounting for one parallel generation run.

    ``busy_s`` sums the workers' in-materialization wall clock; compared
    against ``wall_s × workers`` it shows how much of the pool actually
    worked — the per-worker utilization the benchmark JSONs record.
    """

    workers: int = 0
    batches: int = 0
    rows: int = 0
    #: Summed worker-side materialization seconds (across all batches).
    busy_s: float = 0.0
    #: Parent wall clock from pool launch to the last emitted chunk.
    wall_s: float = 0.0

    def utilization(self) -> float:
        """Fraction of the pool's wall-clock capacity spent materializing."""
        if self.wall_s <= 0.0 or self.workers <= 0:
            return 0.0
        return self.busy_s / (self.wall_s * self.workers)


@dataclass
class RowBatch:
    """One worker's expanded spec batch, shipped back as raw columns.

    ``counts[j]`` is the row count of spec ``base_index + j`` — zero
    counts are reported so the parent can skip pair interning for empty
    specs exactly like the serial path does.  ``py_local`` indexes the
    *batch-local* ``payloads`` pool (0 = empty payload, ``i`` = the
    pool's ``i-1``-th entry); the parent remaps it onto the shared pool.
    """

    base_index: int
    counts: array
    ts: array
    ob: array
    sz: array
    fl: array
    py_local: array
    payloads: List[bytes] = field(default_factory=list)
    #: Worker-side seconds spent materializing this batch.
    busy_s: float = 0.0


def _materialize_batch(task: Tuple[int, int, Sequence[ConnectionSpec]]) -> RowBatch:
    """Worker entry: expand a contiguous spec slice to column arrays.

    Runs in a pool process.  Every spec uses its private
    ``derive_seed(seed, spec_index)`` RNG — the same stream the serial
    path would draw — so the rows are bit-identical to a serial
    expansion of the same slice.
    """
    seed, base_index, specs = task
    started = time.perf_counter()
    counts = array("l")
    ts = array("d")
    ob = array("b")
    sz = array("q")
    fl = array("I")
    py_local = array("l")
    pool_index = {}
    payloads: List[bytes] = []
    for offset, spec in enumerate(specs):
        rows = connection_rows(
            spec, random.Random(derive_seed(seed, base_index + offset))
        )
        counts.append(len(rows))
        if not rows:
            continue
        ts.extend([row[0] for row in rows])
        ob.extend([1 if row[1] else 0 for row in rows])
        sz.extend([row[2] for row in rows])
        fl.extend([row[3] for row in rows])
        for row in rows:
            payload = row[4]
            if not payload:
                py_local.append(0)
                continue
            pid = pool_index.get(payload)
            if pid is None:
                pid = len(payloads) + 1
                pool_index[payload] = pid
                payloads.append(payload)
            py_local.append(pid)
    return RowBatch(
        base_index=base_index,
        counts=counts,
        ts=ts,
        ob=ob,
        sz=sz,
        fl=fl,
        py_local=py_local,
        payloads=payloads,
        busy_s=time.perf_counter() - started,
    )


def _batch_size_for(spec_count: int, workers: int) -> int:
    """Batches per worker ≈ 4: small enough that the ordered consumption
    pipeline stays busy, large enough that per-batch dispatch overhead
    (task pickle + result unpickle) amortizes.  Batch size provably does
    not affect output — only wall clock."""
    return max(16, min(4096, -(-spec_count // (workers * 4))))


def parallel_tables(
    generator,
    chunk_size: Optional[int] = 65536,
    workers: int = 2,
    batch_size: Optional[int] = None,
    stats: Optional[GenerationStats] = None,
) -> Iterator[PacketTable]:
    """``TraceGenerator.iter_tables`` on a process pool.

    Yields the byte-identical chunk stream of the serial path (same
    columns, same shared pools, same chunk boundaries) while the heavy
    per-connection materialization runs on ``workers`` processes.
    Ordered ``imap`` consumption keeps memory bounded by a few in-flight
    batches plus the pending merge window, and overlaps the parent's
    interning/merging with the workers' materialization.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1: {chunk_size}")
    if workers < 2:
        yield from generator.iter_tables(chunk_size=chunk_size)
        return

    specs = generator.specs()
    seed = generator.config.seed
    pool_table = PacketTable()
    intern_pair = pool_table._pair_id
    intern_payload = pool_table._payload_id
    flush_floor = max(chunk_size or 0, 65536)

    merger = _PendingMerger()
    emitter = _ChunkEmitter(pool_table, chunk_size)
    use_numpy = merger.use_numpy
    np = merger._np

    if batch_size is None:
        batch_size = _batch_size_for(len(specs), workers)
    tasks = [
        (seed, base, specs[base:base + batch_size])
        for base in range(0, len(specs), batch_size)
    ]
    if stats is not None:
        stats.workers = workers
        stats.batches = len(tasks)

    # Fresh columns pending the next merge.  numpy mode buffers the
    # batches' ndarrays and concatenates at flush; stdlib mode keeps six
    # flat lists (what the stdlib merge consumes).
    buffers: List[list] = [[], [], [], [], [], []]

    def take_fresh() -> tuple:
        nonlocal buffers
        if use_numpy:
            dtypes = (np.float64, np.int64, np.uint32, np.int64,
                      np.int8, np.int64)
            fresh = tuple(
                np.concatenate(buf) if buf else np.empty(0, dtype=dtype)
                for buf, dtype in zip(buffers, dtypes)
            )
        else:
            fresh = tuple(buffers)
        buffers = [[], [], [], [], [], []]
        return fresh

    def append_batch(batch: RowBatch, batch_specs: Sequence[ConnectionSpec]) -> None:
        """Intern the batch into the shared pools (serial order contract)
        and stage its six columns for the next merge."""
        if use_numpy:
            counts = np.asarray(batch.counts, dtype=np.int64)
            ts = np.asarray(batch.ts, dtype=np.float64)
            ob = np.asarray(batch.ob, dtype=np.int8)
            sz = np.asarray(batch.sz, dtype=np.int64)
            fl = np.asarray(batch.fl, dtype=np.uint32)
            # Pairs: per spec in index order, empty specs skipped — the
            # serial path's interning order exactly.
            outs = np.zeros(len(counts), dtype=np.int64)
            ins = np.zeros(len(counts), dtype=np.int64)
            for j, count in enumerate(counts.tolist()):
                if not count:
                    continue
                base_pair = batch_specs[j].pair_from_client
                outs[j] = intern_pair(base_pair)
                ins[j] = intern_pair(base_pair.inverse)
            pi = np.where(ob != 0, np.repeat(outs, counts), np.repeat(ins, counts))
            # Payloads: the batch-local pool lists payloads in first-
            # appearance row order, so interning it front to back lands
            # new payloads at the exact global ids the serial path's
            # row-order interning would assign.
            remap = np.empty(len(batch.payloads) + 1, dtype=np.int64)
            remap[0] = 0
            for k, payload in enumerate(batch.payloads):
                remap[k + 1] = intern_payload(payload)
            py = remap[np.asarray(batch.py_local, dtype=np.int64)]
            staged = (ts, sz, fl, py, ob, pi)
            for buf, column in zip(buffers, staged):
                buf.append(column)
        else:
            ob = list(batch.ob)
            remap = [0] + [intern_payload(payload) for payload in batch.payloads]
            py = [remap[index] for index in batch.py_local]
            pi: List[int] = []
            position = 0
            for j, count in enumerate(batch.counts):
                if not count:
                    continue
                base_pair = batch_specs[j].pair_from_client
                pid_out = intern_pair(base_pair)
                pid_in = intern_pair(base_pair.inverse)
                pi.extend(
                    pid_out if ob[position + row] else pid_in
                    for row in range(count)
                )
                position += count
            staged = (list(batch.ts), list(batch.sz), list(batch.fl),
                      py, ob, pi)
            for buf, column in zip(buffers, staged):
                buf.extend(column)

    pool = WorkerPool(workers)
    pool.launch()
    started = time.perf_counter()
    completed = False
    try:
        grown = 0
        results = pool.imap(_materialize_batch, tasks)
        for (_, base, batch_specs), batch in zip(tasks, results):
            if grown >= flush_floor:
                grown = 0
                # Valid frontier: every row of this batch and all later
                # ones is timestamped at or after this batch's first
                # spec start (specs are start-sorted; rows never precede
                # their spec's start).
                columns, cut = merger.merge(take_fresh(), batch_specs[0].start)
                if cut:
                    yield from emitter.emit(columns, cut)
            append_batch(batch, batch_specs)
            grown += len(batch.ts)
            if stats is not None:
                stats.rows += len(batch.ts)
                stats.busy_s += batch.busy_s
        columns, cut = merger.merge(take_fresh(), None)
        yield from emitter.emit(columns, cut)
        if len(emitter.current):
            yield emitter.current
        completed = True
    finally:
        if stats is not None:
            stats.wall_s = time.perf_counter() - started
        if completed:
            pool.stop()
        else:
            # Abandoned mid-stream (consumer stopped early or an error
            # propagated): close() would wait out every queued batch.
            pool.terminate()

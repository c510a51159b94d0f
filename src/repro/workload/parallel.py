"""Trace materialization: the one path from connection specs to chunks.

Spec synthesis is cheap and inherently serial (one shared RNG walks the
Poisson arrival loop), but materialization — expanding each
:class:`~repro.workload.apps.ConnectionSpec` to packet rows — is seeded
*per spec* via ``derive_seed(seed, index)``, so every spec's rows are
the same whichever batch expands it.  :func:`materialize_tables` is
``TraceGenerator.iter_tables``:

1. it cuts the (start-sorted) spec list into contiguous batches;
2. :func:`_materialize_batch` expands each batch to a :class:`RowBatch`
   — columns plus the batch's payload rows.  With numpy on, a TCP
   connection expected to send more than
   :data:`~repro.workload.apps.COLUMN_ROWS` rows is built as numpy
   columns (:func:`~repro.workload.apps.tcp_columns`); every other
   connection takes the stdlib rows
   (:func:`~repro.workload.apps.connection_rows`), which give the same
   rows;
3. the consumer interns pairs and payloads into the stream's shared pool
   in the order a spec-by-spec expansion would (pairs per spec in index
   order, payloads in each spec's time order), then feeds the columns
   through one timestamp merge (:class:`_PendingMerger`) and one chunk
   emitter (:class:`_ChunkEmitter`).

The emitted chunk stream is the same bytes for every batch size and
with numpy on or off: the merge is a stable timestamp sort over rows
appended in admission order (same tiebreak invariant), and chunk
boundaries are consecutive ``chunk_size`` windows of the merged stream
regardless of flush cadence.  ``tests/workload/test_parallel_generation.py``,
``tests/workload/test_table_generation.py`` and
``tests/workload/test_tcp_columns.py`` pin all of this.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.hashing import derive_seed
from repro.net import table as _table
from repro.net.inet import IPPROTO_TCP
from repro.net.table import PacketTable
from repro.workload.apps import (
    COLUMN_ROWS,
    ConnectionSpec,
    connection_rows,
    expected_rows,
    tcp_columns,
)

__all__ = ["RowBatch", "materialize_tables"]


class _PendingMerger:
    """The timestamp merge of the trace materializer.

    Merge columns are ordered (timestamps, sizes, flags, payload_ids,
    outbound, pair_ids) — the order :class:`_ChunkEmitter` writes them
    into a :class:`PacketTable`.

    Pending rows live as six parallel columns, not row tuples — merging
    is an *index* sort by timestamp plus a gather per column, which
    numpy's stable argsort turns into a few C passes.  The heap merge's
    total order is (timestamp, admission counter, schedule position) —
    and rows enter the pending columns in (counter, position) order, an
    order every *stable* timestamp sort preserves on ties, so sorting by
    timestamp alone reproduces the heap stream without carrying tiebreak
    fields.  A connection's own rows may arrive unsorted (numpy columns
    come in append order): the stable sort then orders them as a stable
    sort of the connection alone would, which is how its schedule is
    sorted.  (After a flush the surviving tail is kept timestamp-sorted
    with ties in counter order, and newly appended rows carry strictly
    larger counters, so the invariant holds across flushes.)

    The numpy path keeps the surviving (already-sorted) tail as numpy
    arrays between flushes.  The mode is latched at construction so tail
    state stays one type for the stream's lifetime.  The numpy and
    stdlib paths compute the identical permutation (both are stable
    sorts keyed on timestamp with insertion-order ties).
    """

    __slots__ = ("use_numpy", "_np", "tails")

    def __init__(self) -> None:
        self._np = _table._numpy()
        self.use_numpy = self._np is not None
        if self.use_numpy:
            np = self._np
            self.tails = [
                np.empty(0, dtype=dtype)
                for dtype in (np.float64, np.int64, np.uint32, np.int64,
                              np.int8, np.int64)
            ]
        else:
            self.tails = [[], [], [], [], [], []]

    def merge(self, fresh: Sequence[list], frontier: Optional[float]) -> Tuple[tuple, int]:
        """Stable-sort the pending rows (sorted tail + fresh columns) by
        timestamp and split them at ``frontier``: rows timestamped at or
        before it are final (every future row is no earlier and carries a
        larger admission counter).  Returns ``(columns, count)`` — six
        merged columns of which the first ``count`` rows are ready to
        emit — and retains the rest, still sorted, as the new tail.

        ``fresh`` holds, per merge column, the pieces staged since the
        last merge, in admission order: ndarrays of the tail's dtype on
        the numpy path, any sequences on the stdlib path.
        """
        if self.use_numpy:
            np = self._np
            combined = [
                np.concatenate([tail, *pieces]) if pieces else tail
                for tail, pieces in zip(self.tails, fresh)
            ]
            ts = combined[0]
            order = np.argsort(ts, kind="stable")
            merged_ts = ts[order]
            cut = (
                len(order) if frontier is None
                else int(np.searchsorted(merged_ts, frontier, side="right"))
            )
            head, rest = order[:cut], order[cut:]
            columns = [merged_ts[:cut]]
            new_tails = [merged_ts[cut:]]
            for column in combined[1:]:
                columns.append(column[head])
                new_tails.append(column[rest])
            self.tails = new_tails
        else:
            combined = self.tails  # owned: extended in place, replaced below
            for column, pieces in zip(combined, fresh):
                for piece in pieces:
                    column += piece
            ts = combined[0]
            order = sorted(range(len(ts)), key=ts.__getitem__)
            if frontier is None:
                cut = len(order)
            else:
                # Manual bisect over the permutation — 3.9's bisect
                # has no key=.
                lo, hi = 0, len(order)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ts[order[mid]] <= frontier:
                        lo = mid + 1
                    else:
                        hi = mid
                cut = lo
            head, rest = order[:cut], order[cut:]
            columns = []
            new_tails = []
            for column in combined:
                columns.append([column[i] for i in head])
                new_tails.append([column[i] for i in rest])
            self.tails = new_tails
        return tuple(columns), cut


class _ChunkEmitter:
    """Fills bounded :class:`PacketTable` chunks from merged columns.

    All chunks spawn from one pool table so ``pair_ids``/``payload_ids``
    stay valid across the whole stream.  Emitted chunk boundaries are a
    pure function of the merged row stream and ``limit`` — consecutive
    ``limit``-row windows — so they are independent of *when* the caller
    flushed, which is what lets the materializer flush on batch
    boundaries of any size and still emit the same chunks.
    """

    __slots__ = ("pool", "limit", "current")

    def __init__(self, pool: PacketTable, limit: Optional[int]) -> None:
        self.pool = pool
        self.limit = limit
        self.current = pool.spawn()

    def emit(self, columns: tuple, count: int) -> List[PacketTable]:
        """Append ``count`` merged rows to the current chunk; return the
        chunks that filled up.  numpy columns land via raw-buffer
        ``frombytes`` (same element layout as the array typecodes);
        list columns via plain ``extend``.
        """
        limit = self.limit
        current = self.current
        done: List[PacketTable] = []
        start = 0
        raw = not isinstance(columns[0], list)
        while start < count:
            take = count - start
            if limit is not None:
                take = min(take, limit - len(current))
            stop = start + take
            targets = (
                current.timestamps, current.sizes, current.flags,
                current.payload_ids, current.outbound, current.pair_ids,
            )
            if raw:
                for target, column in zip(targets, columns):
                    target.frombytes(column[start:stop].tobytes())
            else:
                for target, column in zip(targets, columns):
                    target.fromlist(column[start:stop])
            start = stop
            if limit is not None and len(current) >= limit:
                done.append(current)
                current = self.pool.spawn()
        self.current = current
        return done


@dataclass
class RowBatch:
    """One spec batch, expanded to columns.

    ``counts[j]`` is the row count of the batch's ``j``-th spec — zero
    counts are reported so the consumer skips pair interning for empty
    specs.  The columns hold each spec's rows in turn: in timestamp order
    from the stdlib rows, in append order from numpy columns; the
    merge's stable sort puts both in the same places.  With numpy on they
    are ``array`` columns, which the consumer views as numpy arrays
    without a copy; without it, lists of per-spec tuples that the stdlib
    merge flattens once.  ``payloads[i]`` is the payload of batch row
    ``payload_rows[i]``, in the order a spec-by-spec expansion meets
    them.
    """

    counts: List[int]
    ts: Sequence
    ob: Sequence
    sz: Sequence
    fl: Sequence
    payload_rows: List[int]
    payloads: List[bytes]


def _materialize_batch(
    seed: int, base_index: int, specs: Sequence[ConnectionSpec]
) -> RowBatch:
    """Expand a contiguous spec slice, starting at spec ``base_index``,
    to columns.

    Every spec uses its private ``derive_seed(seed, spec_index)`` stream,
    so the rows are those of a spec-by-spec expansion whichever batch
    holds the spec and whichever of the two row builders it takes.  The
    column type follows ``repro.net.table._numpy()``.
    """
    columnar = _table._numpy() is not None
    if columnar:
        columns = (array("d"), array("b"), array("q"), array("I"))
        stage = array.extend
    else:
        columns = ([], [], [], [])
        stage = list.append
    counts: List[int] = []
    payload_rows: List[int] = []
    payloads: List[bytes] = []
    position = 0
    for index, spec in enumerate(specs, base_index):
        if (columnar and spec.protocol == IPPROTO_TCP
                and expected_rows(spec) > COLUMN_ROWS):
            built = tcp_columns(spec, derive_seed(seed, index))
            for column, values in zip(columns, built):
                column.frombytes(values.tobytes())
            for row, payload in built.payloads:
                payload_rows.append(position + row)
                payloads.append(payload)
            count = len(built.timestamps)
        else:
            rows = connection_rows(spec, random.Random(derive_seed(seed, index)))
            count = len(rows)
            if count:
                *values, carried = zip(*rows)
                for column, value in zip(columns, values):
                    stage(column, value)
                for row in compress(range(count), carried):
                    payload_rows.append(position + row)
                    payloads.append(carried[row])
        counts.append(count)
        position += count
    return RowBatch(counts, *columns, payload_rows, payloads)


def _batch_size_for(spec_count: int) -> int:
    """About four batches per trace, between 16 and 4,096 specs each.
    Batch size provably does not affect output — only wall clock."""
    return max(16, min(4096, -(-spec_count // 4)))


def materialize_tables(
    generator,
    chunk_size: Optional[int] = 65536,
    batch_size: Optional[int] = None,
) -> Iterator[PacketTable]:
    """``TraceGenerator.iter_tables``: the trace's chunk stream.

    Each batch is materialized, interned and staged in turn; the pending
    rows merge and emit once at least ``max(chunk_size, 65536)`` of them
    have grown since the last merge, so memory stays bounded by the rows
    of concurrent connections plus a batch and one chunk.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1: {chunk_size}")

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
        batch_size = _batch_size_for(len(specs))

    # Per merge column, the pieces staged since the last merge.
    pending: List[list] = [[], [], [], [], [], []]

    def append_batch(batch: RowBatch, batch_specs: Sequence[ConnectionSpec]) -> int:
        """Intern the batch into the shared pools (spec order), stage its
        six columns for the next merge and return its row count."""
        # Pairs per spec in index order, empty specs skipped.
        spans = []
        for spec, count in zip(batch_specs, batch.counts):
            if count:
                base_pair = spec.pair_from_client
                spans.append((intern_pair(base_pair),
                              intern_pair(base_pair.inverse), count))
        payload_ids = [intern_payload(payload) for payload in batch.payloads]
        rows = sum(batch.counts)
        if use_numpy:
            ob = np.asarray(batch.ob, dtype=np.int8)
            outs, ins, counts = np.array(spans, dtype=np.int64).reshape(-1, 3).T
            pi = np.where(ob != 0, np.repeat(outs, counts), np.repeat(ins, counts))
            py = np.zeros(rows, dtype=np.int64)
            py[np.asarray(batch.payload_rows, dtype=np.int64)] = payload_ids
            staged = ([np.asarray(batch.ts, dtype=np.float64)],
                      [np.asarray(batch.sz, dtype=np.int64)],
                      [np.asarray(batch.fl, dtype=np.uint32)], [py], [ob], [pi])
        else:
            py = [0] * rows
            for row, payload_id in zip(batch.payload_rows, payload_ids):
                py[row] = payload_id
            pi: List[int] = []
            for (pid_out, pid_in, _), outbound in zip(spans, batch.ob):
                pi += [pid_out if flag else pid_in for flag in outbound]
            staged = (batch.ts, batch.sz, batch.fl, [py], batch.ob, [pi])
        for pieces, column in zip(pending, staged):
            pieces += column
        return rows

    grown = 0
    for base in range(0, len(specs), batch_size):
        batch_specs = specs[base:base + batch_size]
        batch = _materialize_batch(seed, base, batch_specs)
        if grown >= flush_floor:
            grown = 0
            # Valid frontier: every row of this batch and all later ones
            # is timestamped at or after this batch's first spec start
            # (specs are start-sorted; rows never precede their spec's
            # start).
            columns, cut = merger.merge(pending, batch_specs[0].start)
            pending = [[], [], [], [], [], []]
            if cut:
                yield from emitter.emit(columns, cut)
        grown += append_batch(batch, batch_specs)
    columns, cut = merger.merge(pending, None)
    yield from emitter.emit(columns, cut)
    if len(emitter.current):
        yield emitter.current

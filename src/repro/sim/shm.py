"""Shared-memory lane dispatch for the parallel backend.

A multiprocess :func:`~repro.sim.parallel.parallel_replay` never pickles
a lane table.  The parent *publishes* every lane's columns plus the
shared interned pool into one
:class:`multiprocessing.shared_memory.SharedMemory` segment; what crosses
the pipe per lane is a :class:`ShmLane` — a name and a handful of
offsets.  Workers attach the segment, decode the (small) pool once per
segment, and wrap their lane's columns as a **zero-copy view table**
(:meth:`PacketTable.from_column_buffers`) mapped straight over the
parent's bytes.  Only the per-lane :class:`~repro.sim.parallel.LaneResult`
records travel back.

Layout of one segment::

    [pair pool bytes][payload pool bytes][lane 0 columns][lane 1 columns]...

Pools use the wire codec's record formats (:func:`repro.net.stream.pack_pairs`
/ :func:`pack_payloads`); columns are raw native-layout bytes — the
segment never leaves the machine, so no endianness or width translation
is needed.  Lifetime: the parent owns the segment and unlinks it in
``dispose()`` after the pool joins; workers close their mapping in
``ShmAttachment.close()``.  Nothing in the segment is executable — a
worker decodes offsets and raw numbers, never unpickles.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.packet import SocketPair
from repro.net.stream import (
    pack_pairs,
    pack_payloads,
    unpack_pairs,
    unpack_payloads,
)
from repro.net.table import PacketTable


@dataclass
class ShmLane:
    """A picklable reference to one lane's columns inside a segment.

    This is the whole per-lane dispatch payload: a segment name, the row
    count, per-column ``(offset, nbytes)`` spans and the shared pool
    spans.  Compare with pickling the lane table itself, which ships
    every column byte plus the full interned pool through the pipe.
    """

    shm_name: str
    lane: int
    rows: int
    #: column name -> (byte offset, byte length) inside the segment.
    columns: Dict[str, Tuple[int, int]]
    #: (offset, nbytes, count) of the packed SocketPair pool.
    pair_span: Tuple[int, int, int]
    #: (offset, nbytes, count) of the packed payload pool (entry 0, the
    #: implicit empty payload, is never stored).
    payload_span: Tuple[int, int, int]


class ShmAttachment:
    """A worker's view of one :class:`ShmLane`: the zero-copy view table
    plus the release handle.

    ``close()`` releases the lane's column views — a mapped
    ``memoryview`` keeps the buffer exported, and the mapping (owned by
    the per-worker segment cache, not this attachment) cannot unmap
    under live exports.
    """

    def __init__(self, table: PacketTable, views: List[memoryview]) -> None:
        self.table = table
        self._views = views
        self._closed = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        table = self.table
        self.table = None
        if table is not None:
            # Release the table's column casts so the exports die now,
            # not whenever GC gets around to the table.
            for name, _ in PacketTable.COLUMNS:
                try:
                    getattr(table, name).release()
                except (AttributeError, BufferError):  # pragma: no cover
                    pass
        for view in self._views:
            try:
                view.release()
            except BufferError:  # pragma: no cover - a leaked sub-view
                pass
        self._views = []


# Workers typically replay several lanes of the *same* segment; cache the
# mapping and the decoded pool so the pool parses once per segment, not
# once per lane.  One entry is enough — all lanes of one dispatch share
# one segment — and the mapping lives for the worker's lifetime (the
# parent's unlink reclaims the kernel object once every mapping is gone).
_pool_cache: Dict[str, Tuple[object, List[SocketPair], List[bytes]]] = {}


def _evict_cache() -> None:
    for shm, _, _ in _pool_cache.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - stale lane still mapped
            pass
    _pool_cache.clear()


def _attach_segment(name: str, pair_span, payload_span):
    cached = _pool_cache.get(name)
    if cached is not None:
        return cached
    _evict_cache()
    shm = shared_memory.SharedMemory(name=name)
    # Attaching registers the segment with the resource tracker on
    # CPython < 3.13 (bpo-38119).  Under spawn each worker runs its own
    # tracker, which would unlink the segment out from under the parent
    # at worker exit — deregister there.  Under fork the tracker process
    # is *shared* with the parent, whose own create-time registration is
    # the same set entry; deregistering here would erase it, so leave it
    # alone (the parent's unlink clears it).
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        try:  # pragma: no cover - spawn-only platforms
            from multiprocessing import resource_tracker
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
    pair_off, pair_nbytes, pair_count = pair_span
    payload_off, payload_nbytes, payload_count = payload_span
    with memoryview(shm.buf)[pair_off:pair_off + pair_nbytes] as raw:
        pairs = unpack_pairs(raw, pair_count)
    with memoryview(shm.buf)[payload_off:payload_off + payload_nbytes] as raw:
        payloads = [b""] + unpack_payloads(raw, payload_count)
    _pool_cache[name] = (shm, pairs, payloads)
    return shm, pairs, payloads


def attach_lane(ref: ShmLane) -> ShmAttachment:
    """Map one lane's columns as a zero-copy view table (worker side)."""
    shm, pairs, payloads = _attach_segment(
        ref.shm_name, ref.pair_span, ref.payload_span
    )
    views: List[memoryview] = []
    columns: Dict[str, memoryview] = {}
    for name, (offset, nbytes) in ref.columns.items():
        view = memoryview(shm.buf)[offset:offset + nbytes]
        views.append(view)
        columns[name] = view
    table = PacketTable.from_column_buffers(columns, pairs, payloads)
    if len(table) != ref.rows:
        raise ValueError(
            f"lane {ref.lane}: segment holds {len(table)} rows, "
            f"dispatch said {ref.rows}"
        )
    return ShmAttachment(table, views)


class SharedTableArena:
    """The parent side: one segment holding every lane's columns.

    Build with :meth:`publish`; hand each :class:`ShmLane` in ``lanes``
    to its worker task; call :meth:`dispose` after the pool joins (a
    ``finally`` — the segment is a kernel object and outlives a crashed
    parent otherwise).
    """

    def __init__(self, shm, lanes: List[ShmLane]) -> None:
        self._shm = shm
        self.lanes = lanes
        self.nbytes = shm.size

    @classmethod
    def publish(cls, lane_tables: Sequence[Tuple[int, PacketTable]]) -> "SharedTableArena":
        """Copy lane columns + the shared pool into one fresh segment.

        All tables must share one interned pool (``partition_table``'s
        output contract) — the pool is stored once and every lane's id
        columns index it unchanged.
        """
        if not lane_tables:
            raise ValueError("nothing to publish")
        pool_owner = lane_tables[0][1]
        for _, table in lane_tables:
            if table.pairs is not pool_owner.pairs:
                raise ValueError(
                    "lane tables must share one interned pool to share a "
                    "segment"
                )
        pair_blob = pack_pairs(pool_owner.pairs)
        payload_blob = pack_payloads(pool_owner.payloads[1:])

        # Size pass: pools first, then each lane's columns back to back.
        offset = len(pair_blob) + len(payload_blob)
        plans = []
        for lane, table in lane_tables:
            buffers = table.column_buffers()
            spans = {}
            for name, _, view in buffers:
                spans[name] = (offset, view.nbytes)
                offset += view.nbytes
            plans.append((lane, table, buffers, spans))

        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        try:
            target = shm.buf
            target[:len(pair_blob)] = pair_blob
            payload_off = len(pair_blob)
            target[payload_off:payload_off + len(payload_blob)] = payload_blob
            lanes = []
            for lane, table, buffers, spans in plans:
                for name, _, view in buffers:
                    start, nbytes = spans[name]
                    target[start:start + nbytes] = view
                    view.release()
                lanes.append(ShmLane(
                    shm_name=shm.name,
                    lane=lane,
                    rows=len(table),
                    columns=spans,
                    pair_span=(0, len(pair_blob), len(pool_owner.pairs)),
                    payload_span=(payload_off, len(payload_blob),
                                  len(pool_owner.payloads) - 1),
                ))
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return cls(shm, lanes)

    def dispose(self) -> None:
        """Unmap and unlink the segment (idempotent)."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

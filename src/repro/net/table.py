"""Columnar packet plane: the struct-of-arrays trace representation.

A million-packet replay through :class:`~repro.net.packet.Packet` objects
pays a Python object header, a :class:`~repro.net.packet.SocketPair`
tuple and a payload reference *per packet* — and then the batched engine
re-derives parallel arrays from them on every run.  :class:`PacketTable`
makes the struct-of-arrays form native: one ``array`` column per scalar
field (timestamps, sizes, flags, direction) plus *interned* socket pairs
and payloads, so per-packet storage is a handful of machine words and
per-flow work (hashing, shard routing) happens once per distinct flow
instead of once per packet — the same header-only economy that in-packet
Bloom-filter designs get from keeping all per-packet state in a few
words.

Representations convert losslessly in both directions
(:meth:`PacketTable.from_packets` / :meth:`PacketTable.to_packets`), and
every consumer of the replay engine accepts either.  Rows can also be
*viewed* without materialization: :class:`PacketView` is a zero-allocation
cursor over one row that satisfies the :class:`Packet` field protocol
(``timestamp``/``pair``/``size``/``flags``/``payload``/``direction``), so
the sequential backend and the blocklist see "packets" that are really
column reads.

An optional numpy acceleration path speeds up the bulk column operations
(selection, per-lane partitioning, direction scans) when numpy is
installed; it is bit-identical to the stdlib path — both are pure
integer/data movement — and the test suite runs both.  numpy is imported
on first use through :func:`_numpy`, so per-packet work never loads it.
"""

from __future__ import annotations

import importlib.util
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.net.packet import Direction, Packet, SocketPair

#: True when numpy is installed (found without importing it).  Tests flip
#: the module-level ``_use_numpy`` flag to force the stdlib path and
#: assert bit-identical results.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
_use_numpy = HAVE_NUMPY
#: The numpy module once imported; False after an import that failed.
_np = None

_MAX_FLAGS = 1 << 32
_EMPTY = b""


def _numpy():
    """numpy when the acceleration path is on, else None.

    The first call imports numpy; an installed numpy that fails to import
    leaves every caller on the stdlib path.
    """
    global _np
    if not _use_numpy:
        return None
    if _np is None:
        try:
            import numpy
        except ImportError:
            _np = False
        else:
            _np = numpy
    return _np or None


def _column_dtype(column) -> str:
    """A column's element typecode, whether it is an ``array`` or a
    zero-copy ``memoryview`` over an external buffer (which has
    ``format`` instead of ``typecode``)."""
    typecode = getattr(column, "typecode", None)
    return typecode if typecode is not None else column.format


class PacketTable:
    """A packet trace as parallel columns with interned flows.

    Columns (all equal length, one entry per packet):

    * ``timestamps`` — ``array('d')``, seconds;
    * ``sizes`` — ``array('q')``, wire bytes;
    * ``flags`` — ``array('I')``, TCP flag bits (0 for UDP);
    * ``outbound`` — ``array('b')``, 1 outbound / 0 inbound;
    * ``pair_ids`` — ``array('l')`` into ``pairs`` (interned
      :class:`SocketPair` pool);
    * ``payload_ids`` — ``array('l')`` into ``payloads`` (interned
      ``bytes`` pool; the empty payload is entry 0).

    Sub-tables from :meth:`slice` / :meth:`select` share the parent's
    pools (ids stay valid), so partitioning a table into lanes copies
    only the fixed-width columns.
    """

    __slots__ = (
        "timestamps", "sizes", "flags", "outbound", "pair_ids",
        "payload_ids", "pairs", "payloads", "_pair_index", "_payload_index",
    )

    #: Column order and native typecodes — the canonical schema shared by
    #: the wire codec and the shared-memory transport.
    COLUMNS: Tuple[Tuple[str, str], ...] = (
        ("timestamps", "d"), ("sizes", "q"), ("flags", "I"),
        ("outbound", "b"), ("pair_ids", "l"), ("payload_ids", "l"),
    )
    COLUMN_TYPECODES: Dict[str, str] = dict(COLUMNS)

    def __init__(self) -> None:
        self.timestamps = array("d")
        self.sizes = array("q")
        self.flags = array("I")
        self.outbound = array("b")
        self.pair_ids = array("l")
        self.payload_ids = array("l")
        self.pairs: List[SocketPair] = []
        self.payloads: List[bytes] = [_EMPTY]
        self._pair_index: Optional[Dict[SocketPair, int]] = {}
        self._payload_index: Optional[Dict[bytes, int]] = {_EMPTY: 0}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _pair_id(self, pair: SocketPair) -> int:
        index = self._ensure_pair_index()
        pid = index.get(pair)
        if pid is None:
            pid = len(self.pairs)
            self.pairs.append(pair)
            index[pair] = pid
        return pid

    def _payload_id(self, payload: bytes) -> int:
        if not payload:
            return 0
        index = self._ensure_payload_index()
        pid = index.get(payload)
        if pid is None:
            pid = len(self.payloads)
            self.payloads.append(payload)
            index[payload] = pid
        return pid

    def _ensure_pair_index(self) -> Dict[SocketPair, int]:
        if self._pair_index is None:
            self._pair_index = {
                pair: pid for pid, pair in enumerate(self.pairs)
            }
        return self._pair_index

    def _ensure_payload_index(self) -> Dict[bytes, int]:
        if self._payload_index is None:
            self._payload_index = {
                payload: pid for pid, payload in enumerate(self.payloads)
            }
        return self._payload_index

    def append_row(
        self,
        timestamp: float,
        pair: SocketPair,
        size: int,
        flags: int,
        payload: bytes,
        outbound: int,
    ) -> None:
        """Append one packet as raw fields (``outbound``: 1 out / 0 in)."""
        if size < 0:
            raise ValueError(f"negative packet size: {size}")
        if not 0 <= flags < _MAX_FLAGS:
            raise ValueError(f"flags out of 32-bit range: {flags}")
        self.timestamps.append(timestamp)
        self.sizes.append(size)
        self.flags.append(flags)
        self.outbound.append(1 if outbound else 0)
        self.pair_ids.append(self._pair_id(pair))
        self.payload_ids.append(self._payload_id(payload))

    def append_packet(self, packet: Packet) -> None:
        """Append one :class:`Packet` (its direction must be set)."""
        direction = packet.direction
        if direction is None:
            raise ValueError("packet has no direction set")
        self.append_row(
            packet.timestamp,
            packet.pair,
            packet.size,
            packet.flags,
            packet.payload,
            direction is Direction.OUTBOUND,
        )

    @classmethod
    def from_packets(
        cls,
        packets: Iterable[Packet],
        payload_limit: Optional[int] = None,
    ) -> "PacketTable":
        """Columnarize a packet iterable.

        Every field round-trips exactly through :meth:`to_packets`.
        ``payload_limit`` truncates stored payloads (the pcap snaplen
        trick for header-only tables); ``None`` keeps them verbatim.
        Raises :class:`ValueError` on a packet without a direction —
        a table row *is* its direction bit, so there is no column for
        "unclassified".
        """
        if payload_limit is not None and payload_limit < 0:
            raise ValueError(f"payload_limit must be >= 0: {payload_limit}")
        table = cls()
        outbound_enum = Direction.OUTBOUND
        append_row = table.append_row
        for packet in packets:
            direction = packet.direction
            if direction is None:
                raise ValueError("packet has no direction set")
            payload = packet.payload
            if payload_limit is not None:
                payload = payload[:payload_limit]
            append_row(
                packet.timestamp,
                packet.pair,
                packet.size,
                packet.flags,
                payload,
                direction is outbound_enum,
            )
        return table

    @classmethod
    def from_pcap(
        cls,
        path: str,
        network: int,
        prefix_len: int,
        payload_limit: Optional[int] = None,
    ) -> "PacketTable":
        """Stream a pcap capture straight into a table.

        Records are read lazily (:func:`~repro.net.pcap.iter_pcap`),
        decoded one at a time and appended as columnar rows, so the
        capture is never held in memory twice — neither as a record list
        nor as ``Packet`` objects.  ``network``/``prefix_len`` classify
        direction the same way the CLI does: a source address inside the
        client CIDR makes the row outbound.  Undecodable records are
        skipped; ``payload_limit`` truncates stored payloads (pcap files
        snapped to headers already arrive truncated).
        """
        from repro.net.headers import HeaderError, decode_packet
        from repro.net.inet import in_network
        from repro.net.pcap import iter_pcap

        table = cls()
        append_row = table.append_row
        for record in iter_pcap(path):
            try:
                packet = decode_packet(record.data, record.timestamp)
            except HeaderError:
                continue
            payload = packet.payload
            if payload_limit is not None:
                payload = payload[:payload_limit]
            append_row(
                packet.timestamp,
                packet.pair,
                packet.size,
                packet.flags,
                payload,
                in_network(packet.pair.src_addr, network, prefix_len),
            )
        return table

    def extend(self, other: "PacketTable") -> "PacketTable":
        """Append every row of ``other`` (ids are re-interned)."""
        if not len(other):
            return self
        remap_pair = array(
            "l", (self._pair_id(pair) for pair in other.pairs)
        )
        remap_payload = array(
            "l", (self._payload_id(payload) for payload in other.payloads)
        )
        self.timestamps.extend(other.timestamps)
        self.sizes.extend(other.sizes)
        self.flags.extend(other.flags)
        self.outbound.extend(other.outbound)
        self.pair_ids.extend(remap_pair[pid] for pid in other.pair_ids)
        self.payload_ids.extend(
            remap_payload[pid] for pid in other.payload_ids
        )
        return self

    # ------------------------------------------------------------------
    # Shape / access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def last_timestamp(self) -> Optional[float]:
        return self.timestamps[-1] if self.timestamps else None

    def direction(self, position: int) -> Direction:
        return Direction.OUTBOUND if self.outbound[position] else Direction.INBOUND

    def pair(self, position: int) -> SocketPair:
        return self.pairs[self.pair_ids[position]]

    def packet(self, position: int) -> Packet:
        """Materialize one row as a fresh :class:`Packet`."""
        return Packet(
            timestamp=self.timestamps[position],
            pair=self.pairs[self.pair_ids[position]],
            size=self.sizes[position],
            flags=self.flags[position],
            payload=self.payloads[self.payload_ids[position]],
            direction=self.direction(position),
        )

    def to_packets(self) -> List[Packet]:
        """Materialize the whole table as :class:`Packet` objects."""
        return [self.packet(position) for position in range(len(self))]

    def __iter__(self) -> Iterator[Packet]:
        """Iterate *fresh* :class:`Packet` objects (safe to retain)."""
        for position in range(len(self)):
            yield self.packet(position)

    def view(self, position: int = 0) -> "PacketView":
        """A repositionable zero-allocation row cursor."""
        return PacketView(self, position)

    def iter_views(self) -> Iterator["PacketView"]:
        """Iterate every row through ONE reused :class:`PacketView`.

        Zero allocations per row: the same cursor object is yielded each
        time, re-seeked.  Callers must consume fields immediately and
        never retain the yielded view (the sequential replay stages read
        fields and move on, which is exactly this contract).
        """
        view = PacketView(self, 0)
        seek = view.seek
        for position in range(len(self)):
            seek(position)
            yield view

    # ------------------------------------------------------------------
    # Column slicing (the parallel backend's shard partitioner)
    # ------------------------------------------------------------------

    def _shallow(self) -> "PacketTable":
        """An empty table sharing this table's pools (ids stay valid)."""
        child = PacketTable.__new__(PacketTable)
        child.pairs = self.pairs
        child.payloads = self.payloads
        child._pair_index = None
        child._payload_index = None
        return child

    def spawn(self) -> "PacketTable":
        """An *empty* table sharing this table's pools.

        The streaming generator emits its trace as a sequence of spawned
        chunks over one growing pool: every chunk's ``pair_ids`` index the
        same interned flow list, so consumers can carry per-flow state
        (hash indices, shard routes) across chunks without re-interning.
        """
        child = self._shallow()
        child.timestamps = array("d")
        child.sizes = array("q")
        child.flags = array("I")
        child.outbound = array("b")
        child.pair_ids = array("l")
        child.payload_ids = array("l")
        return child

    def slice(self, start: int, stop: int) -> "PacketTable":
        """Rows ``[start, stop)`` as a pool-sharing sub-table."""
        child = self._shallow()
        child.timestamps = self.timestamps[start:stop]
        child.sizes = self.sizes[start:stop]
        child.flags = self.flags[start:stop]
        child.outbound = self.outbound[start:stop]
        child.pair_ids = self.pair_ids[start:stop]
        child.payload_ids = self.payload_ids[start:stop]
        return child

    def select(self, positions: Sequence[int]) -> "PacketTable":
        """The given rows (in order) as a pool-sharing sub-table."""
        child = self._shallow()
        np = _numpy() if len(positions) > 64 else None
        if np is not None:
            take = np.asarray(positions, dtype=np.int64)
            for name, typecode in self.COLUMNS:
                column = getattr(self, name)
                picked = np.frombuffer(column, dtype=_column_dtype(column))[take]
                setattr(child, name, array(typecode, picked.tobytes()))
        else:
            for name, typecode in self.COLUMNS:
                column = getattr(self, name)
                setattr(
                    child, name,
                    array(typecode, [column[i] for i in positions]),
                )
        return child

    # ------------------------------------------------------------------
    # Buffer export / zero-copy views (the shared-memory transport)
    # ------------------------------------------------------------------

    def column_buffers(self) -> List[Tuple[str, str, memoryview]]:
        """Every column as ``(name, typecode, byte view)``.

        The views alias the live column storage — they are valid only as
        long as the table is not mutated, and the caller must release
        them (or let them go out of scope) before appending.  This is the
        publish half of the zero-copy transport: the parent copies these
        bytes into shared memory once, instead of pickling the table.
        """
        return [
            (name, typecode, memoryview(getattr(self, name)).cast("B"))
            for name, typecode in self.COLUMNS
        ]

    @classmethod
    def from_column_buffers(
        cls,
        columns: Dict[str, memoryview],
        pairs: List[SocketPair],
        payloads: List[bytes],
    ) -> "PacketTable":
        """A *read-only view* table over external column buffers.

        ``columns`` maps each schema column name to a byte-level buffer
        (e.g. a ``multiprocessing.shared_memory`` slice); each is cast to
        its native typecode in place — no copy.  The result supports the
        whole read path (iteration, views, ``slice``/``select``, the
        fused fast path) but not ``append_row``: memoryviews have no
        ``append``.  Callers own the backing buffer's lifetime and must
        drop the table (and any sub-tables) before closing it.
        """
        table = cls.__new__(cls)
        rows = None
        for name, typecode in cls.COLUMNS:
            try:
                raw = columns[name]
            except KeyError:
                raise ValueError(f"missing column buffer: {name}") from None
            view = memoryview(raw).cast("B").cast(typecode)
            if rows is None:
                rows = len(view)
            elif len(view) != rows:
                raise ValueError(
                    f"column {name} has {len(view)} rows, expected {rows}"
                )
            setattr(table, name, view)
        table.pairs = pairs
        table.payloads = payloads
        table._pair_index = None
        table._payload_index = None
        return table

    def materialize(self) -> "PacketTable":
        """A mutable deep copy of the columns (pools still shared).

        Turns a zero-copy view table back into an ordinary ``array``
        table so it outlives its backing buffer.
        """
        child = self._shallow()
        for name, typecode in self.COLUMNS:
            setattr(child, name, array(typecode, getattr(self, name)))
        return child

    # ------------------------------------------------------------------
    # Flow scans (consumed by the fused replay loop / shard router)
    # ------------------------------------------------------------------

    def flow_slots(self) -> List[int]:
        """The table's distinct ``pair_id << 1 | outbound`` slots, one per
        (flow, direction) present, in ascending pair id with a pair's
        outbound slot first.

        What the batched engine needs to hash each flow at most once per
        direction per table instead of once per packet, and the blocked-σ
        gate its distinct flows.  The scan reads the table's own rows
        only, never its pool, so its cost follows the chunk however large
        a stream's interned pool has grown.  With numpy, a chunk whose
        pair ids span at most four times its rows marks its slots in an
        array over that span, one linear pass; a sparser chunk sorts
        them (``unique``).
        """
        if not len(self):
            return []
        np = _numpy() if len(self) > 64 else None
        if np is not None:
            pair_ids = np.frombuffer(
                self.pair_ids, dtype=_column_dtype(self.pair_ids)
            ).astype(np.int64, copy=False)
            inbound = np.frombuffer(self.outbound, dtype=np.int8) == 0
            low = int(pair_ids.min())
            span = int(pair_ids.max()) - low + 1
            # ``pair_id << 1 | inbound`` orders a pair's outbound slot
            # first; flipping the low bit turns it into the slot.
            if span > 4 * len(self):
                return (np.unique((pair_ids << 1) | inbound) ^ 1).tolist()
            seen = np.zeros(2 * span, dtype=np.bool_)
            seen[((pair_ids - low) << 1) | inbound] = True
            return ((np.flatnonzero(seen) ^ 1) + (low << 1)).tolist()
        slots = {
            pid << 1 | (is_out != 0)
            for pid, is_out in set(zip(self.pair_ids, self.outbound))
        }
        return sorted(slots, key=(1).__xor__)

    def lane_positions(self, lane_by_row: Sequence[int], lanes: int) -> List[array]:
        """Group row positions by a per-row lane id (−1 = default lane).

        Returns ``lanes + 1`` position arrays; the last one holds the
        −1 rows.  The numpy path and the stdlib loop produce identical
        arrays — grouping preserves row order either way.
        """
        groups = [array("l") for _ in range(lanes + 1)]
        np = _numpy() if len(self) > 64 else None
        if np is not None:
            rows = np.asarray(lane_by_row, dtype=np.int64)
            order = np.arange(len(rows), dtype=np.int64)
            for lane in range(lanes):
                picked = order[rows == lane]
                if picked.size:
                    groups[lane] = array("l", picked.tobytes())
            picked = order[rows < 0]
            if picked.size:
                groups[lanes] = array("l", picked.tobytes())
            return groups
        for position, lane in enumerate(lane_by_row):
            groups[lane if lane >= 0 else lanes].append(position)
        return groups

    # ------------------------------------------------------------------
    # Pickling (lane tables cross process boundaries)
    # ------------------------------------------------------------------

    def __getstate__(self) -> Tuple:
        # View tables hold memoryviews over external buffers; those don't
        # pickle, so materialize them into arrays for the wire.
        columns = tuple(
            column if isinstance(column, array) else array(typecode, column)
            for (name, typecode), column in zip(
                self.COLUMNS,
                (self.timestamps, self.sizes, self.flags, self.outbound,
                 self.pair_ids, self.payload_ids),
            )
        )
        return columns + (self.pairs, self.payloads)

    def __setstate__(self, state: Tuple) -> None:
        (self.timestamps, self.sizes, self.flags, self.outbound,
         self.pair_ids, self.payload_ids, self.pairs, self.payloads) = state
        self._pair_index = None
        self._payload_index = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PacketTable({len(self)} packets, {len(self.pairs)} flows, "
            f"{len(self.payloads)} payloads)"
        )


class PacketView:
    """A zero-allocation cursor over one :class:`PacketTable` row.

    Exposes the :class:`Packet` field protocol (``timestamp``, ``pair``,
    ``size``, ``flags``, ``payload``, ``direction`` plus the TCP flag
    helpers), reading straight from the columns.  One view is reused for
    a whole traversal (:meth:`PacketTable.iter_views`); consumers must
    not retain it across rows.  The :class:`SocketPair` it hands out is
    the real interned object, so keying dicts on ``view.pair`` is safe.
    """

    __slots__ = ("table", "position")

    def __init__(self, table: PacketTable, position: int = 0) -> None:
        self.table = table
        self.position = position

    def seek(self, position: int) -> "PacketView":
        self.position = position
        return self

    @property
    def timestamp(self) -> float:
        return self.table.timestamps[self.position]

    @property
    def pair(self) -> SocketPair:
        table = self.table
        return table.pairs[table.pair_ids[self.position]]

    @property
    def size(self) -> int:
        return self.table.sizes[self.position]

    @property
    def flags(self) -> int:
        return self.table.flags[self.position]

    @property
    def payload(self) -> bytes:
        table = self.table
        return table.payloads[table.payload_ids[self.position]]

    @property
    def direction(self) -> Direction:
        return (
            Direction.OUTBOUND
            if self.table.outbound[self.position]
            else Direction.INBOUND
        )

    @property
    def protocol(self) -> int:
        return self.pair.protocol

    @property
    def is_syn(self) -> bool:
        flags = self.flags
        return bool(flags & 0x02) and not bool(flags & 0x10)

    @property
    def is_synack(self) -> bool:
        flags = self.flags
        return bool(flags & 0x02) and bool(flags & 0x10)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & 0x01)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & 0x04)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketView(row {self.position} of {self.table!r})"


def as_table(packets) -> PacketTable:
    """Coerce any accepted trace representation to one PacketTable.

    Accepts a :class:`PacketTable` (returned as-is), an iterable of
    tables (concatenated into a fresh table — no input table is
    modified), or an iterable of :class:`Packet` objects.
    """
    if isinstance(packets, PacketTable):
        return packets
    iterator = iter(packets)
    try:
        first = next(iterator)
    except StopIteration:
        return PacketTable()
    if isinstance(first, PacketTable):
        merged = PacketTable().extend(first)
        for chunk in iterator:
            merged.extend(chunk)
        return merged
    table = PacketTable()
    table.append_packet(first)
    for packet in iterator:
        table.append_packet(packet)
    return table

"""Length-prefixed packet framing and the binary columnar table codec.

The service plane's socket source receives packet chunks from another
process (a capture shim, a replay driver) over a byte stream.  Frames
are ``!I``-prefixed: a 4-byte big-endian payload length followed by the
payload.  An *empty* payload is a keepalive — it decodes to an empty
chunk and carries no packets.

Every non-empty payload carries one :class:`~repro.net.table.PacketTable`
chunk in the binary columnar codec (:class:`TableEncoder` /
:func:`encode_table`): a versioned little-endian layout that ships the
table's raw column buffers plus *pool deltas* — only the socket pairs
and payloads the receiver has not seen yet — so a feed's ``pair_ids``
stay stable across frames without re-interning, and encode/decode is
bulk ``array`` I/O instead of per-row work.  A payload that does not
start with :data:`MAGIC` raises :class:`FramingError`.

Frame payload layout (all multi-byte header fields big-endian,
column data little-endian)::

    magic         4 bytes   0xAB 'R' 'P' 'T'
    version       1 byte    (currently 1)
    flags         1 byte    (reserved, must be 0)
    pair_base     !I        pairs the decoder pool must already hold
    pair_new      !I        socket pairs appended by this frame
    payload_base  !I        payload-pool entries already held (>= 1:
                            entry 0 is the implicit empty payload)
    payload_new   !I        payloads appended by this frame
    rows          !I        packets in this chunk
    pair delta    pair_new x 13 bytes  (!BIHIH: proto, src, sport, dst, dport)
    payload delta payload_new x (!I length + raw bytes)
    columns       6 x (!I byte-length + raw little-endian buffer), in
                  order: timestamps f64, sizes i64, flags u32,
                  outbound i8, pair_ids i64, payload_ids i64

Pool-delta semantics: a :class:`TableEncoder` tracks how much of the
chunk stream's shared interned pool it has already shipped and sends
only the tail (``pair_base`` = entries sent so far).  The decoder
appends the delta to its pool table and the frame's id columns index it
directly — lockstep, no re-interning.  A *standalone* frame
(``pair_base == 0``, ``payload_base == 1``) carries its entire pool;
decoding one against a non-empty pool falls back to re-interning so
independent feeders can still share one receiver pool.  Any other
base/pool mismatch is a desync and raises :class:`FramingError`.

No pickle ever crosses this trust boundary: a corrupt or hostile frame
can raise :class:`FramingError`, never execute code.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import BinaryIO, List, Optional, Sequence, Tuple

from repro.net.packet import SocketPair
from repro.net.table import PacketTable, _numpy

_LENGTH = struct.Struct("!I")

#: Upper bound on one frame's payload — a corrupt or hostile length
#: prefix must not trigger a multi-gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: First bytes of a table payload.  0xAB is not printable ASCII, so a
#: text payload (JSON, a stray protocol) is rejected at its first byte.
MAGIC = b"\xabRPT"

#: Binary table codec version carried in every frame.
WIRE_VERSION = 1

_HEADER = struct.Struct("!4sBBIIIII")
_PAIR = struct.Struct("!BIHIH")
_U32 = struct.Struct("!I")

#: Wire columns in frame order: (table attribute, wire typecode, itemsize).
#: ``pair_ids``/``payload_ids`` are platform-``long`` arrays in memory but
#: always 8-byte on the wire; ``flags`` is always 4-byte.
_WIRE_COLUMNS = (
    ("timestamps", "d", 8),
    ("sizes", "q", 8),
    ("flags", "I", 4),
    ("outbound", "b", 1),
    ("pair_ids", "q", 8),
    ("payload_ids", "q", 8),
)

_BIG_ENDIAN_HOST = sys.byteorder == "big"


class FramingError(ValueError):
    """A stream violated the framing protocol (truncation, oversize,
    corrupt or unrecognized table payload)."""


# ---------------------------------------------------------------------------
# Frame I/O
# ---------------------------------------------------------------------------


def write_frame(stream: BinaryIO, payload: bytes) -> None:
    """Write one length-prefixed frame and flush it to the peer.

    The flush matters: feeders typically write through a buffered
    ``socket.makefile("wb")``, and without it a frame sits in the
    userspace buffer until the stream closes — a live service would see
    its feed stall for the feeder's whole lifetime.
    """
    if len(payload) > MAX_FRAME_BYTES:
        raise FramingError(f"frame too large: {len(payload)} bytes")
    stream.write(_LENGTH.pack(len(payload)))
    stream.write(payload)
    flush = getattr(stream, "flush", None)
    if flush is not None:
        flush()


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at a frame
    boundary, :class:`FramingError` on mid-frame truncation."""
    chunks = []
    remaining = count
    while remaining:
        piece = stream.read(remaining)
        if not piece:
            if remaining == count:
                return None
            raise FramingError(
                f"stream truncated mid-frame: wanted {count} bytes, "
                f"got {count - remaining}"
            )
        chunks.append(piece)
        remaining -= len(piece)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Optional[bytes]:
    """Read one frame's payload; ``None`` on clean EOF.

    ``b""`` is a valid return — a keepalive frame — and decodes to an
    empty chunk (:func:`decode_table` handles it)."""
    header = _read_exact(stream, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FramingError(f"frame length {length} exceeds {MAX_FRAME_BYTES}")
    if length == 0:
        return b""
    payload = _read_exact(stream, length)
    if payload is None:
        raise FramingError("stream truncated after frame header")
    return payload


# ---------------------------------------------------------------------------
# Pool packing (shared with the shared-memory lane dispatch, repro.sim.shm)
# ---------------------------------------------------------------------------


def pack_pairs(pairs: Sequence[SocketPair]) -> bytes:
    """Serialize socket pairs as fixed 13-byte records."""
    pack = _PAIR.pack
    return b"".join(pack(*pair) for pair in pairs)


def unpack_pairs(buffer, count: Optional[int] = None) -> List[SocketPair]:
    """Inverse of :func:`pack_pairs`; validates the record boundary."""
    size = _PAIR.size
    total = len(buffer)
    if count is None:
        if total % size:
            raise FramingError(f"pair pool length {total} not a multiple of {size}")
        count = total // size
    elif count * size > total:
        raise FramingError(
            f"pair delta truncated: {count} pairs need {count * size} bytes, "
            f"got {total}"
        )
    unpack_from = _PAIR.unpack_from
    return [SocketPair(*unpack_from(buffer, i * size)) for i in range(count)]


def pack_payloads(payloads: Sequence[bytes]) -> bytes:
    """Serialize payload blobs as length-prefixed records."""
    pack = _U32.pack
    return b"".join(pack(len(blob)) + blob for blob in payloads)


def unpack_payloads(buffer, count: Optional[int] = None) -> List[bytes]:
    """Inverse of :func:`pack_payloads`; validates every record boundary."""
    blobs: List[bytes] = []
    offset = 0
    total = len(buffer)
    while offset < total if count is None else len(blobs) < count:
        if offset + _U32.size > total:
            raise FramingError("payload delta truncated in a length prefix")
        (length,) = _U32.unpack_from(buffer, offset)
        offset += _U32.size
        if offset + length > total:
            raise FramingError(
                f"payload delta truncated: record wants {length} bytes, "
                f"{total - offset} left"
            )
        blobs.append(bytes(buffer[offset:offset + length]))
        offset += length
    return blobs


# ---------------------------------------------------------------------------
# Column conversion (native array/buffer <-> little-endian wire bytes)
# ---------------------------------------------------------------------------


def _column_to_wire(column, wire_typecode: str, wire_size: int) -> bytes:
    """One column's raw little-endian wire bytes.

    ``array`` columns whose itemsize already matches the wire width are
    dumped wholesale; platform-width mismatches (``'l'`` on 32-bit
    builds) and zero-copy ``memoryview`` columns convert elementwise.
    """
    if getattr(column, "itemsize", None) == wire_size and not _BIG_ENDIAN_HOST:
        return column.tobytes()
    converted = array(wire_typecode, column)
    if _BIG_ENDIAN_HOST and wire_size > 1:
        converted.byteswap()
    return converted.tobytes()


def _column_from_wire(raw, wire_typecode: str, wire_size: int,
                      native_typecode: str) -> array:
    """Rebuild a native column array from wire bytes."""
    native = array(native_typecode)
    if native.itemsize == wire_size and not _BIG_ENDIAN_HOST:
        native.frombytes(raw)
        return native
    wire = array(wire_typecode)
    wire.frombytes(raw)
    if _BIG_ENDIAN_HOST and wire_size > 1:
        wire.byteswap()
    if native.itemsize == wire.itemsize and native.typecode == wire.typecode:
        return wire
    return array(native_typecode, wire)


# ---------------------------------------------------------------------------
# Binary columnar codec
# ---------------------------------------------------------------------------


class TableEncoder:
    """Stateful binary encoder for a pool-sharing chunk stream.

    The generator's ``iter_tables`` stream (and any :meth:`PacketTable.spawn`
    chain) shares one growing interned pool across chunks; the encoder
    remembers how much of that pool it has shipped and each frame carries
    only the new tail, so the receiver's ``pair_ids`` stay stable without
    re-interning.  Feeding a table backed by a *different* pool object
    restarts the delta clock (the frame ships its full pool and decodes
    through the standalone path).
    """

    def __init__(self) -> None:
        self._pool_id: Optional[int] = None
        self._pairs_sent = 0
        self._payloads_sent = 1  # entry 0 is the implicit empty payload

    def encode(self, table: PacketTable) -> bytes:
        pairs = table.pairs
        payloads = table.payloads
        if self._pool_id != id(pairs):
            self._pool_id = id(pairs)
            self._pairs_sent = 0
            self._payloads_sent = 1
        pair_base = self._pairs_sent
        payload_base = self._payloads_sent
        new_pairs = pairs[pair_base:]
        new_payloads = payloads[payload_base:]
        rows = len(table)

        parts = [
            _HEADER.pack(MAGIC, WIRE_VERSION, 0, pair_base, len(new_pairs),
                         payload_base, len(new_payloads), rows),
            pack_pairs(new_pairs),
            pack_payloads(new_payloads),
        ]
        for name, wire_typecode, wire_size in _WIRE_COLUMNS:
            raw = _column_to_wire(getattr(table, name), wire_typecode, wire_size)
            parts.append(_U32.pack(len(raw)))
            parts.append(raw)

        self._pairs_sent = len(pairs)
        self._payloads_sent = len(payloads)
        return b"".join(parts)


def encode_table(table: PacketTable) -> bytes:
    """Serialize one table chunk as a standalone binary frame payload.

    Ships the table's entire pool; for a chunk *stream* over one shared
    pool, use a :class:`TableEncoder` so frames carry pool deltas.
    """
    return TableEncoder().encode(table)


def decode_table(payload: bytes, pool: Optional[PacketTable] = None) -> PacketTable:
    """Rebuild a table chunk from a frame payload.

    Empty payloads are keepalives (an empty chunk); anything not starting
    with :data:`MAGIC` raises :class:`FramingError`.

    ``pool`` makes the chunk share a long-lived table's interned
    flow/payload pools (:meth:`PacketTable.spawn`), so a feed's
    ``pair_ids`` stay stable across frames — appended in place on the
    lockstep path, re-interned for standalone frames.
    """
    if not payload:
        return pool.spawn() if pool is not None else PacketTable()
    head = payload[:1]
    if head != MAGIC[:1]:
        raise FramingError(
            f"unrecognized table payload (first byte {head!r} is not the "
            f"binary magic)"
        )
    if payload[:4] != MAGIC:
        raise FramingError(f"bad magic: {payload[:4]!r}")
    return _decode_binary(payload, pool)


def _decode_binary(payload: bytes, pool: Optional[PacketTable]) -> PacketTable:
    try:
        (magic, version, flags, pair_base, pair_new, payload_base,
         payload_new, rows) = _HEADER.unpack_from(payload, 0)
    except struct.error as error:
        raise FramingError(f"binary frame header truncated: {error}") from None
    if version != WIRE_VERSION:
        raise FramingError(
            f"unsupported wire version {version} (this build speaks "
            f"{WIRE_VERSION})"
        )
    if flags != 0:
        raise FramingError(f"reserved frame flags set: {flags:#04x}")
    if payload_base < 1:
        raise FramingError(
            f"payload_base {payload_base} < 1 (entry 0 is the implicit "
            f"empty payload)"
        )
    offset = _HEADER.size

    end = offset + pair_new * _PAIR.size
    if end > len(payload):
        raise FramingError(
            f"pair delta truncated: {pair_new} pairs need "
            f"{pair_new * _PAIR.size} bytes, {len(payload) - offset} left"
        )
    new_pairs = unpack_pairs(memoryview(payload)[offset:end], pair_new)
    offset = end

    remainder = memoryview(payload)[offset:]
    new_payloads = unpack_payloads(remainder, payload_new)
    for blob in new_payloads:
        offset += _U32.size + len(blob)

    columns = {}
    for name, wire_typecode, wire_size in _WIRE_COLUMNS:
        if offset + _U32.size > len(payload):
            raise FramingError(f"column {name} truncated in its length prefix")
        (nbytes,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        if nbytes != rows * wire_size:
            raise FramingError(
                f"column {name} length mismatch: {nbytes} bytes for {rows} "
                f"rows of {wire_size}"
            )
        if offset + nbytes > len(payload):
            raise FramingError(
                f"column {name} truncated: wants {nbytes} bytes, "
                f"{len(payload) - offset} left"
            )
        columns[name] = _column_from_wire(
            memoryview(payload)[offset:offset + nbytes],
            wire_typecode, wire_size, PacketTable.COLUMN_TYPECODES[name],
        )
        offset += nbytes
    if offset != len(payload):
        raise FramingError(
            f"{len(payload) - offset} trailing bytes after the last column"
        )

    if rows:
        # Ids are checked against the frame's own id space, before any
        # remap or pool append: a rejected frame leaves the pool as it was.
        np = _numpy() if rows > 64 else None
        if np is None:
            least, most = min, max
        else:
            # numpy's reductions over zero-copy views: no Python object
            # per element.
            def least(column):
                return int(np.frombuffer(column, dtype=column.typecode).min())

            def most(column):
                return int(np.frombuffer(column, dtype=column.typecode).max())
        pair_ids = columns["pair_ids"]
        payload_ids = columns["payload_ids"]
        if least(pair_ids) < 0 or most(pair_ids) >= pair_base + pair_new:
            raise FramingError("pair_ids column indexes beyond the pool")
        if least(payload_ids) < 0 or most(payload_ids) >= payload_base + payload_new:
            raise FramingError("payload_ids column indexes beyond the pool")
        if least(columns["sizes"]) < 0:
            raise FramingError("negative packet size in sizes column")

    standalone = pair_base == 0 and payload_base == 1
    if pool is None:
        if not standalone:
            raise FramingError(
                f"delta frame (pair_base={pair_base}, "
                f"payload_base={payload_base}) needs a pool table"
            )
        table = PacketTable()
        table.pairs = new_pairs
        table.payloads = [b""] + new_payloads
        table._pair_index = None
        table._payload_index = None
    elif pair_base == len(pool.pairs) and payload_base == len(pool.payloads):
        # Lockstep delta: append in place, ids index the pool directly.
        pair_index = pool._ensure_pair_index()
        for pair in new_pairs:
            pair_index[pair] = len(pool.pairs)
            pool.pairs.append(pair)
        payload_index = pool._ensure_payload_index()
        for blob in new_payloads:
            payload_index[blob] = len(pool.payloads)
            pool.payloads.append(blob)
        table = pool.spawn()
    elif standalone:
        # A full-pool frame against an already-populated pool: re-intern
        # so independent feeders can share one receiver pool at the cost
        # of an id remap.
        remap_pair = array("l", (pool._pair_id(pair) for pair in new_pairs))
        remap_payload = array("l", [0])
        remap_payload.extend(pool._payload_id(blob) for blob in new_payloads)
        columns["pair_ids"] = array(
            "l", (remap_pair[pid] for pid in columns["pair_ids"])
        )
        columns["payload_ids"] = array(
            "l", (remap_payload[pid] for pid in columns["payload_ids"])
        )
        table = pool.spawn()
    else:
        raise FramingError(
            f"pool desync: frame expects {pair_base} pairs / {payload_base} "
            f"payloads already interned, pool holds {len(pool.pairs)} / "
            f"{len(pool.payloads)}"
        )
    for name, _, _ in _WIRE_COLUMNS:
        setattr(table, name, columns[name])
    return table


class FrameWriter:
    """A feeder's sending half: stateful pool-delta frames, flushed.

    Wraps a writable binary stream (typically ``socket.makefile("wb")``)
    and encodes each chunk with one long-lived :class:`TableEncoder`, so
    a pool-sharing chunk stream ships pool deltas.
    """

    def __init__(self, stream: BinaryIO) -> None:
        self.stream = stream
        self._encoder = TableEncoder()
        self.frames_sent = 0
        self.bytes_sent = 0

    def send(self, table: PacketTable) -> int:
        """Encode and write one chunk; returns the payload byte count."""
        payload = self._encoder.encode(table)
        write_frame(self.stream, payload)
        self.frames_sent += 1
        self.bytes_sent += len(payload)
        return len(payload)

    def keepalive(self) -> None:
        """Write an empty frame (decodes to an empty chunk)."""
        write_frame(self.stream, b"")
        self.frames_sent += 1

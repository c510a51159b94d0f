"""Tests for the length-prefixed packet framing (repro.net.stream)."""

import io
import socket
import struct
import threading

import pytest

import repro.net.stream as stream_mod
from repro.net.stream import (
    MAGIC,
    WIRE_VERSION,
    FrameWriter,
    FramingError,
    MAX_FRAME_BYTES,
    TableEncoder,
    decode_table,
    encode_table,
    read_frame,
    write_frame,
)
from repro.net.table import PacketTable
from repro.workload import TraceConfig, TraceGenerator

from tests.conftest import in_packet, out_packet, tcp_pair

_HEADER_SIZE = struct.calcsize("!4sBBIIIII")


#: Rows of :func:`long_frame`: past the 64-row cut where decode_table's
#: range checks run through numpy.
LONG_ROWS = 100


def long_frame():
    """A standalone frame of LONG_ROWS rows over two pairs and two
    payloads (the empty one and ``b"\x01"``)."""
    table = PacketTable()
    for row in range(LONG_ROWS):
        if row % 2:
            table.append_packet(in_packet(t=1.0 + row, size=60, payload=b"\x01"))
        else:
            table.append_packet(out_packet(t=1.0 + row, size=100))
    return bytearray(encode_table(table))


def long_frame_offset(column, row):
    """Byte offset of ``row``'s value in one of :func:`long_frame`'s
    8-byte columns, counted back from the frame's end: payload_ids is the
    last column, pair_ids the one before, and sizes the second of six."""
    block = 4 + LONG_ROWS * 8
    if column == "payload_ids":
        end = 0
    elif column == "pair_ids":
        end = block
    else:  # sizes: before flags (4-byte), outbound (1-byte) and the ids
        end = 2 * block + (4 + LONG_ROWS) + (4 + LONG_ROWS * 4)
    return -end - LONG_ROWS * 8 + 8 * row


def sample_table():
    table = PacketTable()
    table.append_packet(out_packet(t=1.0, size=100, flags=0x02))
    table.append_packet(in_packet(t=1.2, size=60, flags=0x12, payload=b"\x01\x02"))
    table.append_packet(out_packet(t=2.5, size=1500))
    return table


class TestFraming:
    def test_roundtrip(self):
        buffer = io.BytesIO()
        write_frame(buffer, b"hello")
        write_frame(buffer, b"")
        write_frame(buffer, b"world")
        buffer.seek(0)
        assert read_frame(buffer) == b"hello"
        assert read_frame(buffer) == b""
        assert read_frame(buffer) == b"world"
        assert read_frame(buffer) is None  # clean EOF

    def test_truncated_payload(self):
        buffer = io.BytesIO()
        write_frame(buffer, b"hello")
        data = buffer.getvalue()[:-2]
        with pytest.raises(FramingError):
            read_frame(io.BytesIO(data))

    def test_truncated_header(self):
        buffer = io.BytesIO()
        write_frame(buffer, b"hello")
        data = buffer.getvalue()[:2]
        with pytest.raises(FramingError):
            read_frame(io.BytesIO(data))

    def test_oversize_length_rejected_without_allocating(self):
        header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(FramingError):
            read_frame(io.BytesIO(header))

    def test_oversize_write_rejected(self):
        class NullStream:
            def write(self, data):
                raise AssertionError("should not write")

        with pytest.raises(FramingError):
            write_frame(NullStream(), b"x" * (MAX_FRAME_BYTES + 1))


class TestTableCodec:
    def test_roundtrip_fields(self):
        table = sample_table()
        decoded = decode_table(encode_table(table))
        assert len(decoded) == len(table)
        assert list(decoded.timestamps) == list(table.timestamps)
        assert list(decoded.sizes) == list(table.sizes)
        assert list(decoded.flags) == list(table.flags)
        assert list(decoded.outbound) == list(table.outbound)
        for position in range(len(table)):
            assert decoded.pair(position) == table.pair(position)
        assert decoded.payloads[decoded.payload_ids[1]] == b"\x01\x02"

    def test_pool_sharing_keeps_pair_ids_stable(self):
        """Chunks decoded against one pool table intern flows once, so a
        flow keeps its pair_id across frames — the generator stream's
        contract, preserved over the wire."""
        generator = TraceGenerator(
            TraceConfig(duration=6.0, connection_rate=5.0, seed=3)
        )
        chunks = list(generator.iter_tables(64))
        pool = PacketTable()
        decoded = [
            decode_table(encode_table(chunk), pool=pool) for chunk in chunks
        ]
        seen = {}
        for chunk in decoded:
            for position in range(len(chunk)):
                pair = chunk.pair(position)
                pair_id = chunk.pair_ids[position]
                if pair in seen:
                    assert seen[pair] == pair_id
                else:
                    seen[pair] = pair_id

    def test_generator_chunk_roundtrip_packets(self):
        generator = TraceGenerator(
            TraceConfig(duration=4.0, connection_rate=4.0, seed=5)
        )
        table = next(iter(generator.iter_tables(256)))
        decoded = decode_table(encode_table(table))

        def rows(packets):
            return [
                (p.timestamp, p.pair, p.size, p.flags, p.payload, p.direction)
                for p in packets
            ]

        assert rows(decoded.to_packets()) == rows(table.to_packets())

    def test_flushes_buffered_stream_per_frame(self):
        """A frame must reach the peer when written, not when the feeder
        closes — live services read a buffered ``makefile`` stream."""
        left, right = socket.socketpair()
        try:
            writer = left.makefile("wb")  # buffered: no flush, no bytes
            write_frame(writer, encode_table(sample_table()))
            right.settimeout(2.0)
            reader = right.makefile("rb")
            payload = read_frame(reader)  # writer is still open
            assert payload is not None
            assert len(decode_table(payload)) == 3
        finally:
            left.close()
            right.close()


class TestBinaryCodec:
    def stream_chunks(self, seed=3, duration=6.0, chunk_size=64):
        generator = TraceGenerator(
            TraceConfig(duration=duration, connection_rate=5.0, seed=seed)
        )
        return list(generator.iter_tables(chunk_size))

    def test_delta_stream_keeps_pair_ids_bit_identical(self):
        """A TableEncoder stream decoded against one pool reproduces the
        source pair_ids exactly — no re-interning on the lockstep path."""
        chunks = self.stream_chunks()
        encoder = TableEncoder()
        pool = PacketTable()
        for chunk in chunks:
            decoded = decode_table(encoder.encode(chunk), pool=pool)
            assert list(decoded.pair_ids) == list(chunk.pair_ids)
            assert list(decoded.payload_ids) == list(chunk.payload_ids)
        assert pool.pairs == chunks[-1].pairs

    def test_delta_frames_ship_only_the_pool_tail(self):
        chunks = self.stream_chunks()
        encoder = TableEncoder()
        frames = [encoder.encode(chunk) for chunk in chunks]
        standalone = [encode_table(chunk) for chunk in chunks]
        # Later delta frames omit already-shipped pool entries, so they
        # are strictly smaller than their standalone encodings.
        assert len(frames[-1]) < len(standalone[-1])

    def test_standalone_frame_reinterns_into_populated_pool(self):
        """A full-pool frame from an independent feeder decodes against an
        already-populated receiver pool by re-interning."""
        first, second = self.stream_chunks()[:2]
        pool = PacketTable()
        decoded_first = decode_table(encode_table(first), pool=pool)
        decoded_second = decode_table(encode_table(second), pool=pool)
        for source, decoded in ((first, decoded_first),
                                (second, decoded_second)):
            for position in range(len(source)):
                assert decoded.pair(position) == source.pair(position)
        # Shared flows interned once: both chunks' ids index one pool.
        assert decoded_second.pairs is pool.pairs

    def test_empty_payload_is_keepalive(self):
        assert len(decode_table(b"")) == 0
        pool = PacketTable()
        pool.append_packet(out_packet(t=1.0))
        chunk = decode_table(b"", pool=pool)
        assert len(chunk) == 0
        assert chunk.pairs is pool.pairs

    def test_delta_frame_without_pool_rejected(self):
        chunks = self.stream_chunks()
        encoder = TableEncoder()
        encoder.encode(chunks[0])
        delta = encoder.encode(chunks[1])
        with pytest.raises(FramingError, match="needs a pool"):
            decode_table(delta)

    def test_pool_desync_rejected(self):
        chunks = self.stream_chunks()
        encoder = TableEncoder()
        encoder.encode(chunks[0])
        delta = encoder.encode(chunks[1])
        # A pool that never saw frame 0 is neither lockstep nor standalone.
        with pytest.raises(FramingError, match="pool desync"):
            decode_table(delta, pool=PacketTable())

    def test_rejected_delta_leaves_the_pool_unchanged(self):
        source = PacketTable()
        source.append_packet(out_packet(t=1.0))
        encoder = TableEncoder()
        pool = PacketTable()
        decode_table(encoder.encode(source.slice(0, 1)), pool=pool)
        # A lockstep delta interning one new pair and one new payload,
        # whose single pair id is out of range.
        source.append_packet(out_packet(t=2.0, pair=tcp_pair(sport=9999),
                                        payload=b"\x07"))
        delta = bytearray(encoder.encode(source.slice(1, 2)))
        struct.pack_into("<q", delta, len(delta) - (4 + 8) - 8, -1)
        with pytest.raises(FramingError, match="pair_ids column indexes"):
            decode_table(bytes(delta), pool=pool)
        assert (len(pool.pairs), len(pool.payloads)) == (1, 1)

    def test_frame_writer_sends_deltas_and_keepalives(self):
        buffer = io.BytesIO()
        writer = FrameWriter(buffer)
        chunks = self.stream_chunks()
        for chunk in chunks:
            writer.send(chunk)
        writer.keepalive()
        assert writer.frames_sent == len(chunks) + 1
        buffer.seek(0)
        pool = PacketTable()
        received = []
        while (payload := read_frame(buffer)) is not None:
            chunk = decode_table(payload, pool=pool)
            if len(chunk):
                received.append(chunk)
        assert len(received) == len(chunks)
        for source, decoded in zip(chunks, received):
            assert list(decoded.pair_ids) == list(source.pair_ids)


class TestCorruptFrames:
    """A corrupt or hostile payload raises FramingError, never worse."""

    def frame(self):
        return bytearray(encode_table(sample_table()))

    def test_unrecognized_first_byte(self):
        with pytest.raises(FramingError, match="unrecognized"):
            decode_table(b"\x00\x01\x02")

    def test_json_rows_payload_rejected(self):
        """Table payloads are binary only: a JSON list of packet rows is
        an unrecognized payload, not a chunk."""
        rows = b'[[1.0,6,167837698,4000,3405803786,80,100,2,1,""]]'
        with pytest.raises(FramingError, match="unrecognized"):
            decode_table(rows)

    def test_bad_magic(self):
        corrupt = self.frame()
        corrupt[1:4] = b"XXX"  # keeps the 0xAB sniff byte
        with pytest.raises(FramingError, match="bad magic"):
            decode_table(bytes(corrupt))

    def test_wrong_version(self):
        corrupt = self.frame()
        corrupt[4] = WIRE_VERSION + 1
        with pytest.raises(FramingError, match="unsupported wire version"):
            decode_table(bytes(corrupt))

    def test_reserved_flags(self):
        corrupt = self.frame()
        corrupt[5] = 0x80
        with pytest.raises(FramingError, match="reserved frame flags"):
            decode_table(bytes(corrupt))

    def test_truncated_header(self):
        with pytest.raises(FramingError, match="header truncated"):
            decode_table(bytes(self.frame()[:_HEADER_SIZE - 2]))

    def test_truncated_pair_delta(self):
        with pytest.raises(FramingError, match="pair delta truncated"):
            decode_table(bytes(self.frame()[:_HEADER_SIZE + 3]))

    def test_truncated_payload_delta(self):
        # sample_table interns 2 pairs (13 bytes each) and one payload;
        # cut inside the payload delta's length prefix.
        cut = _HEADER_SIZE + 2 * 13 + 2
        with pytest.raises(FramingError, match="payload delta truncated"):
            decode_table(bytes(self.frame()[:cut]))

    def test_column_length_mismatch(self):
        corrupt = self.frame()
        # Inflate the header's row count: the first column's byte length
        # no longer matches rows * itemsize.
        (rows,) = struct.unpack_from("!I", corrupt, _HEADER_SIZE - 4)
        struct.pack_into("!I", corrupt, _HEADER_SIZE - 4, rows + 1)
        with pytest.raises(FramingError, match="length mismatch"):
            decode_table(bytes(corrupt))

    def test_truncated_column(self):
        with pytest.raises(FramingError, match="truncated"):
            decode_table(bytes(self.frame()[:-5]))

    def test_trailing_bytes(self):
        with pytest.raises(FramingError, match="trailing bytes"):
            decode_table(bytes(self.frame()) + b"\x00")

    def test_pair_id_beyond_pool(self):
        corrupt = self.frame()
        # The pair_ids column is 5th of 6; its last entry sits just
        # before the final column's (prefix + rows*8) bytes.
        rows = 3
        pair_ids_last = len(corrupt) - (4 + rows * 8) - 8
        struct.pack_into("<q", corrupt, pair_ids_last, 99)
        with pytest.raises(FramingError, match="pair_ids column indexes"):
            decode_table(bytes(corrupt))

    def test_negative_size_rejected(self):
        table = PacketTable()
        table.append_packet(out_packet(t=1.0, size=100))
        corrupt = bytearray(encode_table(table))
        # One row: the column region is 6 prefixes (4 B each) + 37 data
        # bytes; the sizes value sits after timestamps' prefix+data and
        # its own prefix, i.e. 45 bytes from the end.
        struct.pack_into("<q", corrupt, len(corrupt) - 45, -5)
        with pytest.raises(FramingError, match="negative packet size"):
            decode_table(bytes(corrupt))

    @pytest.mark.parametrize("path, pooled", [
        ("numpy", False), ("stdlib", False), ("numpy", True), ("stdlib", True),
    ], ids=["numpy", "stdlib", "numpy-populated-pool", "stdlib-populated-pool"])
    @pytest.mark.parametrize("column, value, message", [
        ("pair_ids", 2, "pair_ids column indexes"),
        ("pair_ids", -1, "pair_ids column indexes"),
        ("payload_ids", 2, "payload_ids column indexes"),
        ("payload_ids", -1, "payload_ids column indexes"),
        ("sizes", -5, "negative packet size"),
    ], ids=["pair-id-at-pool-size", "negative-pair-id",
            "payload-id-at-pool-size", "negative-payload-id", "negative-size"])
    def test_out_of_range_column_in_a_long_frame(self, monkeypatch, path, pooled,
                                                 column, value, message):
        """Frames past 64 rows check their id bounds and sizes with
        numpy's reductions (when numpy is on) and with the builtins
        otherwise; both reject the same corruption, decoded alone or
        re-interned into a populated pool (ids checked before the remap,
        so -1 cannot wrap around)."""
        if path == "stdlib":
            monkeypatch.setattr(stream_mod, "_numpy", lambda: None)
        pool = None
        if pooled:
            pool = PacketTable()
            pool.append_packet(out_packet(t=0.5, pair=tcp_pair(sport=9999)))
        corrupt = long_frame()
        struct.pack_into("<q", corrupt, long_frame_offset(column, LONG_ROWS // 2),
                         value)
        with pytest.raises(FramingError, match=message):
            decode_table(bytes(corrupt), pool=pool)

    def test_long_frame_decodes_on_both_paths(self, monkeypatch):
        numpy_table = decode_table(bytes(long_frame()))
        monkeypatch.setattr(stream_mod, "_numpy", lambda: None)
        stdlib_table = decode_table(bytes(long_frame()))
        assert len(numpy_table) == LONG_ROWS
        for name, _ in PacketTable.COLUMNS:
            assert getattr(numpy_table, name) == getattr(stdlib_table, name)
        assert numpy_table.pairs == stdlib_table.pairs

    def test_magic_constant_shape(self):
        payload = encode_table(sample_table())
        assert payload[:4] == MAGIC
        assert not MAGIC[:1].isascii() or MAGIC[0] == 0xAB

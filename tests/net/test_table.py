"""Property tests for the columnar packet plane.

The :class:`~repro.net.table.PacketTable` contract: every field of every
packet round-trips *exactly* through the struct-of-arrays representation
— timestamps, five-tuples, sizes, flags, payloads and directions — and a
replay over a table is bit-identical to a replay over the equivalent
``List[Packet]``, in both STRICT and HOLE_PUNCHING field modes.
"""

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.net.table as table_mod
from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode
from repro.filters.bitmap import BitmapPacketFilter
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import Direction, Packet, SocketPair
from repro.net.table import PacketTable, as_table
from repro.sim.replay import replay

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

socket_pairs = st.builds(
    SocketPair,
    st.sampled_from([IPPROTO_TCP, IPPROTO_UDP]),
    st.integers(0, 2 ** 32 - 1),
    st.integers(0, 65535),
    st.integers(0, 2 ** 32 - 1),
    st.integers(0, 65535),
)

timestamps = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
sizes = st.integers(0, 65535)
flag_values = st.integers(0, 2 ** 32 - 1)
payloads = st.binary(max_size=48)
directions = st.sampled_from([Direction.OUTBOUND, Direction.INBOUND])


def make_packet(timestamp, pair, size, flags, payload, direction):
    return Packet(timestamp, pair, size=size, flags=flags, payload=payload,
                  direction=direction)


packet_lists = st.lists(
    st.builds(make_packet, timestamps, socket_pairs, sizes, flag_values,
              payloads, directions),
    max_size=40,
)


def fields(packets):
    return [
        (p.timestamp, p.pair, p.size, p.flags, p.payload, p.direction)
        for p in packets
    ]


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


class TestRoundTrip:
    @given(packet_lists)
    @settings(max_examples=200)
    def test_from_packets_to_packets_exact(self, packets):
        table = PacketTable.from_packets(packets)
        assert len(table) == len(packets)
        assert fields(table.to_packets()) == fields(packets)

    @given(packet_lists)
    @settings(max_examples=100)
    def test_append_packet_matches_from_packets(self, packets):
        table = PacketTable()
        for packet in packets:
            table.append_packet(packet)
        assert fields(table.to_packets()) == fields(packets)

    @given(packet_lists)
    @settings(max_examples=100)
    def test_views_read_every_field(self, packets):
        table = PacketTable.from_packets(packets)
        got = [
            (v.timestamp, v.pair, v.size, v.flags, v.payload, v.direction)
            for v in table.iter_views()
        ]
        assert got == fields(packets)

    @given(packet_lists, st.integers(0, 16))
    @settings(max_examples=100)
    def test_payload_limit_truncates(self, packets, limit):
        table = PacketTable.from_packets(packets, payload_limit=limit)
        for packet, back in zip(packets, table.to_packets()):
            assert back.payload == packet.payload[:limit]
            assert back.size == packet.size  # wire size is never touched

    @given(packet_lists)
    @settings(max_examples=100)
    def test_interning_pools(self, packets):
        table = PacketTable.from_packets(packets)
        assert table.payloads[0] == b""  # the empty payload is always id 0
        assert len(set(table.pairs)) == len(table.pairs)
        assert set(table.pairs) == {p.pair for p in packets}

    @given(packet_lists)
    @settings(max_examples=50)
    def test_pickle_round_trip(self, packets):
        table = PacketTable.from_packets(packets)
        clone = pickle.loads(pickle.dumps(table))
        assert fields(clone.to_packets()) == fields(packets)

    @given(packet_lists, st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=100)
    def test_slice_matches_list_slice(self, packets, start, stop):
        table = PacketTable.from_packets(packets)
        start = min(start, len(packets))
        stop = min(max(stop, start), len(packets))
        assert fields(table.slice(start, stop).to_packets()) == fields(
            packets[start:stop]
        )


class TestValidation:
    def test_direction_none_rejected_by_from_packets(self):
        stray = Packet(1.0, SocketPair(IPPROTO_TCP, 1, 2, 3, 4), size=40)
        assert stray.direction is None
        with pytest.raises(ValueError, match="direction"):
            PacketTable.from_packets([stray])

    def test_direction_none_rejected_by_append_packet(self):
        stray = Packet(1.0, SocketPair(IPPROTO_TCP, 1, 2, 3, 4), size=40)
        with pytest.raises(ValueError, match="direction"):
            PacketTable().append_packet(stray)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            PacketTable().append_row(
                0.0, SocketPair(IPPROTO_TCP, 1, 2, 3, 4), -1, 0, b"", 1
            )

    def test_flags_out_of_range_rejected(self):
        pair = SocketPair(IPPROTO_TCP, 1, 2, 3, 4)
        with pytest.raises(ValueError):
            PacketTable().append_row(0.0, pair, 40, 1 << 32, b"", 1)
        with pytest.raises(ValueError):
            PacketTable().append_row(0.0, pair, 40, -1, b"", 1)

    def test_as_table_passes_tables_through(self):
        table = PacketTable()
        assert as_table(table) is table

    @pytest.mark.parametrize("wrap", [list, iter], ids=["list", "iterator"])
    def test_as_table_leaves_input_tables_untouched(self, wrap):
        from repro.workload.generator import TraceConfig, TraceGenerator

        chunks = list(TraceGenerator(
            TraceConfig(duration=20.0, connection_rate=6.0, seed=3)
        ).iter_tables(200))
        assert len(chunks) > 2

        def shape(table):
            return (len(table),
                    [bytes(getattr(table, name)) for name, _ in PacketTable.COLUMNS],
                    list(table.pairs), list(table.payloads))

        before = [shape(chunk) for chunk in chunks]
        merged = as_table(wrap(chunks))
        assert [shape(chunk) for chunk in chunks] == before
        assert all(merged is not chunk for chunk in chunks)

        def rows(table):
            return [(p.timestamp, p.pair, p.size, p.flags, p.payload, p.direction)
                    for p in table]

        assert rows(merged) == [row for chunk in chunks for row in rows(chunk)]


# ---------------------------------------------------------------------------
# Cross-representation replay equivalence (incl. hole-punching field mode)
# ---------------------------------------------------------------------------


def replay_fingerprint(result):
    router = result.router
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "filter_stats": router.filter.stats.as_dict(),
        "core_stats": router.filter.core.stats.as_dict(),
        "blocked": dict(router.blocklist._blocked),
        "suppressed": router.blocklist.suppressed_packets,
    }


@given(packet_lists, st.sampled_from([FieldMode.STRICT, FieldMode.HOLE_PUNCHING]))
@settings(max_examples=50, deadline=None)
def test_replay_equivalent_across_representations(packets, field_mode):
    packets = sorted(packets, key=lambda p: p.timestamp)

    def run(trace):
        flt = BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** 12, vectors=3, hashes=2,
                               rotate_interval=5.0, field_mode=field_mode)
        )
        return replay_fingerprint(replay(trace, flt, use_blocklist=True))

    assert run(PacketTable.from_packets(packets)) == run(list(packets))


class TestColumnBuffers:
    """Zero-copy view tables: from_column_buffers over exported buffers."""

    def sample(self, rows=8):
        table = PacketTable()
        pair = SocketPair(IPPROTO_TCP, 0x0A010005, 4000, 0x5BADCAFE, 80)
        for i in range(rows):
            table.append_row(float(i), pair, 100 + i, 0x10,
                             b"x" * (i % 3), i % 2 == 0)
        return table

    def view_of(self, table):
        columns = {
            name: memoryview(bytes(view))
            for name, _, view in table.column_buffers()
        }
        return PacketTable.from_column_buffers(
            columns, table.pairs, table.payloads
        )

    def test_view_reproduces_every_column(self):
        table = self.sample()
        view = self.view_of(table)
        assert len(view) == len(table)
        for name, _ in PacketTable.COLUMNS:
            assert list(getattr(view, name)) == list(getattr(table, name))
        for position in range(len(table)):
            assert view.pair(position) == table.pair(position)

    def test_view_is_read_only(self):
        view = self.view_of(self.sample())
        with pytest.raises((TypeError, AttributeError, BufferError)):
            view.append_packet(self.sample().packet(0))

    def test_materialize_restores_mutability(self):
        table = self.sample()
        materialized = self.view_of(table).materialize()
        materialized.append_packet(table.packet(0))
        assert len(materialized) == len(table) + 1

    def test_view_pickles_by_materializing(self):
        view = self.view_of(self.sample())
        clone = pickle.loads(pickle.dumps(view))
        assert list(clone.timestamps) == list(view.timestamps)
        assert list(clone.pair_ids) == list(view.pair_ids)

    def test_missing_column_rejected(self):
        table = self.sample()
        columns = {
            name: memoryview(bytes(view))
            for name, _, view in table.column_buffers()
        }
        del columns["sizes"]
        with pytest.raises(ValueError, match="sizes"):
            PacketTable.from_column_buffers(
                columns, table.pairs, table.payloads
            )

    def test_ragged_columns_rejected(self):
        table = self.sample()
        columns = {
            name: memoryview(bytes(view))
            for name, _, view in table.column_buffers()
        }
        columns["flags"] = columns["flags"][:-4]
        with pytest.raises(ValueError):
            PacketTable.from_column_buffers(
                columns, table.pairs, table.payloads
            )


class TestFlowSlots:
    """``flow_slots``: the table's distinct ``pair_id << 1 | outbound``
    slots, ascending by pair id with a pair's outbound slot first — the
    order the batched kernels hand their hash keys to the memo in."""

    @staticmethod
    def table_of(pair_ids, outbound):
        table = PacketTable()
        for position, (pid, is_out) in enumerate(zip(pair_ids, outbound)):
            table.timestamps.append(float(position))
            table.sizes.append(40)
            table.flags.append(0)
            table.outbound.append(int(is_out))
            table.pair_ids.append(pid)
            table.payload_ids.append(0)
        return table

    @pytest.mark.skipif(not table_mod.HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("base, stride, dense", [
        (0, 1, True), (50_000, 1, True), (0, 997, False), (50_000, 1_500, False),
    ], ids=["compact-dense", "fillers-dense", "compact-sparse", "fillers-sparse"])
    @given(rows=st.lists(st.tuples(st.integers(0, 40), st.booleans()),
                         min_size=65, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_numpy_branches_match_stdlib(self, base, stride, dense, rows):
        # Chunk ids of a compact pool and of one behind 50,000 fillers:
        # the span is at most 4x the rows (marked in one pass) or wider
        # (sorted), and both branches give the stdlib slots.
        pair_ids = [base + pid * stride for pid, _ in rows]
        span = max(pair_ids) - min(pair_ids) + 1
        assume((span <= 4 * len(rows)) == dense)
        table = self.table_of(pair_ids, [is_out for _, is_out in rows])
        saved = table_mod._use_numpy
        try:
            table_mod._use_numpy = False
            want = table.flow_slots()
            table_mod._use_numpy = True
            # A table keeps its slots: scan a fresh one.
            assert table.slice(0, len(table)).flow_slots() == want
        finally:
            table_mod._use_numpy = saved

    @given(st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_distinct_slots_in_pair_order_outbound_first(self, rows):
        table = PacketTable()
        table.pairs = [SocketPair(IPPROTO_TCP, pid, 1, 2, 3) for pid in range(41)]
        for position, (pid, outbound) in enumerate(rows):
            table.timestamps.append(float(position))
            table.sizes.append(40)
            table.flags.append(0)
            table.outbound.append(int(outbound))
            table.pair_ids.append(pid)
            table.payload_ids.append(0)
        expected = sorted({(pid, outbound) for pid, outbound in rows},
                          key=lambda flow: (flow[0], not flow[1]))
        want = [pid << 1 | outbound for pid, outbound in expected]
        assert table.flow_slots() == want
        saved = table_mod._use_numpy
        table_mod._use_numpy = not saved
        try:
            assert table.slice(0, len(table)).flow_slots() == want
        finally:
            table_mod._use_numpy = saved

    def test_one_scan_per_table_until_a_row_is_appended(self, monkeypatch):
        table = self.table_of([3, 1, 3, 2], [True, False, False, True])
        scanned = []
        scan = PacketTable._scan_flow_slots
        monkeypatch.setattr(PacketTable, "_scan_flow_slots",
                            lambda table: scanned.append(len(table)) or scan(table))
        assert table.flow_slots() == [2, 5, 7, 6]
        assert table.flow_slots() == [2, 5, 7, 6]
        assert scanned == [4]
        table.timestamps.append(4.0)
        table.sizes.append(40)
        table.flags.append(0)
        table.outbound.append(1)
        table.pair_ids.append(1)
        table.payload_ids.append(0)
        assert table.flow_slots() == [3, 2, 5, 7, 6]
        assert scanned == [4, 5]

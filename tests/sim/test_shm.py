"""Tests for the shared-memory lane dispatch (repro.sim.shm)."""

import pickle

import pytest

from repro.net.table import PacketTable, as_table
from repro.sim.shm import SharedTableArena, ShmLane, attach_lane
from repro.workload import TraceConfig, TraceGenerator


def lane_tables(seed=5, lanes=2):
    """Pool-sharing lane tables, the partition_table output shape."""
    table = as_table(TraceGenerator(
        TraceConfig(duration=12.0, connection_rate=5.0, seed=seed)
    ).iter_tables(256))
    step = max(len(table) // lanes, 1)
    return table, [
        (i, table.slice(i * step,
                        len(table) if i == lanes - 1 else (i + 1) * step))
        for i in range(lanes)
    ]


class TestArenaRoundtrip:
    def test_publish_attach_reproduces_every_lane(self):
        _, lanes = lane_tables()
        arena = SharedTableArena.publish(lanes)
        try:
            for (lane, source), ref in zip(lanes, arena.lanes):
                assert ref.lane == lane
                assert ref.rows == len(source)
                attachment = attach_lane(ref)
                try:
                    view = attachment.table
                    assert list(view.timestamps) == list(source.timestamps)
                    assert list(view.sizes) == list(source.sizes)
                    assert list(view.pair_ids) == list(source.pair_ids)
                    for position in range(len(source)):
                        assert view.pair(position) == source.pair(position)
                finally:
                    attachment.close()
        finally:
            arena.dispose()

    def test_lane_refs_are_small_and_pickle_safe(self):
        table, lanes = lane_tables()
        arena = SharedTableArena.publish(lanes)
        try:
            for ref in arena.lanes:
                blob = pickle.dumps(ref)
                # The whole point: a lane ref crosses the pipe in bytes,
                # not megabytes.
                assert len(blob) < 1024
                assert isinstance(pickle.loads(blob), ShmLane)
            assert arena.nbytes > len(table)  # columns live in the segment
        finally:
            arena.dispose()

    def test_view_table_slices_and_pickles(self):
        _, lanes = lane_tables()
        arena = SharedTableArena.publish(lanes)
        try:
            attachment = attach_lane(arena.lanes[0])
            try:
                view = attachment.table
                window = view.slice(1, min(5, len(view)))
                assert len(window) == min(5, len(view)) - 1
                # Pickling a view table materializes its columns — a
                # round-trip must not carry dangling segment references.
                clone = pickle.loads(pickle.dumps(view))
                assert list(clone.timestamps) == list(view.timestamps)
            finally:
                attachment.close()
        finally:
            arena.dispose()


class TestArenaValidation:
    def test_rejects_disjoint_pools(self):
        table, _ = lane_tables()
        stranger = PacketTable()
        with pytest.raises(ValueError, match="share one interned pool"):
            SharedTableArena.publish([(0, table), (1, stranger)])

    def test_rejects_empty_publish(self):
        with pytest.raises(ValueError, match="nothing to publish"):
            SharedTableArena.publish([])

    def test_dispose_is_idempotent(self):
        _, lanes = lane_tables()
        arena = SharedTableArena.publish(lanes)
        arena.dispose()
        arena.dispose()

    def test_row_count_mismatch_detected(self):
        _, lanes = lane_tables()
        arena = SharedTableArena.publish(lanes)
        try:
            ref = arena.lanes[0]
            bogus = ShmLane(
                shm_name=ref.shm_name, lane=ref.lane, rows=ref.rows + 7,
                columns=ref.columns, pair_span=ref.pair_span,
                payload_span=ref.payload_span,
            )
            with pytest.raises(ValueError, match="dispatch said"):
                attach_lane(bogus)
        finally:
            arena.dispose()

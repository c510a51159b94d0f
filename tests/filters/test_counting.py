"""Tests for the close-aware counting bitmap filter (extension)."""

import time

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.hashing import HashFamily, HashIndexMemo
from repro.filters.base import Verdict
from repro.filters.counting import CountingBitmapFilter
from repro.net.headers import TCPFlags

from tests.conftest import in_packet, out_packet, tcp_pair, udp_pair


def small(**overrides):
    defaults = dict(size=2 ** 12, vectors=4, hashes=3, rotate_interval=5.0)
    defaults.update(overrides)
    return CountingBitmapFilter(BitmapFilterConfig(**defaults))


class TestBitmapParity:
    """Without close signals it behaves like the plain bitmap filter."""

    def test_outbound_passes_and_marks(self):
        filt = small()
        assert filt.process(out_packet(t=0.0)) is Verdict.PASS
        assert filt.process(in_packet(t=1.0)) is Verdict.PASS

    def test_unknown_inbound_dropped(self):
        filt = small()
        assert filt.process(in_packet(t=0.0)) is Verdict.DROP

    def test_rotation_expires(self):
        filt = small()
        filt.process(out_packet(t=0.0))
        assert filt.process(in_packet(t=60.0)) is Verdict.DROP

    def test_within_window_passes(self):
        filt = small()
        filt.process(out_packet(t=0.0))
        assert filt.process(in_packet(t=14.0)) is Verdict.PASS

    def test_udp_never_close_deleted(self):
        filt = small()
        filt.process(out_packet(pair=udp_pair(), t=0.0, flags=TCPFlags.RST))
        assert filt.process(in_packet(pair=udp_pair().inverse, t=1.0)) is Verdict.PASS


class TestCloseAwareDeletion:
    def test_rst_deletes_immediately(self):
        filt = small()
        filt.process(out_packet(t=0.0))
        filt.process(out_packet(t=1.0, flags=TCPFlags.RST))
        assert filt.process(in_packet(t=1.5)) is Verdict.DROP
        assert filt.deleted_on_close == 1

    def test_single_fin_keeps_entry(self):
        # Half-closed: the reverse FIN/data may still arrive.
        filt = small()
        filt.process(out_packet(t=0.0))
        filt.process(out_packet(t=1.0, flags=TCPFlags.FIN | TCPFlags.ACK))
        assert filt.process(in_packet(t=1.5)) is Verdict.PASS
        assert filt.half_closed_pairs == 1

    def test_fin_exchange_deletes(self):
        filt = small()
        filt.process(out_packet(t=0.0))
        filt.process(out_packet(t=1.0, flags=TCPFlags.FIN | TCPFlags.ACK))
        filt.process(in_packet(t=1.1, flags=TCPFlags.FIN | TCPFlags.ACK))
        assert filt.process(in_packet(t=1.5)) is Verdict.DROP
        assert filt.deleted_on_close == 1
        assert filt.half_closed_pairs == 0

    def test_deletion_lowers_utilization(self):
        filt = small()
        for i in range(50):
            filt.process(out_packet(pair=tcp_pair(sport=2000 + i), t=0.01 * i))
        before = filt.current_utilization
        for i in range(50):
            filt.process(
                out_packet(pair=tcp_pair(sport=2000 + i), t=1.0 + 0.01 * i,
                           flags=TCPFlags.RST)
            )
        assert filt.current_utilization < before * 0.1

    def test_deletion_does_not_disturb_other_flows(self):
        filt = small()
        filt.process(out_packet(pair=tcp_pair(sport=1111), t=0.0))
        filt.process(out_packet(pair=tcp_pair(sport=2222), t=0.1))
        filt.process(out_packet(pair=tcp_pair(sport=1111), t=0.5, flags=TCPFlags.RST))
        assert filt.process(in_packet(pair=tcp_pair(sport=2222).inverse, t=1.0)) is Verdict.PASS

    def test_half_close_table_bounded_by_timeout(self):
        filt = small(rotate_interval=1.0)
        for i in range(30):
            filt.process(
                out_packet(pair=tcp_pair(sport=3000 + i), t=float(i),
                           flags=TCPFlags.FIN | TCPFlags.ACK)
            )
        filt.process(out_packet(pair=tcp_pair(sport=9000), t=200.0))
        assert filt.half_closed_pairs <= 1


class TestMemoryAndReset:
    def test_memory_is_4x_plain_bitmap(self):
        filt = small(size=2 ** 12, vectors=4)
        plain_bits_bytes = 4 * 2 ** 12 // 8
        assert filt.memory_bytes == 4 * plain_bits_bytes

    def test_reset(self):
        filt = small()
        filt.process(out_packet(t=0.0))
        filt.reset()
        assert filt.current_utilization == 0.0
        assert filt.process(in_packet(t=0.1)) is Verdict.DROP

    def test_validation(self):
        with pytest.raises(ValueError):
            CountingBitmapFilter(half_close_timeout=0.0)


def reachable(root, kind) -> list:
    """Every distinct ``kind`` instance reachable through attributes and
    containers from ``root``."""
    found, seen, stack = {}, set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, kind):
            found[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, name) for name in getattr(type(obj), "__slots__", ())
                         if hasattr(obj, name))
    return list(found.values())


class TestSharedCore:
    """Hashing, memo and clock are the bitmap core's, one of each."""

    def test_sequential_replay_reuses_the_hash_memo(self, small_trace):
        filt = small()
        for packet in small_trace:
            filt.process(packet)
        memo = filt.core.hash_memo
        assert memo.hits > memo.misses

    def test_p_d_is_read_on_a_miss_only(self):
        # Each read may evict meter samples, which the snapshot document
        # records; unlike the bitmap wrapper, counting reads on misses.
        filt = small()
        reads = []
        probability = filt.drop_controller.probability
        filt.drop_controller.probability = lambda now: reads.append(now) or probability(now)
        filt.process(out_packet(t=0.0))
        assert filt.process(in_packet(t=0.5)) is Verdict.PASS
        assert filt.process(in_packet(pair=udp_pair().inverse, t=1.0)) is Verdict.DROP
        assert reads == [1.0]

    def test_one_hash_family_and_one_memo(self):
        filt = small()
        filt.process(out_packet(t=0.0))
        assert reachable(filt, HashFamily) == [filt.core.family]
        assert reachable(filt, HashIndexMemo) == [filt.core.hash_memo]
        assert filt.core.hash_memo.family is filt.core.family


def rotate_per_interval(filt: CountingBitmapFilter, now: float) -> int:
    """Reference clock: one core :meth:`BitmapFilter.rotate` per Δt."""
    core = filt.core
    ran = 0
    while now >= core._next_rotation:
        core.rotate()
        core._next_rotation += filt.config.rotate_interval
        ran += 1
    if ran:
        filt._expire_half_closed(now)
    return ran


def closing_filter(size: int) -> CountingBitmapFilter:
    filt = small(size=size)
    for step in range(10):
        pair = tcp_pair(sport=4000 + step)
        filt.process(out_packet(pair=pair, t=0.4 + 2.0 * step))
        if step % 3 == 0:  # a half-close left pending
            filt.process(out_packet(pair=pair, t=0.5 + 2.0 * step,
                                    flags=TCPFlags.FIN))
    return filt


class TestRotationGaps:
    """A gap of many Δt clears each column at most once, and ends in the
    state a filter rotating once per Δt would reach."""

    @pytest.mark.parametrize("gap", [0.1, 5.0, 12.5, 19.99, 20.0, 31.0,
                                     75.0, 2e5])
    def test_matches_one_rotation_per_interval(self, gap):
        capped, reference = closing_filter(2 ** 10), closing_filter(2 ** 10)
        now = 19.1 + gap
        assert capped.advance_to(now) == rotate_per_interval(reference, now)
        assert capped.core.idx == reference.core.idx
        assert capped.core._next_rotation == reference.core._next_rotation
        assert capped._half_closed == reference._half_closed
        for mine, theirs in zip(capped.columns, reference.columns):
            assert bytes(mine._cells) == bytes(theirs._cells)
            assert (mine.added, mine.removed, mine.saturations) == \
                (theirs.added, theirs.removed, theirs.saturations)

    def test_huge_gap_at_paper_size_is_fast(self):
        filt = closing_filter(2 ** 20)
        start = time.perf_counter()
        ran = filt.advance_to(2e5)
        elapsed = time.perf_counter() - start
        assert ran == 39_996
        assert filt.half_closed_pairs == 0
        assert all(not any(column._cells) for column in filt.columns)
        assert elapsed < 1.0, f"2x10^5 s gap took {elapsed:.2f}s"

"""Tests for blocked-connection persistence (section 5.3 replay rule)."""

import pytest

from repro.filters.blocklist import BlockedConnectionStore

from tests.conftest import in_packet, out_packet, tcp_pair


class TestBlocking:
    def test_blocked_pair_suppressed(self):
        store = BlockedConnectionStore()
        store.block(tcp_pair().inverse, now=0.0)
        assert store.suppress(in_packet(t=1.0))

    def test_sigma_and_inverse_both_match(self):
        # "all the future packets that match any stored σ or σ̄"
        store = BlockedConnectionStore()
        store.block(tcp_pair().inverse, now=0.0)
        assert store.suppress(out_packet(t=1.0))
        assert store.suppress(in_packet(t=2.0))

    def test_unblocked_pair_untouched(self):
        store = BlockedConnectionStore()
        store.block(tcp_pair(sport=1).inverse, now=0.0)
        assert not store.suppress(in_packet(t=1.0))

    def test_accounting(self):
        store = BlockedConnectionStore()
        store.block(tcp_pair(), now=0.0)
        store.suppress(in_packet(t=1.0, size=500))
        store.suppress(in_packet(t=2.0, size=300))
        assert store.suppressed_packets == 2
        assert store.suppressed_bytes == 800

    def test_len(self):
        store = BlockedConnectionStore()
        store.block(tcp_pair(sport=1), now=0.0)
        store.block(tcp_pair(sport=2), now=0.0)
        assert len(store) == 2

    def test_blocking_same_pair_twice_is_one_entry(self):
        store = BlockedConnectionStore()
        store.block(tcp_pair(), now=0.0)
        store.block(tcp_pair().inverse, now=1.0)
        assert len(store) == 1


class TestRetention:
    def test_entry_ages_out(self):
        store = BlockedConnectionStore(retention=10.0)
        store.block(tcp_pair(), now=0.0)
        assert not store.is_blocked(tcp_pair(), now=11.0)

    def test_active_retry_refreshes(self):
        store = BlockedConnectionStore(retention=10.0)
        store.block(tcp_pair(), now=0.0)
        assert store.suppress(in_packet(t=8.0))
        assert store.suppress(in_packet(t=16.0))  # refreshed at t=8

    def test_infinite_retention(self):
        store = BlockedConnectionStore(retention=None)
        store.block(tcp_pair(), now=0.0)
        assert store.is_blocked(tcp_pair(), now=1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockedConnectionStore(retention=0.0)

    def test_clear(self):
        store = BlockedConnectionStore()
        store.block(tcp_pair(), now=0.0)
        store.suppress(in_packet(t=1.0))
        store.clear()
        assert len(store) == 0
        assert store.suppressed_packets == 0


class TestCompact:
    def test_compact_drops_only_expired(self):
        store = BlockedConnectionStore(retention=10.0)
        store.block(tcp_pair(sport=1), now=0.0)
        store.block(tcp_pair(sport=2), now=8.0)
        store.compact(now=11.0)
        assert len(store) == 1
        assert store.is_blocked(tcp_pair(sport=2), now=11.0)

    def test_compact_boundary_is_exclusive(self):
        # Same strictness as is_blocked: now - stamped > retention expires.
        store = BlockedConnectionStore(retention=10.0)
        store.block(tcp_pair(), now=0.0)
        store.compact(now=10.0)
        assert len(store) == 1

    def test_compact_no_retention_is_noop(self):
        store = BlockedConnectionStore(retention=None)
        store.block(tcp_pair(), now=0.0)
        store.compact(now=1e9)
        assert len(store) == 1

    def test_gc_and_compact_agree(self):
        """Interior GC is just a scheduled compact — whatever entries a
        phase-dependent GC has or hasn't collected, a final compact leaves
        the same live set."""
        lazy = BlockedConnectionStore(retention=10.0, gc_interval=1000.0)
        eager = BlockedConnectionStore(retention=10.0, gc_interval=1.0)
        for store in (lazy, eager):
            store.block(tcp_pair(sport=1), now=0.0)
            probe = tcp_pair(sport=999).inverse
            store.suppress(in_packet(pair=probe, t=5.0))   # drives _maybe_gc
            store.suppress(in_packet(pair=probe, t=25.0))  # eager GC fires
            store.block(tcp_pair(sport=2), now=25.0)
            store.compact(now=25.0)
        assert lazy._blocked == eager._blocked

    def test_one_expiry_predicate_at_the_float_boundary(self):
        """``now - stamped`` is exactly the retention here, while
        ``stamped < now - retention`` also holds in floating point: GC,
        lookups and compact must all use the lookup's predicate, so the
        entry stays blocked whether GC is due at this packet or not."""
        stamp, now = 245.718556863761, 3845.718556863761
        assert now - stamp == 3600.0
        pair = tcp_pair()
        for gc_due in (False, True):
            store = BlockedConnectionStore(retention=3600.0, gc_interval=300.0)
            store.block(pair, now=stamp)
            # Anchor the GC clock so it is (or is not) due at ``now``.
            store.suppress_fields(tcp_pair(sport=9), now - (300.0 if gc_due else 1.0), 0)
            assert store.suppress_fields(pair.inverse, now, 40), gc_due
        store = BlockedConnectionStore(retention=3600.0)
        store.block(pair, now=stamp)
        store.compact(now)
        assert store.entries() == {pair.canonical: stamp}



class TestGate:
    """The batched gate flags every id of a blocked pair, σ̄ included,
    even when a pool interns one pair under two ids (a decoded frame's
    pool is taken as sent)."""

    @staticmethod
    def table():
        from array import array

        from repro.net.table import PacketTable

        pair = tcp_pair()
        table = PacketTable()
        for _ in range(5):
            table.append_row(0.0, pair, 40, 0, b"", True)
        # Ids 0 and 2 are the same pair; 1 is its σ̄, 3 another flow.
        table.pairs = [pair, pair.inverse, pair, tcp_pair(sport=7)]
        table._pair_index = None
        table.pair_ids = array("l", [0, 1, 2, 3, 2])
        return table

    @pytest.mark.parametrize("others", [0, 5], ids=["store-walk", "flow-walk"])
    def test_entries_at_table_start(self, others):
        store = BlockedConnectionStore()
        store.block(tcp_pair(), now=0.0)
        for sport in range(100, 100 + others):
            store.block(tcp_pair(sport=sport), now=0.0)
        flagged, _, _ = store.gate(self.table())
        assert flagged == {0, 1, 2}

    def test_block_flags_every_id_and_the_twin(self):
        store = BlockedConnectionStore()
        flagged, suppress, block = store.gate(self.table())
        assert flagged == set()
        block(2, 0.5)
        assert flagged == {0, 1, 2}
        assert suppress(1, 1.0, 40) and suppress(0, 1.0, 40)
        assert store.suppressed_packets == 2

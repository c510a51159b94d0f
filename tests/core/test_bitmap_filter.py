"""Tests for the {k×N}-bitmap filter (Algorithms 1 and 2)."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap_filter import (
    BitmapFilter,
    BitmapFilterConfig,
    FieldMode,
    socket_key,
)
from repro.core.analysis import exact_penetration_probability
from repro.core.hashing import HashIndexMemo
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import Direction, SocketPair

from tests.conftest import CLIENT_ADDR, REMOTE_ADDR, tcp_pair, udp_pair


def small_filter(**overrides) -> BitmapFilter:
    defaults = dict(size=2 ** 12, vectors=4, hashes=3, rotate_interval=5.0)
    defaults.update(overrides)
    return BitmapFilter(BitmapFilterConfig(**defaults))


class TestConfig:
    def test_paper_defaults(self):
        config = BitmapFilterConfig()
        assert config.size == 2 ** 20
        assert config.vectors == 4
        assert config.hashes == 3
        assert config.rotate_interval == 5.0

    def test_expiry_time_is_k_delta_t(self):
        config = BitmapFilterConfig(vectors=4, rotate_interval=5.0)
        assert config.expiry_time == 20.0

    def test_memory_matches_paper_example(self):
        # "the memory space required by the bitmap filter is only
        #  (k × N)/8 = 512K bytes"
        config = BitmapFilterConfig(size=2 ** 20, vectors=4)
        assert config.memory_bytes == 512 * 1024

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            BitmapFilterConfig(size=1000)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            BitmapFilterConfig(vectors=1)

    def test_needs_one_hash(self):
        with pytest.raises(ValueError):
            BitmapFilterConfig(hashes=0)

    def test_positive_interval(self):
        with pytest.raises(ValueError):
            BitmapFilterConfig(rotate_interval=0)

    def test_more_hashes_than_cells_rejected(self):
        # N = 2, m = 3 would hash a key to cells [0, 1, 0].
        with pytest.raises(ValueError, match=r"m=3, N=2"):
            BitmapFilterConfig(size=2, hashes=3)
        assert BitmapFilterConfig(size=2, hashes=2).hashes == 2


class TestMarkAndLookup:
    def test_marked_pair_is_found(self):
        filt = small_filter()
        pair = tcp_pair()
        filt.mark_outbound(pair)
        assert filt.lookup_inbound(pair.inverse)

    def test_unmarked_pair_is_missed(self):
        filt = small_filter()
        filt.mark_outbound(tcp_pair(sport=1111))
        assert not filt.lookup_inbound(tcp_pair(sport=2222).inverse)

    def test_mark_sets_all_vectors(self):
        filt = small_filter()
        filt.mark_outbound(tcp_pair())
        pops = [vector.popcount() for vector in filt.vectors]
        assert all(pop > 0 for pop in pops)
        assert len(set(pops)) == 1

    def test_lookup_only_checks_current_vector(self):
        filt = small_filter()
        pair = tcp_pair()
        filt.mark_outbound(pair)
        # Manually wipe only the current vector: lookup must now miss even
        # though the other vectors still carry the mark.
        filt.vectors[filt.idx].clear()
        assert not filt.lookup_inbound(pair.inverse)

    def test_udp_pairs_supported(self):
        filt = small_filter()
        pair = udp_pair()
        filt.mark_outbound(pair)
        assert filt.lookup_inbound(pair.inverse)

    def test_protocol_distinguishes_pairs(self):
        filt = small_filter()
        tcp = SocketPair(IPPROTO_TCP, CLIENT_ADDR, 5555, REMOTE_ADDR, 80)
        udp = SocketPair(IPPROTO_UDP, CLIENT_ADDR, 5555, REMOTE_ADDR, 80)
        filt.mark_outbound(tcp)
        assert not filt.lookup_inbound(udp.inverse)

    def test_stats_counters(self):
        filt = small_filter()
        pair = tcp_pair()
        filt.mark_outbound(pair)
        filt.lookup_inbound(pair.inverse)
        filt.lookup_inbound(tcp_pair(sport=9999).inverse)
        assert filt.stats.outbound_marked == 1
        assert filt.stats.inbound_hits == 1
        assert filt.stats.inbound_misses == 1


class TestRotation:
    def test_rotate_advances_index(self):
        filt = small_filter(vectors=3)
        assert filt.idx == 0
        assert filt.rotate() == 1
        assert filt.rotate() == 2
        assert filt.rotate() == 0  # wraps mod k

    def test_rotate_clears_vacated_vector(self):
        filt = small_filter()
        filt.mark_outbound(tcp_pair())
        old = filt.idx
        filt.rotate()
        assert filt.vectors[old].popcount() == 0

    def test_mark_survives_k_minus_1_rotations(self):
        filt = small_filter(vectors=4)
        pair = tcp_pair()
        filt.mark_outbound(pair)
        for _ in range(3):  # k-1 rotations
            filt.rotate()
            assert filt.lookup_inbound(pair.inverse)

    def test_mark_gone_after_k_rotations(self):
        filt = small_filter(vectors=4)
        pair = tcp_pair()
        filt.mark_outbound(pair)
        for _ in range(4):
            filt.rotate()
        assert not filt.lookup_inbound(pair.inverse)

    def test_advance_to_runs_pending_rotations(self):
        filt = small_filter(rotate_interval=5.0)
        filt.advance_to(0.0)  # anchors the schedule
        assert filt.advance_to(4.9) == 0
        assert filt.advance_to(5.0) == 1
        assert filt.advance_to(20.0) == 3

    def test_advance_to_ignores_time_going_backwards(self):
        filt = small_filter(rotate_interval=5.0)
        filt.advance_to(0.0)
        filt.advance_to(12.0)
        assert filt.advance_to(3.0) == 0

    def test_refresh_extends_visibility(self):
        # Re-marking (an active connection's next packet) keeps the pair
        # alive indefinitely, like the naive solution's timer reset.
        filt = small_filter(vectors=4)
        pair = tcp_pair()
        for _ in range(10):
            filt.mark_outbound(pair)
            filt.rotate()
            assert filt.lookup_inbound(pair.inverse)


def rotate_per_interval(filt: BitmapFilter, now: float) -> None:
    """Reference clock: one :meth:`BitmapFilter.rotate` per Δt."""
    while now >= filt._next_rotation:
        filt.rotate()
        filt._next_rotation += filt.config.rotate_interval


def marked_filter(size: int) -> BitmapFilter:
    filt = small_filter(size=size, rotate_interval=5.0)
    filt.advance_to(0.3)
    for step in range(12):
        filt.advance_to(0.3 + 2.5 * step)
        filt.mark_outbound(tcp_pair(sport=3000 + step))
    return filt


class TestRotationGaps:
    """A gap of many Δt wipes each vector at most once, and ends in the
    state a filter rotating once per Δt would reach."""

    @pytest.mark.parametrize("gap", [0.1, 5.0, 9.9, 12.5, 17.0, 19.99, 20.0,
                                     31.0, 1234.5, 1e6])
    def test_matches_one_rotation_per_interval(self, gap):
        capped, reference = marked_filter(2 ** 12), marked_filter(2 ** 12)
        now = 27.8 + gap
        ran = capped.advance_to(now)
        before = reference.stats.rotations
        rotate_per_interval(reference, now)
        assert ran == reference.stats.rotations - before
        assert capped.idx == reference.idx
        assert capped.stats.as_dict() == reference.stats.as_dict()
        assert capped._next_rotation == reference._next_rotation
        assert [v.to_bytes() for v in capped.vectors] == \
            [v.to_bytes() for v in reference.vectors]

    def test_huge_gap_at_paper_size_is_fast(self):
        filt = marked_filter(2 ** 20)
        start = time.perf_counter()
        ran = filt.advance_to(1e6)
        elapsed = time.perf_counter() - start
        assert ran == 199_994
        assert all(vector.popcount() == 0 for vector in filt.vectors)
        assert elapsed < 1.0, f"10^6 s gap took {elapsed:.2f}s"


class TestFilterDecision:
    def test_outbound_always_passes(self):
        filt = small_filter()
        assert filt.filter(tcp_pair(), Direction.OUTBOUND) is True

    def test_inbound_hit_passes(self):
        filt = small_filter()
        pair = tcp_pair()
        filt.filter(pair, Direction.OUTBOUND)
        assert filt.filter(pair.inverse, Direction.INBOUND) is True

    def test_inbound_miss_dropped_at_p1(self):
        filt = small_filter()
        assert filt.filter(tcp_pair().inverse, Direction.INBOUND, 1.0) is False
        assert filt.stats.inbound_dropped == 1

    def test_inbound_miss_passes_at_p0(self):
        filt = small_filter()
        assert filt.filter(tcp_pair().inverse, Direction.INBOUND, 0.0) is True
        assert filt.stats.inbound_dropped == 0

    def test_intermediate_probability(self):
        filt = BitmapFilter(
            BitmapFilterConfig(size=2 ** 12, vectors=4, hashes=3),
            rng=random.Random(99),
        )
        drops = sum(
            not filt.filter(tcp_pair(sport=1024 + i).inverse, Direction.INBOUND, 0.3)
            for i in range(2000)
        )
        assert drops / 2000 == pytest.approx(0.3, abs=0.05)

    def test_reset(self):
        filt = small_filter()
        filt.filter(tcp_pair(), Direction.OUTBOUND)
        filt.rotate()
        filt.reset()
        assert filt.idx == 0
        assert filt.stats.outbound_marked == 0
        assert all(vector.popcount() == 0 for vector in filt.vectors)


class TestFieldModes:
    def test_strict_requires_exact_reverse_path(self):
        filt = small_filter(field_mode=FieldMode.STRICT)
        pair = tcp_pair(sport=4000, dport=6881)
        filt.mark_outbound(pair)
        assert filt.lookup_inbound(pair.inverse)
        # Same remote host, different remote port: must miss.
        other = SocketPair(IPPROTO_TCP, REMOTE_ADDR, 7000, CLIENT_ADDR, 4000)
        assert not filt.lookup_inbound(other)

    def test_hole_punching_ignores_remote_port(self):
        # An outbound packet to peer P opens the door for inbound packets
        # from *any* port of P toward the same local endpoint.
        filt = small_filter(field_mode=FieldMode.HOLE_PUNCHING)
        pair = udp_pair(sport=4000, dport=6881)
        filt.mark_outbound(pair)
        from_other_port = SocketPair(IPPROTO_UDP, REMOTE_ADDR, 12345, CLIENT_ADDR, 4000)
        assert filt.lookup_inbound(from_other_port)

    def test_hole_punching_still_checks_remote_address(self):
        filt = small_filter(field_mode=FieldMode.HOLE_PUNCHING)
        pair = udp_pair(sport=4000, dport=6881)
        filt.mark_outbound(pair)
        from_other_host = SocketPair(IPPROTO_UDP, REMOTE_ADDR + 1, 6881, CLIENT_ADDR, 4000)
        assert not filt.lookup_inbound(from_other_host)

    def test_hole_punching_still_checks_local_port(self):
        filt = small_filter(field_mode=FieldMode.HOLE_PUNCHING)
        pair = udp_pair(sport=4000, dport=6881)
        filt.mark_outbound(pair)
        to_other_local_port = SocketPair(IPPROTO_UDP, REMOTE_ADDR, 6881, CLIENT_ADDR, 4001)
        assert not filt.lookup_inbound(to_other_local_port)

    def test_hole_punch_rendezvous_admits_port_hopping_probes(self):
        # The swarm plane's hole-punch rendezvous: one outbound probe from
        # the client's listen port toward the peer, then inbound connects
        # hopping across ephemeral source ports.  Under HOLE_PUNCHING
        # every hop matches the single probe's mark.
        filt = small_filter(field_mode=FieldMode.HOLE_PUNCHING)
        probe = SocketPair(IPPROTO_TCP, CLIENT_ADDR, 6881, REMOTE_ADDR, 40001)
        filt.mark_outbound(probe)
        for hop in (40002, 51333, 1024, 65535):
            inbound = SocketPair(IPPROTO_TCP, REMOTE_ADDR, hop, CLIENT_ADDR, 6881)
            assert filt.lookup_inbound(inbound), hop

    def test_strict_refuses_every_port_hop_but_the_probed_one(self):
        # Same rendezvous against STRICT fields: only the exact probed
        # remote port matches; every hop misses.
        filt = small_filter(field_mode=FieldMode.STRICT)
        probe = SocketPair(IPPROTO_TCP, CLIENT_ADDR, 6881, REMOTE_ADDR, 40001)
        filt.mark_outbound(probe)
        assert filt.lookup_inbound(probe.inverse)
        for hop in (40002, 51333, 1024, 65535):
            inbound = SocketPair(IPPROTO_TCP, REMOTE_ADDR, hop, CLIENT_ADDR, 6881)
            assert not filt.lookup_inbound(inbound), hop

    def test_hole_punch_door_survives_rotation_within_expiry(self):
        # The asymmetric mark ages like any other: refreshed rotations
        # within T_e keep the door open for hopping probes.
        filt = small_filter(field_mode=FieldMode.HOLE_PUNCHING,
                            vectors=4, rotate_interval=5.0)
        probe = SocketPair(IPPROTO_TCP, CLIENT_ADDR, 6881, REMOTE_ADDR, 40001)
        filt.mark_outbound(probe)
        filt.rotate()
        hop = SocketPair(IPPROTO_TCP, REMOTE_ADDR, 50999, CLIENT_ADDR, 6881)
        assert filt.lookup_inbound(hop)


class TestHashMemo:
    """Marks and lookups resolve their indices through the core's memo."""

    def test_inverse_lookup_hits_the_marked_key(self):
        filt = small_filter()
        pair = tcp_pair()
        filt.mark_outbound(pair)
        assert filt.lookup_inbound(pair.inverse)
        assert (filt.hash_memo.misses, filt.hash_memo.hits) == (1, 1)
        # Strict mode: the inbound key is the outbound key.
        assert socket_key(pair.inverse, Direction.INBOUND, False) == \
            socket_key(pair, Direction.OUTBOUND, False)

    @pytest.mark.parametrize("mode", list(FieldMode))
    def test_mark_sets_the_family_indices_of_the_fields(self, mode):
        filt = small_filter(field_mode=mode)
        pair = tcp_pair(sport=4000, dport=6881)
        filt.mark_outbound(pair)
        fields = (IPPROTO_TCP, CLIENT_ADDR, 4000, REMOTE_ADDR, 6881)
        if mode is FieldMode.HOLE_PUNCHING:
            fields = fields[:4]
        expected = sorted(set(filt.family.indices(fields)))
        for vector in filt.vectors:
            marked = [i for i in range(vector.size) if vector.test_all([i])]
            assert marked == expected

    def test_eviction_never_changes_a_verdict(self):
        rng = random.Random(17)
        pairs = [
            SocketPair(IPPROTO_TCP, rng.getrandbits(32), rng.getrandbits(16),
                       rng.getrandbits(32), rng.getrandbits(16))
            for _ in range(5000)
        ]
        bounded, default = small_filter(size=2 ** 18), small_filter(size=2 ** 18)
        bounded.hash_memo = HashIndexMemo(bounded.family, capacity=1024)
        for filt in (bounded, default):
            for pair in pairs:
                filt.mark_outbound(pair)
        assert len(bounded.hash_memo) == 1024
        assert all(bounded.lookup_inbound(pair.inverse) for pair in pairs)
        for pair in pairs:
            default.lookup_inbound(pair.inverse)
        assert bounded.stats.as_dict() == default.stats.as_dict()
        assert [v.to_bytes() for v in bounded.vectors] == \
            [v.to_bytes() for v in default.vectors]

    def test_reset_keeps_the_memo_and_snapshots_leave_it_out(self):
        filt = small_filter()
        memo = filt.hash_memo
        filt.mark_outbound(tcp_pair())
        filt.reset()
        assert filt.hash_memo is memo and len(memo) == 1
        assert "hash_memo" not in filt.snapshot()
        restored = BitmapFilter.restore(filt.snapshot())
        assert restored.hash_memo is not memo
        assert restored.hash_memo.family is restored.family


class TestPenetration:
    def test_utilization_reported(self):
        filt = small_filter()
        assert filt.current_utilization == 0.0
        filt.mark_outbound(tcp_pair())
        assert filt.current_utilization > 0.0

    def test_penetration_probability_is_u_to_m(self):
        filt = small_filter(hashes=3)
        for i in range(50):
            filt.mark_outbound(tcp_pair(sport=1024 + i))
        assert filt.penetration_probability() == pytest.approx(
            filt.current_utilization ** 3
        )

    def test_empirical_penetration_matches_equation(self):
        # Fill to a known utilization, probe with random unseen pairs.
        filt = BitmapFilter(
            BitmapFilterConfig(size=2 ** 12, vectors=2, hashes=3, seed=4)
        )
        rng = random.Random(8)
        for _ in range(300):
            filt.mark_outbound(
                SocketPair(IPPROTO_TCP, rng.getrandbits(32), rng.getrandbits(16),
                           rng.getrandbits(32), rng.getrandbits(16))
            )
        predicted = filt.penetration_probability()
        probes = 20_000
        hits = sum(
            filt.lookup_inbound(
                SocketPair(IPPROTO_TCP, rng.getrandbits(32), rng.getrandbits(16),
                           rng.getrandbits(32), rng.getrandbits(16))
            )
            for _ in range(probes)
        )
        assert hits / probes == pytest.approx(predicted, rel=0.25, abs=0.01)
        # The closed form for 300 distinct pairs, not only U^m measured.
        assert hits / probes == pytest.approx(
            exact_penetration_probability(300, 2 ** 12, 3), rel=0.25, abs=0.01)


# ---------------------------------------------------------------------------
# The core correctness property: within (k-1)·Δt of a mark, lookups always
# hit — the bitmap filter has no false negatives inside its guaranteed
# window, regardless of rotation phase.
# ---------------------------------------------------------------------------


@given(
    mark_time=st.floats(min_value=0.0, max_value=100.0),
    gap=st.floats(min_value=0.0, max_value=14.9),
    anchor=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=200, deadline=None)
def test_no_false_negative_within_guaranteed_window(mark_time, gap, anchor):
    filt = small_filter(vectors=4, rotate_interval=5.0)  # (k-1)·Δt = 15 s
    filt.advance_to(anchor)
    mark_time = anchor + mark_time
    filt.advance_to(mark_time)
    pair = tcp_pair()
    filt.mark_outbound(pair)
    filt.advance_to(mark_time + gap)
    assert filt.lookup_inbound(pair.inverse)


@given(gap=st.floats(min_value=20.01, max_value=200.0))
@settings(max_examples=100, deadline=None)
def test_mark_always_expired_after_te(gap):
    # Beyond T_e = k·Δt the mark must be gone (absent hash collisions;
    # with a nearly-empty 4096-bit map and one mark, collisions are
    # impossible for the same 3 bits to all reappear).
    filt = small_filter(vectors=4, rotate_interval=5.0)
    filt.advance_to(0.0)
    pair = tcp_pair()
    filt.mark_outbound(pair)
    filt.advance_to(gap)
    assert not filt.lookup_inbound(pair.inverse)


# ---------------------------------------------------------------------------
# The mark rule: a bit-vector mark is skipped when vectors[idx - 1], the
# most recently wiped vector, already holds all m bits.  That is exact only
# while its bits are a subset of every vector's; a filter that writes all k
# vectors on every mark is the reference.
# ---------------------------------------------------------------------------


class WriteEveryMark(BitmapFilter):
    """The reference mark: all k vectors written on every mark."""

    def mark_outbound(self, pair):
        key = socket_key(pair, Direction.OUTBOUND,
                         self.config.field_mode is FieldMode.HOLE_PUNCHING)
        indices = self.hash_memo.get(key)
        for vector in self.vectors:
            vector.set_many(indices)
        self.stats.outbound_marked += 1


#: Few pairs and 64 bits per vector: keys repeat and share bits, so most
#: marks are redundant and many lookups hit by collision.
MARK_PAIRS = [tcp_pair(sport=2000 + i, dport=80 + i % 3) for i in range(10)]
MARK_VECTORS = 4

mark_steps = st.lists(
    st.one_of(
        st.tuples(st.just("mark"), st.integers(0, len(MARK_PAIRS) - 1)),
        st.tuples(st.just("lookup"), st.integers(0, len(MARK_PAIRS) - 1)),
        # Gaps of 0 to k+1 intervals, on or between interval boundaries.
        st.tuples(st.just("advance"), st.integers(0, MARK_VECTORS + 1),
                  st.sampled_from([0.0, 0.5])),
        st.tuples(st.just("reset")),
        st.tuples(st.just("restore"), st.sampled_from(["reanchor", "resume"])),
        st.tuples(st.just("interval"), st.sampled_from([2.0, 5.0, 7.5])),
    ),
    max_size=60,
)


def int_bits(vector) -> int:
    return int.from_bytes(vector.to_bytes(), "little")


def run_mark_steps(filters, steps, check):
    """Drive every filter through ``steps`` in lockstep, calling
    ``check(filters, op, lookups)`` after each step."""
    now = 0.0
    for step in steps:
        op = step[0]
        lookups = []
        if op == "mark":
            for filt in filters:
                filt.mark_outbound(MARK_PAIRS[step[1]])
        elif op == "lookup":
            lookups = [filt.lookup_inbound(MARK_PAIRS[step[1]].inverse)
                       for filt in filters]
        elif op == "advance":
            now += (step[1] + step[2]) * filters[0].config.rotate_interval
            for filt in filters:
                filt.advance_to(now)
        elif op == "reset":
            for filt in filters:
                filt.reset()
        elif op == "restore":
            filters = [type(filt).restore(filt.snapshot(), clock=step[1])
                       for filt in filters]
        else:
            for filt in filters:
                filt.set_rotate_interval(step[1], now=now)
        check(filters, op, lookups)


@given(steps=mark_steps, mode=st.sampled_from(list(FieldMode)))
@settings(max_examples=200, deadline=None)
def test_mark_rule_matches_writing_every_vector(steps, mode):
    config = dict(size=2 ** 6, vectors=MARK_VECTORS, hashes=3,
                  rotate_interval=5.0, field_mode=mode, seed=3)
    subject = BitmapFilter(BitmapFilterConfig(**config))
    reference = WriteEveryMark(BitmapFilterConfig(**config))

    def check(filters, op, lookups):
        filt, ref = filters
        last_wiped = int_bits(filt.vectors[filt.idx - 1])
        assert all(last_wiped & ~int_bits(vector) == 0 for vector in filt.vectors)
        assert [v.to_bytes() for v in filt.vectors] == \
            [v.to_bytes() for v in ref.vectors]
        assert filt.idx == ref.idx
        assert filt.stats.as_dict() == ref.stats.as_dict()
        assert (filt.hash_memo.hits, filt.hash_memo.misses) == \
            (ref.hash_memo.hits, ref.hash_memo.misses)
        assert len(set(lookups)) <= 1

    run_mark_steps([subject, reference], steps, check)


@given(steps=mark_steps)
@settings(max_examples=50, deadline=None)
def test_counting_core_marks_every_column(steps):
    from repro.filters.counting import CountingCore

    core = CountingCore(BitmapFilterConfig(
        size=2 ** 6, vectors=MARK_VECTORS, hashes=3, rotate_interval=5.0))
    # A counting core restores through its filter's document, not the
    # bitmap's, so this walk skips the restore steps.
    steps = [step for step in steps if step[0] != "restore"]
    added = [0] * MARK_VECTORS

    def check(filters, op, lookups):
        now_added = [column.added for column in core.vectors]
        if op == "mark":
            assert now_added == [count + 1 for count in added]
        added[:] = now_added

    run_mark_steps([core], steps, check)

"""Differential test of the batched driver against the per-row reference.

``EdgeRouter.process_table`` (the blocked-σ gate, each filter's fused
batch function, one accounting pass) must leave exactly the state that
``EdgeRouter.forward`` leaves row by row.  Hypothesis generates
adversarial tables — zero-byte packets, timestamp ties, rows exactly on
series-interval, drop-window and k·Δt boundaries, blocked pairs
reappearing exactly at and just past a short retention, one-directional
flows, long gaps — and feeds them at random chunk sizes, for all six
registered filters (bitmap, counting and the RED policer in two
configurations each) plus an unregistered subclass, with the blocklist
on and off and with the numpy accounting path on and off.  Full filter
snapshots are compared, drop controllers and their meters included, at
the end and at random chunk boundaries in between, where the per-row
router still holds rows its accessors must fold first; a second test
lets timestamps go back, as a reordered capture does.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.table as table_module
from repro.core.autotune import TargetRateController
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters.base import rng_state
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter
from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP
from repro.net.packet import Direction, Packet, SocketPair
from repro.net.table import PacketTable
from repro.sim.kernels import kernel_for
from repro.sim.router import EdgeRouter

from tests.conftest import verdicts_of

#: Series interval, drop window, Δt and retention are binary fractions, so
#: sums of the time steps below land exactly on their boundaries.
INTERVAL, WINDOW, DELTA_T, RETENTION = 1.0, 2.0, 0.5, 4.0
EPSILON = 2.0 ** -20
TIME_STEPS = st.sampled_from(
    [0.0, 0.0, 0.25, 0.5, 1.0, 2.0, RETENTION, EPSILON, 0.1, 1000.0]
)

CLIENT = 0x0A010005
FLOWS = [
    SocketPair(IPPROTO_TCP, CLIENT, 40000, 0xC0A80001, 80),
    SocketPair(IPPROTO_UDP, CLIENT, 40001, 0xC0A80002, 6881),
    SocketPair(IPPROTO_TCP, CLIENT, 40002, 0xC0A80003, 443),   # outbound only
    SocketPair(IPPROTO_TCP, CLIENT, 40003, 0xC0A80004, 6881),  # inbound only
]
ONLY_OUT, ONLY_IN = 2, 3

events = st.lists(
    st.tuples(
        TIME_STEPS,
        st.integers(0, len(FLOWS) - 1),
        st.booleans(),
        st.sampled_from([0, 0, 1, 40, 1500]),
        st.sampled_from([0x00, 0x02, 0x12, 0x10, 0x01, 0x11, 0x04]),
    ),
    max_size=160,
)
chunk_sizes = st.lists(st.sampled_from([1, 2, 7, 64, 65, 500]), min_size=1, max_size=6)
#: Chunk boundaries (by ordinal) at which both routers' states compare.
cuts = st.sets(st.integers(0, 12), max_size=3)
#: Steps that also go back in time.
reordered_events = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, EPSILON, -0.25, -1.0, -2.0]),
        st.integers(0, len(FLOWS) - 1),
        st.booleans(),
        st.sampled_from([0, 40, 1500]),
        st.sampled_from([0x00, 0x02, 0x10, 0x01, 0x04]),
    ),
    max_size=120,
)

#: An inbound-only connection dropped at t=0, retried exactly at the
#: retention horizon (still blocked: the stamp refreshes to 4.0), then
#: just past the refreshed horizon (expired: back to the filter).
RETRY_AT_HORIZON = [
    (0.0, ONLY_IN, False, 40, 0x02),
    (RETENTION, ONLY_IN, False, 40, 0x02),
    (RETENTION + EPSILON, ONLY_IN, False, 0, 0x02),
] * 4

#: Back-to-back 1500-byte uploads on one connection: the token bucket
#: drops outbound rows mid-flow, which must never block the connection.
UPLOAD_BURST = [
    (0.0, 0, True, 1500, 0x02),
    (0.0, 0, True, 1500, 0x10),
    (0.25, 0, False, 40, 0x12),
    (0.25, 0, True, 1500, 0x10),
] * 3


#: A rate read at t = 2 (an inbound miss) evicts the upload at t = 0;
#: the upload that follows at t = 0 must stay, as it does row by row.
UPLOAD_AFTER_LATER_READ = [
    (0.0, 0, True, 40, 0x02),
    (2.0, ONLY_IN, False, 40, 0x02),
    (-2.0, 0, True, 40, 0x10),
]
#: The same for the static RED policer: its draws pass, drop (a read
#: with no upload), then pass.
POLICED_AFTER_LATER_DROP = [
    (0.0, 0, True, 40, 0x02),
    (2.0, 0, True, 40, 0x10),
    (-2.0, 0, True, 40, 0x10),
]


#: Two 1500-byte uploads put every RED ramp at P_d = 1, so unsolicited
#: inbound rows drop and block their connections.  With chunks of 3, the
#: TCP flow's σ is blocked on the first chunk's last row and its σ̄ row
#: opens the next chunk; the UDP flow's block and σ̄ row share a chunk.
#: In one chunk of 500, every block meets its σ̄ row in the same chunk.
TWIN_ACROSS_CHUNKS = [
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, 0, False, 40, 0x02),
    (0.25, 0, True, 40, 0x12),
    (0.0, 1, False, 40, 0x00),
    (0.0, 1, True, 40, 0x00),
    (0.0, 0, False, 40, 0x10),
    (0.0, 1, False, 40, 0x00),
    (0.25, 0, True, 40, 0x10),
]

#: The store's GC clock (interval 1 s) at chunk edges, with chunks of 4
#: and 3: the first row anchors it; t = 4.5 fires on the second chunk's
#: first row and compacts the σ blocked at t = 0; t = 5.5 fires on that
#: chunk's last row and t = 6.5, 7.5 on the two rows after it.
GC_AT_CHUNK_EDGES = [
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, 0, False, 40, 0x02),
    (0.0, 1, False, 40, 0x00),
    (0.5, ONLY_IN, False, 40, 0x02),
    (4.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, 0, True, 40, 0x10),
    (1.0, 1, True, 40, 0x00),
    (1.0, ONLY_OUT, True, 1500, 0x10),
    (1.0, ONLY_IN, False, 40, 0x02),
    (0.0, 0, False, 40, 0x10),
]

#: A σ blocked at t = 0.5, the GC firing at t = 5 (its entry is past
#: retention there, so the compaction deletes it), then rows back at
#: t = 2, when the entry would still have held: they reach the filter.
GC_THEN_BACK_IN_TIME = [
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.5, 0, False, 40, 0x02),
    (4.5, ONLY_OUT, True, 40, 0x10),
    (-3.0, 0, True, 40, 0x12),
    (0.0, 0, False, 40, 0x10),
]


#: A σ blocked at t = 0.5 that outlives the GC firing at t = 4 (3.5 s
#: old there) but has expired when its σ̄ and σ rows arrive at t = 4.75,
#: before the clock fires again: the lookups delete it.
EXPIRED_ENTRY_MET = [
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.5, 0, False, 40, 0x02),
    (3.5, ONLY_OUT, True, 40, 0x10),
    (0.75, 0, True, 40, 0x10),
    (0.0, 0, False, 40, 0x10),
]


#: Two uploads put every RED ramp at P_d = 1, then three unsolicited
#: inbound rows drop and block three connections.  With chunks of 5, 1,
#: 1, 1, 1 and the rest, the single-row chunks meet a store holding more
#: entries than they have flows (the gate walks their flows), and the
#: last chunk, with six flows, more flows than entries (the gate walks
#: the store's entries, σ and σ̄ alike).
MORE_ENTRIES_THAN_FLOWS = [
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, ONLY_OUT, True, 1500, 0x10),
    (0.0, ONLY_IN, False, 40, 0x02),
    (0.0, 0, False, 40, 0x02),
    (0.0, 1, False, 40, 0x00),
    (0.25, 0, True, 40, 0x12),
    (0.0, 1, True, 40, 0x00),
    (0.0, ONLY_IN, False, 40, 0x02),
    (0.0, 0, False, 40, 0x10),
    (0.25, ONLY_OUT, True, 40, 0x10),
    (0.0, 0, True, 40, 0x10),
    (0.0, 0, False, 40, 0x10),
    (0.0, 1, False, 40, 0x00),
    (0.0, 1, True, 40, 0x00),
    (0.0, ONLY_IN, False, 40, 0x02),
]


def build_packets(steps):
    now = 0.0
    packets = []
    for step, flow, outbound, size, flags in steps:
        now += step
        if flow == ONLY_OUT:
            outbound = True
        elif flow == ONLY_IN:
            outbound = False
        pair = FLOWS[flow]
        packets.append(Packet(
            now, pair if outbound else pair.inverse, size=size, flags=flags,
            direction=Direction.OUTBOUND if outbound else Direction.INBOUND,
        ))
    return packets


def target_rate():
    """An integrating P_d: every rate read changes it."""
    return DropController(TargetRateController(4000.0, gain=0.5))


def coin():
    """A fractional static P_d: every miss consumes one draw."""
    return DropController(StaticDropPolicy(0.75))


def ramp():
    """A RED P_d over the tiny rates these traces carry."""
    return DropController.red_mbps(0.0005, 0.01)


BITMAP = BitmapFilterConfig(size=2 ** 8, vectors=3, hashes=2,
                            rotate_interval=DELTA_T)
#: Eight cells: the flows share them (flows 0 and 1 share cell 4), so
#: counting deletions meet other flows' increments and saturated cells.
TINY = BitmapFilterConfig(size=2 ** 3, vectors=3, hashes=2,
                          rotate_interval=DELTA_T)

#: More than 15 outbound packets within one Δt on the shared cell 4
#: (most of them deferred), a FIN/FIN that deletes flow 0 from it, then
#: an RST after a rotation.
SHARED_CELL_CLOSES = (
    [(0.0, 0, True, 40, 0x02)] + [(0.0, 0, True, 40, 0x10)] * 4
    + [(0.0, 1, True, 40, 0x00)] * 20
    + [(0.25, 0, True, 40, 0x11), (0.0, 0, False, 40, 0x11)]
    + [(0.25, 1, True, 40, 0x00), (0.0, 0, True, 40, 0x02),
       (0.0, 0, True, 40, 0x10), (0.0, 0, False, 40, 0x04)]
)


class UnregisteredBitmap(BitmapPacketFilter):
    """A subclass: no fused function, so it replays per row."""


FILTERS = {
    "bitmap": lambda: BitmapPacketFilter(BITMAP, coin(), rng=random.Random(1)),
    "bitmap-target-rate": lambda: BitmapPacketFilter(
        BITMAP, target_rate(), rng=random.Random(11)),
    "spi": lambda: SPIFilter(idle_timeout=3.0, time_wait=0.5,
                             drop_controller=ramp(), rng=random.Random(2),
                             gc_interval=1.0),
    "counting-bitmap": lambda: CountingBitmapFilter(
        BITMAP, drop_controller=coin(), rng=random.Random(3)),
    "counting-tiny": lambda: CountingBitmapFilter(
        TINY, drop_controller=ramp(), rng=random.Random(9)),
    "token-bucket": lambda: TokenBucketFilter(rate_mbps=0.01, burst_bytes=2000),
    "red-policer": lambda: RedPolicerFilter.mbps(0.0005, 0.01,
                                                 rng=random.Random(4)),
    "red-policer-static": lambda: RedPolicerFilter(StaticDropPolicy(0.5),
                                                   rng=random.Random(10)),
    "chain": lambda: FilterChain([
        SPIFilter(idle_timeout=3.0, drop_controller=coin(),
                  rng=random.Random(5), gc_interval=1.0),
        UnregisteredBitmap(BITMAP, ramp(), rng=random.Random(6)),
        TokenBucketFilter(rate_mbps=0.01, burst_bytes=3000),
        BitmapPacketFilter(BITMAP, coin(), rng=random.Random(7)),
    ]),
    "unregistered-subclass": lambda: UnregisteredBitmap(
        BITMAP, coin(), rng=random.Random(8)),
}


def make_router(name, use_blocklist):
    store = (BlockedConnectionStore(retention=RETENTION, gc_interval=1.0)
             if use_blocklist else None)
    return EdgeRouter(FILTERS[name](), blocklist=store,
                      throughput_interval=INTERVAL, drop_window=WINDOW)


def members(flt):
    return flt.filters if isinstance(flt, FilterChain) else [flt]


def state(router):
    """Everything the two drivers must agree on."""
    flt = router.filter
    return {
        "packets": router.packets,
        "offered": router.offered.snapshot(),
        "passed": router.passed.snapshot(),
        "drops": router.inbound_drops.snapshot(),
        "stats": flt.stats.snapshot(),
        "member_stats": [member.stats.snapshot() for member in members(flt)],
        "core_stats": [member.core.stats.as_dict() for member in members(flt)
                       if hasattr(member, "core")],
        "rng": [rng_state(getattr(member, "core", member)._rng)
                for member in members(flt)
                if hasattr(getattr(member, "core", member), "_rng")],
        "filter": flt.snapshot(),
        "blocklist": (router.blocklist.snapshot()
                      if router.blocklist is not None else None),
    }


def test_every_shipped_filter_but_the_subclass_is_registered():
    for name, make in FILTERS.items():
        assert (kernel_for(make()) is None) == (name == "unregistered-subclass")


@pytest.mark.parametrize("numpy", [True, False], ids=["numpy", "stdlib"])
@pytest.mark.parametrize("use_blocklist", [True, False], ids=["blocklist", "open"])
@pytest.mark.parametrize("name", sorted(FILTERS))
@settings(max_examples=100, deadline=None)
@given(steps=events, sizes=chunk_sizes, cuts=cuts)
@example(steps=RETRY_AT_HORIZON, sizes=[1], cuts={0, 5})
@example(steps=RETRY_AT_HORIZON * 8, sizes=[65], cuts={0})
@example(steps=UPLOAD_BURST, sizes=[2], cuts={1, 3})
@example(steps=SHARED_CELL_CLOSES, sizes=[500], cuts=set())
@example(steps=SHARED_CELL_CLOSES, sizes=[7, 1], cuts={2})
@example(steps=TWIN_ACROSS_CHUNKS, sizes=[3], cuts={0, 1})
@example(steps=TWIN_ACROSS_CHUNKS, sizes=[500], cuts=set())
@example(steps=GC_AT_CHUNK_EDGES, sizes=[4, 3], cuts={0, 1, 2})
@example(steps=GC_THEN_BACK_IN_TIME, sizes=[500], cuts=set())
@example(steps=GC_THEN_BACK_IN_TIME, sizes=[3, 1], cuts={0, 1})
@example(steps=EXPIRED_ENTRY_MET, sizes=[500], cuts=set())
@example(steps=EXPIRED_ENTRY_MET, sizes=[4, 1], cuts={0})
@example(steps=MORE_ENTRIES_THAN_FLOWS, sizes=[5, 1, 1, 1, 1, 500], cuts={0, 2, 5})
def test_process_table_matches_forward(name, use_blocklist, numpy, steps, sizes, cuts):
    if numpy and not table_module.HAVE_NUMPY:
        pytest.skip("numpy is not installed")
    saved = table_module._use_numpy
    table_module._use_numpy = numpy
    try:
        assert_batched_matches_forward(name, use_blocklist, steps, sizes, cuts)
    finally:
        table_module._use_numpy = saved


@pytest.mark.parametrize(
    "name, use_blocklist",
    [(name, use_blocklist) for use_blocklist in (False, True)
     for name in sorted(FILTERS)],
    ids=[name + ("-blocklist" if use_blocklist else "")
         for use_blocklist in (False, True) for name in sorted(FILTERS)],
)
@settings(max_examples=100, deadline=None)
@given(steps=reordered_events, sizes=chunk_sizes, cuts=cuts)
@example(steps=UPLOAD_AFTER_LATER_READ, sizes=[500], cuts=set())
@example(steps=POLICED_AFTER_LATER_DROP, sizes=[500], cuts=set())
def test_rows_going_back_in_time(name, use_blocklist, steps, sizes, cuts):
    # A skipped rate read's eviction must land before a row goes back
    # past it, or the batched meter drops a sample the per-row one kept.
    # With the store on, blocks and suppressions meet timestamps that go
    # back too.
    assert_batched_matches_forward(name, use_blocklist, steps, sizes, cuts)


def assert_batched_matches_forward(name, use_blocklist, steps, sizes, cuts):
    packets = build_packets(steps)
    table = PacketTable.from_packets(packets)
    reference = make_router(name, use_blocklist)
    batched = make_router(name, use_blocklist)
    expected, got = [], []
    start = 0
    position = 0
    while start < len(table):
        stop = start + sizes[position % len(sizes)]
        got.extend(batched.process_table(table.slice(start, stop)))
        expected.extend(reference.forward(packet) for packet in packets[start:stop])
        if position in cuts:
            assert state(batched) == state(reference)
        start = stop
        position += 1
    assert verdicts_of(got) == expected
    assert state(batched) == state(reference)

"""Batched replay of a chunk reads the chunk, not its stream's pool.

A long-running stream interns every flow it has seen into one pair pool
that only grows, and each chunk spawned from it indexes that pool.  The
per-chunk work of ``EdgeRouter.process_table`` -- the flow-slot scan, the
blocked-σ gate and each fused kernel's flow caches -- must be sized by
the flows the chunk holds.  Here the pool holds many more pairs than the
chunk uses, refuses ``len()`` and iteration, and counts item reads; each
chunk replays through every fused kernel, with and without a blocklist,
and must give the codes it gives over a pool of its own flows.
"""

import random
from array import array

import pytest

import repro.net.table as table_mod
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.blocklist import BlockedConnectionStore
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter
from repro.net.inet import IPPROTO_UDP
from repro.net.packet import Direction, SocketPair
from repro.net.table import PacketTable
from repro.sim.kernels import kernel_for
from repro.sim.router import EdgeRouter
from repro.workload import TraceConfig, TraceGenerator

#: Pairs the pool holds ahead of the chunks' own flows.
FILLERS = 50_000
FILLER = SocketPair(IPPROTO_UDP, 0x01020304, 9, 0x05060708, 9)
#: Pool reads allowed per distinct flow of a chunk, per filter replayed:
#: one for the gate's canonical pair and one per direction for the
#: hash keys.
READS_PER_FLOW = 3

CONFIG = BitmapFilterConfig(size=2 ** 16, vectors=4, hashes=3, rotate_interval=5.0)


def always_drop():
    return DropController(StaticDropPolicy(1.0))


FILTERS = {
    "bitmap": lambda: BitmapPacketFilter(CONFIG, always_drop(), rng=random.Random(1)),
    "spi": lambda: SPIFilter(drop_controller=always_drop(), rng=random.Random(2)),
    "counting": lambda: CountingBitmapFilter(CONFIG, always_drop(),
                                             rng=random.Random(3)),
    # The rate limiters police inbound, so their drops block connections.
    "token-bucket": lambda: TokenBucketFilter(rate_mbps=0.05,
                                              direction=Direction.INBOUND),
    "red-policer": lambda: RedPolicerFilter.mbps(
        0.01, 0.1, direction=Direction.INBOUND, rng=random.Random(4)),
    "chain": lambda: FilterChain([
        SPIFilter(drop_controller=always_drop(), rng=random.Random(5)),
        BitmapPacketFilter(CONFIG, always_drop(), rng=random.Random(6)),
        TokenBucketFilter(rate_mbps=0.05, direction=Direction.INBOUND),
    ]),
}


class GuardedPool(list):
    """A pair pool that refuses ``len()`` and iteration and counts reads."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.reads = 0

    def __len__(self):
        raise AssertionError("per-chunk work took len() of the pool")

    def __iter__(self):
        raise AssertionError("per-chunk work iterated the pool")

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@pytest.fixture(scope="module")
def trace():
    return TraceGenerator(TraceConfig(duration=40.0, connection_rate=8.0,
                                      seed=5)).table()


def chunks(trace, rows):
    """The trace's first two ``rows``-row chunks, spawned from one pool
    that holds FILLERS other pairs ahead of the trace's own."""
    holder = PacketTable()
    holder.pairs = GuardedPool([FILLER] * FILLERS + list(trace.pairs))
    out = []
    for start in (0, rows):
        source = trace.slice(start, start + rows)
        chunk = holder.spawn()
        for name, typecode in PacketTable.COLUMNS:
            setattr(chunk, name, array(typecode, getattr(source, name)))
        chunk.pair_ids = array("l", [pid + FILLERS for pid in source.pair_ids])
        chunk.payloads = trace.payloads
        out.append((chunk, source))
    return holder.pairs, out


@pytest.fixture(params=["numpy", "stdlib"])
def slot_path(request, monkeypatch):
    if request.param == "numpy" and not table_mod.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    monkeypatch.setattr(table_mod, "_use_numpy", request.param == "numpy")


def members(flt):
    return flt.filters if isinstance(flt, FilterChain) else [flt]


#: Every fused kernel, with and without a blocklist -- except the chain
#: behind one, which replays per row and reads the pool once per row.
CASES = [(name, use_blocklist) for name in sorted(FILTERS)
         for use_blocklist in (True, False)
         if not (use_blocklist and name == "chain")]


@pytest.mark.skipif(not table_mod.HAVE_NUMPY, reason="numpy not installed")
def test_flow_slot_branches_match_the_stdlib_scan(trace, monkeypatch):
    # The chunks' ids sit behind the fillers in a compact run (the numpy
    # scan marks their span); a filler row put in a chunk widens the span
    # past four times the rows (it sorts).  Both give the stdlib slots.
    _, pieces = chunks(trace, 4096)
    for chunk, _ in pieces:
        mixed = chunk.materialize()
        mixed.pair_ids[0] = 0
        for table, dense in ((chunk, True), (mixed, False)):
            span = max(table.pair_ids) - min(table.pair_ids) + 1
            assert (span <= 4 * len(table)) == dense
            monkeypatch.setattr(table_mod, "_use_numpy", False)
            want = table.flow_slots()
            monkeypatch.setattr(table_mod, "_use_numpy", True)
            assert table.flow_slots() == want


@pytest.mark.parametrize("rows", [4096, 40])
@pytest.mark.parametrize("name, use_blocklist", CASES,
                         ids=[f"{name}-{'blocklist' if gated else 'open'}"
                              for name, gated in CASES])
def test_chunk_work_reads_only_the_chunks_flows(trace, slot_path, name,
                                                use_blocklist, rows):
    pool, pieces = chunks(trace, rows)
    guarded = EdgeRouter(FILTERS[name](), blocklist=(
        BlockedConnectionStore() if use_blocklist else None))
    plain = EdgeRouter(FILTERS[name](), blocklist=(
        BlockedConnectionStore() if use_blocklist else None))
    assert kernel_for(guarded.filter, gated=use_blocklist) is not None
    for chunk, source in pieces:
        pool.reads = 0
        codes = guarded.process_table(chunk)
        flows = len(set(chunk.pair_ids))
        assert pool.reads <= READS_PER_FLOW * flows * len(members(guarded.filter))
        assert codes == plain.process_table(source)
    if use_blocklist:
        # The second chunk met a store with entries at table start.
        assert guarded.blocklist.suppressed_packets > 0
        assert guarded.blocklist.suppressed_packets == plain.blocklist.suppressed_packets

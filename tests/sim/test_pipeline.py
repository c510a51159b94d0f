"""Tests for the unified replay engine: backend dispatch and equivalence.

Two contracts under test.  First, :func:`repro.sim.pipeline.select_backend`
maps every coherent ``(batched, workers, chunk_size)`` combination onto
exactly one backend and *raises* on the incoherent ones — no silent mode
downgrades.  Second, every backend is bit-identical: same verdicts, same
statistics, same RNG consumption as the sequential reference loop.
:func:`repro.sim.replay.compare_drop_rates`, which steps every filter
through one pass of its input, is held to the same bit-identity against
a per-filter :func:`repro.sim.replay.replay`.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.net.table as table_module
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.base import (
    CODE_DROP,
    CODE_PASS,
    CODE_UNSEEN,
    AcceptAllFilter,
    Verdict,
)
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.sharded import ShardedFilter
from repro.filters.spi import SPIFilter
from repro.net.inet import parse_ipv4
from repro.net.table import PacketTable
from repro.sim.metrics import scatter_points
from repro.sim.pipeline import (
    _FOLD_BLOCKS,
    FINGERPRINT_SEED,
    NUMPY_FOLD_ROWS,
    BatchedBackend,
    ParallelBackend,
    PipelineConfig,
    ReplayPipeline,
    SequentialBackend,
    fingerprint_verdicts,
    select_backend,
)
from repro.sim.replay import compare_drop_rates, replay
from repro.workload import TraceConfig, TraceGenerator

BASE = parse_ipv4("10.1.0.0")


def trace(seed, duration=25.0, rate=6.0):
    config = TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    return TraceGenerator(config).packet_list()


def make_sharded(shard_count=4, size=2 ** 14):
    prefix = 24 + shard_count.bit_length() - 1
    step = 1 << (32 - prefix)
    return ShardedFilter([
        (BASE + i * step, prefix,
         BitmapPacketFilter(BitmapFilterConfig(size=size, vectors=4, hashes=3,
                                               rotate_interval=5.0)))
        for i in range(shard_count)
    ])


def fingerprint(result):
    """Everything two backends must agree on, byte for byte."""
    router = result.router
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "duration": result.duration,
        "filter_stats": router.filter.stats.as_dict(),
        "offered_bins": router.offered._bins,
        "passed_bins": router.passed._bins,
        "drop_packets": router.inbound_drops._packets,
        "drop_dropped": router.inbound_drops._dropped,
        "blocked": (None if router.blocklist is None
                    else dict(router.blocklist._blocked)),
        "suppressed": (0 if router.blocklist is None
                       else router.blocklist.suppressed_packets),
    }


class TestDispatchMatrix:
    """select_backend's table, row by row."""

    def test_default_is_sequential(self):
        assert isinstance(select_backend(), SequentialBackend)

    def test_batched_none_and_false_are_sequential(self):
        assert isinstance(select_backend(batched=None), SequentialBackend)
        assert isinstance(select_backend(batched=False), SequentialBackend)

    def test_batched_true_is_batched(self):
        backend = select_backend(batched=True)
        assert isinstance(backend, BatchedBackend)
        assert backend.chunk_size is None

    def test_batched_with_chunk_size(self):
        assert select_backend(batched=True, chunk_size=512).chunk_size == 512

    def test_workers_default_to_batched_lanes(self):
        backend = select_backend(workers=4)
        assert isinstance(backend, ParallelBackend)
        assert backend.workers == 4

    def test_workers_with_batched_false_raise(self):
        """Parallel lanes always replay batched; asking for per-packet
        lanes is an error, not a silent upgrade."""
        with pytest.raises(ValueError, match="batched"):
            select_backend(batched=False, workers=2)
        with pytest.raises(ValueError, match="batched"):
            replay(trace(1), make_sharded(), workers=2, batched=False)

    def test_workers_below_one_raise(self):
        with pytest.raises(ValueError, match="workers"):
            select_backend(workers=0)
        with pytest.raises(ValueError, match="workers"):
            replay(trace(1), SPIFilter(), workers=0)

    def test_workers_with_chunk_size_raise(self):
        with pytest.raises(ValueError, match="chunk_size"):
            select_backend(workers=2, chunk_size=64)

    def test_chunk_size_without_batched_raises(self):
        with pytest.raises(ValueError, match="chunk_size"):
            select_backend(chunk_size=64)
        with pytest.raises(ValueError, match="chunk_size"):
            replay(trace(1), SPIFilter(), chunk_size=64)

    def test_bad_chunk_size_raises(self):
        with pytest.raises(ValueError, match="chunk_size"):
            BatchedBackend(chunk_size=0)

    def test_explicit_backend_excludes_knobs(self):
        packets = trace(1)
        with pytest.raises(ValueError, match="not both"):
            replay(packets, SPIFilter(), backend=SequentialBackend(),
                   batched=True)
        with pytest.raises(ValueError, match="not both"):
            replay(packets, make_sharded(), backend=SequentialBackend(),
                   workers=2)
        with pytest.raises(ValueError, match="not both"):
            replay(packets, SPIFilter(), backend=BatchedBackend(),
                   chunk_size=64)

    def test_explicit_backend_is_used(self):
        packets = trace(1)
        by_knob = replay(packets, SPIFilter(), batched=True)
        by_backend = replay(packets, SPIFilter(), backend=BatchedBackend())
        assert fingerprint(by_backend) == fingerprint(by_knob)

    def test_describe_labels(self):
        assert select_backend().describe() == "sequential"
        assert select_backend(batched=True).describe() == "batched"
        assert select_backend(workers=3).describe() == "parallel x3"


class TestBackendEquivalence:
    """Sequential × batched × parallel over the same sharded filter."""

    @pytest.mark.parametrize("seed", [2, 19])
    def test_all_backends_agree(self, seed):
        packets = trace(seed)
        reference = fingerprint(
            replay(packets, make_sharded(), use_blocklist=True, batched=False))
        batched = fingerprint(
            replay(packets, make_sharded(), use_blocklist=True, batched=True))
        assert batched == reference
        for workers in (2, 4):
            parallel = fingerprint(
                replay(packets, make_sharded(), use_blocklist=True,
                       workers=workers))
            assert parallel == reference

    def test_chunked_batching_agrees(self):
        packets = trace(7)
        whole = fingerprint(
            replay(packets, make_sharded(), use_blocklist=True, batched=True))
        for chunk_size in (1, 64, 1000, len(packets) + 10):
            chunked = fingerprint(
                replay(packets, make_sharded(), use_blocklist=True,
                       batched=True, chunk_size=chunk_size))
            assert chunked == whole


GENERIC_FILTERS = {
    "spi": lambda: SPIFilter(idle_timeout=120.0),
    "counting": lambda: CountingBitmapFilter(
        BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3,
                           rotate_interval=5.0)),
    "token-bucket": lambda: TokenBucketFilter(rate_mbps=0.5),
    "red-policer": lambda: RedPolicerFilter.mbps(low_mbps=0.2, high_mbps=0.8),
    "chain": lambda: FilterChain([SPIFilter(idle_timeout=120.0),
                                  TokenBucketFilter(rate_mbps=0.5)]),
}


class TestGenericBatchProtocol:
    """Batched replay — each filter's fused function behind the router's
    one gate-and-account driver — must match the per-packet loop for
    every filter, including RNG-consuming ones, where order of draws is
    the contract."""

    @pytest.mark.parametrize("name", sorted(GENERIC_FILTERS))
    def test_batched_equals_sequential_without_blocklist(self, name):
        packets = trace(4)
        make = GENERIC_FILTERS[name]
        sequential = replay(packets, make(), use_blocklist=False)
        batched = replay(packets, make(), use_blocklist=False, batched=True)
        assert fingerprint(batched) == fingerprint(sequential)

    @pytest.mark.parametrize("name", sorted(GENERIC_FILTERS))
    def test_batched_equals_sequential_with_blocklist(self, name):
        """With a blocklist the gate interleaves suppression with the
        fused verdicts (the chain alone replays per row) — still
        identical."""
        packets = trace(4)
        make = GENERIC_FILTERS[name]
        sequential = replay(packets, make(), use_blocklist=True)
        batched = replay(packets, make(), use_blocklist=True, batched=True)
        assert fingerprint(batched) == fingerprint(sequential)

    def test_sharded_batched_replay_matches_sequential(self):
        """An in-process ShardedFilter has no fused function, so batched
        replay runs it per row; member stats, unrouted counts and the
        route cache all line up with the sequential backend."""
        packets = trace(8)
        sequential = replay(packets, make_sharded())
        batched = replay(packets, make_sharded(), batched=True)
        assert fingerprint(batched) == fingerprint(sequential)
        assert batched.router.filter.shard_stats() == \
            sequential.router.filter.shard_stats()
        assert batched.router.filter.unrouted_packets == \
            sequential.router.filter.unrouted_packets


class TestMixedTraversal:
    def test_pending_rows_fold_before_a_table(self):
        # Rows the per-packet path still holds are accounted before the
        # table's, so the fingerprint keeps stream order.
        packets = trace(4)
        cut = 1000

        def make():
            return BitmapPacketFilter(BitmapFilterConfig(
                size=2 ** 10, vectors=4, hashes=3, rotate_interval=5.0))

        pipeline = ReplayPipeline(PipelineConfig(
            packet_filter=make(), record_fingerprint=True))
        for packet in packets[:cut]:
            pipeline.process(packet)
        pipeline.process_table(PacketTable.from_packets(packets[cut:]))
        mixed = pipeline.finalize()
        sequential = replay(packets, make(), record_fingerprint=True)
        assert mixed.fingerprint == sequential.fingerprint
        assert fingerprint(mixed) == fingerprint(sequential)


class TestCompareDropRatesPassthrough:
    def make_filters(self):
        return {
            "spi": SPIFilter(idle_timeout=240.0),
            "bitmap": BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3,
                                   rotate_interval=5.0)),
        }

    def test_batched_passthrough_identical(self):
        packets = trace(15)
        reference = compare_drop_rates(packets, self.make_filters())
        batched = compare_drop_rates(packets, self.make_filters(),
                                     batched=True)
        assert batched.points == reference.points
        for name in ("spi", "bitmap"):
            assert batched.overall(name) == reference.overall(name)

    def test_workers_passthrough_identical(self):
        packets = trace(15)
        filters = {"a": make_sharded(), "b": make_sharded(size=2 ** 12)}
        reference = compare_drop_rates(packets, filters)
        parallel = compare_drop_rates(
            packets, {"a": make_sharded(), "b": make_sharded(size=2 ** 12)},
            workers=2)
        assert parallel.points == reference.points
        for name in ("a", "b"):
            assert parallel.overall(name) == reference.overall(name)


class TestCompareDropRatesFactory:
    """The bounded-memory path: a callable trace factory is called once
    and its chunk stream feeds every filter in lockstep, never
    materializing one table."""

    def make_filters(self):
        return {
            "spi": SPIFilter(idle_timeout=240.0),
            "bitmap": BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 14, vectors=4, hashes=3,
                                   rotate_interval=5.0)),
        }

    def test_factory_matches_materialized(self):
        config = TraceConfig(duration=25.0, connection_rate=6.0, seed=15)
        table = TraceGenerator(config).table()
        reference = compare_drop_rates(table, self.make_filters(),
                                       batched=True)
        calls = []

        def factory():
            calls.append(None)
            return TraceGenerator(config).iter_tables(chunk_size=512)

        streamed = compare_drop_rates(factory, self.make_filters(),
                                      batched=True)
        assert streamed.points == reference.points
        for name in ("spi", "bitmap"):
            assert streamed.overall(name) == reference.overall(name)
        # One generation pass feeds both filters, and it is charged to
        # trace_s rather than to either filter's replay_s.
        assert len(calls) == 1
        assert streamed.timings["trace_s"] > 0.0

    def test_timings_cover_every_filter(self):
        comparison = compare_drop_rates(trace(15), self.make_filters())
        assert set(comparison.timings["replay_s"]) == {"spi", "bitmap"}
        assert all(value >= 0.0
                   for value in comparison.timings["replay_s"].values())
        assert comparison.timings["trace_s"] >= 0.0


LOCKSTEP_TRACE = TraceConfig(duration=10.0, connection_rate=5.0, seed=21)


def lockstep_filters():
    """SPI, bitmap, and a counting filter whose RED controller draws its
    P_d coins from the filter's own RNG."""
    return {
        "spi": SPIFilter(idle_timeout=240.0),
        "bitmap": BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** 12, vectors=4, hashes=3,
                               rotate_interval=5.0)),
        "counting-red": CountingBitmapFilter(
            BitmapFilterConfig(size=2 ** 12, vectors=3, hashes=2,
                               rotate_interval=5.0),
            drop_controller=DropController.red_mbps(0.02, 0.2),
            rng=random.Random(3)),
    }


def lockstep_generator():
    return TraceGenerator(LOCKSTEP_TRACE)


#: Every input shape compare_drop_rates accepts, each built fresh per call.
LOCKSTEP_INPUTS = {
    "packet-list": lambda: lockstep_generator().packet_list(),
    "table": lambda: lockstep_generator().table(),
    "table-list": lambda: list(lockstep_generator().iter_tables(700)),
    "table-iterator-700": lambda: lockstep_generator().iter_tables(700),
    "table-iterator-1999": lambda: lockstep_generator().iter_tables(1999),
    "factory": lambda: (lambda: lockstep_generator().iter_tables(512)),
    "packet-generator": lambda: lockstep_generator().packets(),
}


@pytest.fixture(scope="module")
def lockstep_references():
    """(batched, use_blocklist) -> each filter replayed on its own through
    replay(), fingerprinted, plus the SPI/bitmap scatter points."""
    packets = lockstep_generator().packet_list()
    references = {}
    for batched in (None, True):
        for use_blocklist in (False, True):
            results = {
                name: replay(packets, flt, use_blocklist=use_blocklist,
                             batched=batched)
                for name, flt in lockstep_filters().items()
            }
            points = scatter_points(results["spi"].router.inbound_drops,
                                    results["bitmap"].router.inbound_drops,
                                    min_packets=20)
            references[batched, use_blocklist] = (
                {name: fingerprint(result) for name, result in results.items()},
                points,
            )
    return references


class TallyingFilter(AcceptAllFilter):
    """Passes everything and counts the packets it has decided."""

    def __init__(self):
        super().__init__()
        self.decided = 0

    def decide(self, packet):
        self.decided += 1
        return Verdict.PASS


class TestCompareDropRatesLockstep:
    """compare_drop_rates pulls each chunk once and feeds it to one
    ReplayStepper per filter; every result must equal a per-filter
    replay() of the same stream."""

    @pytest.mark.parametrize("use_blocklist", [False, True])
    @pytest.mark.parametrize("batched", [None, True])
    @pytest.mark.parametrize("shape", sorted(LOCKSTEP_INPUTS))
    def test_matches_per_filter_replay(self, lockstep_references, shape,
                                       batched, use_blocklist):
        expected, expected_points = lockstep_references[batched, use_blocklist]
        # The RED controller drew coins, so the RNG order is under test.
        assert expected["counting-red"]["filter_stats"]["dropped_inbound"] > 0
        comparison = compare_drop_rates(
            LOCKSTEP_INPUTS[shape](), lockstep_filters(),
            use_blocklist=use_blocklist, batched=batched)
        got = {name: fingerprint(result)
               for name, result in comparison.results.items()}
        assert got == expected
        assert comparison.points == expected_points

    @pytest.mark.parametrize("batched", [None, True])
    def test_each_chunk_replayed_before_the_next_pull(self, batched):
        filters = {name: TallyingFilter() for name in ("a", "b", "c")}
        observed = []

        def chunks():
            pulled = 0
            for table in lockstep_generator().iter_tables(700):
                observed.append(
                    (pulled, [flt.decided for flt in filters.values()]))
                yield table
                pulled += len(table)
            observed.append(
                (pulled, [flt.decided for flt in filters.values()]))

        comparison = compare_drop_rates(chunks(), filters, batched=batched)
        assert len(observed) > 3
        for pulled, decided in observed:
            assert decided == [pulled] * len(filters)
        assert comparison.results["a"].packets == observed[-1][0]


class TestUnifiedResultShape:
    def test_single_process_shape(self):
        result = replay(trace(1), SPIFilter())
        assert result.workers == 1
        assert result.lanes == []
        assert result.lane_packet_counts() == {}

    def test_parallel_shape(self):
        result = replay(trace(1), make_sharded(), workers=2)
        assert result.workers == 2
        assert result.lanes
        counts = result.lane_packet_counts()
        assert sum(counts.values()) == result.packets


def scalar_fold(fingerprint, codes):
    """FNV-1a over the codes one row at a time: 1 for a pass, else 2."""
    for code in codes:
        fingerprint = ((fingerprint ^ (1 if code == CODE_PASS else 2))
                       * 0x100000001B3) % 2 ** 64
    return fingerprint


CODES = st.lists(st.sampled_from([CODE_DROP, CODE_PASS, CODE_UNSEEN]), max_size=40)
#: Row codes from bytes: each byte mod 3 (drop, pass or unseen).
TO_CODES = bytes(byte % 3 for byte in range(256))


def random_codes(seed, length):
    return bytearray(random.Random(seed).randbytes(length)).translate(TO_CODES)


#: Buffers past the numpy fold's minimum.
LONG_CODES = st.builds(random_codes, st.integers(0, 2 ** 32 - 1),
                       st.integers(NUMPY_FOLD_ROWS - 8, 5000))
#: More blocks than one numpy fold step takes.
PAST_ONE_STEP = random_codes(7, 8 * _FOLD_BLOCKS + 24)


@pytest.mark.parametrize("tail", range(8))
@settings(max_examples=60, deadline=None)
@given(codes=CODES.map(bytearray) | LONG_CODES,
       start=st.integers(0, 2 ** 64 - 1) | st.just(FINGERPRINT_SEED),
       cut=st.integers(0, 5000))
@example(codes=PAST_ONE_STEP, start=FINGERPRINT_SEED, cut=8 * _FOLD_BLOCKS - 3)
def test_block_fold_is_the_scalar_fold(tail, codes, start, cut):
    # Every length mod 8: whole eight-row blocks, then ``tail`` rows.
    codes = codes[:len(codes) & -8] + bytearray([CODE_UNSEEN, CODE_PASS] * 4)
    codes = codes[:len(codes) - 8 + tail]
    assert len(codes) % 8 == tail
    head, rest = codes[:cut], codes[cut:]
    saved = table_module._use_numpy
    try:
        for low_bits in range(4):  # the fold's state: the low two bits
            start = start & ~3 | low_bits
            want = scalar_fold(start, codes)
            for numpy in (True, False):
                table_module._use_numpy = numpy and table_module.HAVE_NUMPY
                table_module._numpy()  # loaded, so a long buffer's fold may take it
                assert fingerprint_verdicts(start, codes) == want
                assert fingerprint_verdicts(start, bytes(codes)) == want
                # Split anywhere: the fold of the rest continues the head's.
                assert fingerprint_verdicts(fingerprint_verdicts(start, head), rest) == want
    finally:
        table_module._use_numpy = saved

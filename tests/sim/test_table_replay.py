"""Cross-representation replay equivalence.

One trace, two representations (``List[Packet]`` vs the columnar
:class:`~repro.net.table.PacketTable`), three execution backends
(sequential, batched, multiprocess-parallel): every combination must
produce identical verdicts, filter statistics, throughput bins, drop
windows and blocklists, with numpy present or absent.  These tests are
the acceptance gate for the columnar packet plane.
"""

import pytest

import repro.net.table as table_mod
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.sharded import ShardedFilter
from repro.filters.spi import SPIFilter
from repro.net.inet import parse_ipv4
from repro.net.table import PacketTable
from repro.sim.parallel import parallel_replay
from repro.sim.replay import compare_drop_rates, replay
from repro.workload.generator import TraceConfig, TraceGenerator

BASE = parse_ipv4("10.1.0.0")


def make_filter(size=2 ** 14):
    return BitmapPacketFilter(
        BitmapFilterConfig(size=size, vectors=4, hashes=3, rotate_interval=5.0)
    )


def make_sharded(shard_count=2, size=2 ** 13):
    prefix = 24 + shard_count.bit_length() - 1
    step = 1 << (32 - prefix)
    return ShardedFilter([
        (BASE + i * step, prefix, make_filter(size))
        for i in range(shard_count)
    ])


def fingerprint(result):
    router = result.router
    # The bitmap core's counters: the filter's own, or each shard's.
    members = getattr(router.filter, "members", [router.filter])
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "duration": result.duration,
        "filter_stats": router.filter.stats.as_dict(),
        "core_stats": [member.core.stats.as_dict() for member in members],
        "offered_bins": router.offered._bins,
        "passed_bins": router.passed._bins,
        "drop_packets": router.inbound_drops._packets,
        "drop_dropped": router.inbound_drops._dropped,
        "blocked": (None if router.blocklist is None
                    else dict(router.blocklist._blocked)),
        "suppressed": (0 if router.blocklist is None
                       else router.blocklist.suppressed_packets),
    }


@pytest.fixture(scope="module")
def traces():
    """The same trace in both representations, per seed."""
    out = {}
    for seed in (7, 42):
        config = TraceConfig(duration=25.0, connection_rate=6.0, seed=seed)
        out[seed] = (
            TraceGenerator(config).packet_list(),
            TraceGenerator(config).table(),
        )
    return out


@pytest.fixture(params=["numpy", "stdlib"])
def merge_path(request, monkeypatch):
    if request.param == "numpy" and not table_mod.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    monkeypatch.setattr(
        table_mod, "_use_numpy", request.param == "numpy" and table_mod.HAVE_NUMPY
    )
    return request.param


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("batched", [False, True],
                             ids=["sequential", "batched"])
    def test_single_process(self, traces, merge_path, seed, batched):
        packets, table = traces[seed]
        reference = fingerprint(
            replay(packets, make_filter(), use_blocklist=True, batched=batched)
        )
        got = fingerprint(
            replay(table, make_filter(), use_blocklist=True, batched=batched)
        )
        assert got == reference

    @pytest.mark.parametrize("seed", [7])
    def test_parallel_backend(self, traces, merge_path, seed):
        packets, table = traces[seed]
        reference = fingerprint(
            parallel_replay(packets, make_sharded(), workers=2)
        )
        got = fingerprint(parallel_replay(table, make_sharded(), workers=2))
        assert got == reference

    def test_parallel_table_matches_single_process_sharded(self, traces):
        packets, table = traces[7]
        single = fingerprint(replay(packets, make_sharded(), use_blocklist=True))
        parallel = fingerprint(parallel_replay(table, make_sharded(), workers=2))
        assert parallel == single


class TestStreamedInput:
    """iter_tables chunks feed every backend without materializing."""

    @pytest.mark.parametrize("batched", [False, True],
                             ids=["sequential", "batched"])
    @pytest.mark.parametrize("chunk_size", [97, 2048])
    def test_chunked_stream(self, traces, merge_path, batched, chunk_size):
        packets, _ = traces[7]
        config = TraceConfig(duration=25.0, connection_rate=6.0, seed=7)
        reference = fingerprint(
            replay(packets, make_filter(), use_blocklist=True, batched=batched)
        )
        stream = TraceGenerator(config).iter_tables(chunk_size=chunk_size)
        got = fingerprint(
            replay(stream, make_filter(), use_blocklist=True, batched=batched)
        )
        assert got == reference

    @pytest.mark.parametrize("backend", [
        dict(batched=False), dict(batched=True),
        dict(batched=True, chunk_size=501),
    ], ids=["sequential", "batched", "chunked"])
    def test_list_of_tables(self, traces, backend):
        # A list of tables is a table stream, like an iterator over them.
        packets, table = traces[7]
        reference = fingerprint(
            replay(packets, make_filter(), use_blocklist=True, **backend)
        )
        cut = len(table) // 3
        tables = [table.slice(0, cut), table.slice(cut, len(table))]
        got = fingerprint(
            replay(tables, make_filter(), use_blocklist=True, **backend)
        )
        assert got == reference

    def test_explicit_chunk_size_argument(self, traces):
        packets, table = traces[7]
        reference = fingerprint(
            replay(packets, make_filter(), use_blocklist=True, batched=True)
        )
        got = fingerprint(
            replay(table, make_filter(), use_blocklist=True, batched=True,
                   chunk_size=501)
        )
        assert got == reference


class TestCompareDropRates:
    def test_table_matches_list(self, traces, merge_path):
        packets, table = traces[7]

        def run(trace):
            comparison = compare_drop_rates(
                trace,
                {"spi": SPIFilter(idle_timeout=240.0), "bitmap": make_filter()},
                batched=True,
            )
            return comparison.points, {
                name: comparison.overall(name) for name in ("spi", "bitmap")
            }

        assert run(table) == run(packets)


class TestFromPacketsTables:
    """Tables built by columnarizing objects replay identically too."""

    def test_from_packets_round_trip_replay(self, traces, merge_path):
        packets, _ = traces[42]
        reference = fingerprint(
            replay(packets, make_filter(), use_blocklist=True, batched=True)
        )
        got = fingerprint(
            replay(PacketTable.from_packets(packets), make_filter(),
                   use_blocklist=True, batched=True)
        )
        assert got == reference

"""The generator's columnar emission contract.

``TraceGenerator.iter_tables`` / ``table()`` must produce *exactly* the
stream ``packets()`` produces — same rows, same order, same field values
— for every chunk size, on both the numpy-accelerated and the pure-stdlib
merge paths.  The chunks must share one interning pool so per-flow state
carries across them, and bounded ``chunk_size`` must actually bound rows
per chunk.
"""

import pytest

import repro.net.table as table_mod
from repro.workload.generator import TraceConfig, TraceGenerator

CONFIGS = [
    TraceConfig(duration=30.0, connection_rate=6.0, seed=7),
    TraceConfig(duration=45.0, connection_rate=4.0, seed=42),
]


def fields(packets):
    return [
        (p.timestamp, p.pair, p.size, p.flags, p.payload, p.direction)
        for p in packets
    ]


@pytest.fixture(params=["numpy", "stdlib"])
def merge_path(request, monkeypatch):
    if request.param == "numpy" and not table_mod.HAVE_NUMPY:
        pytest.skip("numpy not installed")
    monkeypatch.setattr(
        table_mod, "_use_numpy", request.param == "numpy" and table_mod.HAVE_NUMPY
    )
    return request.param


class TestStreamEquivalence:
    @pytest.mark.parametrize("config", CONFIGS, ids=["seed7", "seed42"])
    def test_table_matches_packets(self, config, merge_path):
        reference = fields(TraceGenerator(config).packets())
        table = TraceGenerator(config).table()
        assert fields(table.to_packets()) == reference

    @pytest.mark.parametrize("chunk_size", [1, 97, 1024, None])
    def test_chunks_concatenate_to_packets(self, chunk_size, merge_path):
        config = CONFIGS[0]
        reference = fields(TraceGenerator(config).packets())
        got = []
        for chunk in TraceGenerator(config).iter_tables(chunk_size=chunk_size):
            if chunk_size is not None:
                assert len(chunk) <= chunk_size
            got.extend(fields(chunk.to_packets()))
        assert got == reference

    def test_chunks_share_one_interning_pool(self):
        chunks = list(TraceGenerator(CONFIGS[0]).iter_tables(chunk_size=512))
        assert len(chunks) > 1
        first = chunks[0]
        for chunk in chunks[1:]:
            assert chunk.pairs is first.pairs
            assert chunk.payloads is first.payloads

    def test_timestamps_nondecreasing_within_and_across_chunks(self):
        previous = float("-inf")
        for chunk in TraceGenerator(CONFIGS[0]).iter_tables(chunk_size=256):
            for timestamp in chunk.timestamps:
                assert timestamp >= previous
                previous = timestamp


COLUMNS = ("timestamps", "sizes", "flags", "outbound", "pair_ids", "payload_ids")


class TestChunkingByteIdentity:
    """Chunk boundaries are presentation only: concatenating any chunk
    stream reproduces the one-shot ``table()`` byte for byte — columns
    *and* interning pools.  Prime chunk sizes force boundaries to
    straddle connection row-runs; 65536 exercises the flush floor."""

    @pytest.mark.parametrize("config", CONFIGS, ids=["seed7", "seed42"])
    @pytest.mark.parametrize("chunk_size", [1, 13, 97, 311, 1024, 65536])
    def test_concat_equals_one_shot(self, config, chunk_size, merge_path):
        one_shot = TraceGenerator(config).table()
        chunks = list(TraceGenerator(config).iter_tables(chunk_size=chunk_size))
        for column in COLUMNS:
            assert b"".join(
                getattr(chunk, column).tobytes() for chunk in chunks
            ) == getattr(one_shot, column).tobytes(), column
        pool = chunks[-1]
        assert list(pool.pairs) == list(one_shot.pairs)
        assert list(pool.payloads) == list(one_shot.payloads)


class TestNumpyStdlibIdentity:
    """The acceleration path is an optimization, never a behavior change."""

    @pytest.mark.skipif(not table_mod.HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("chunk_size", [257, None])
    def test_bit_identical_chunks(self, monkeypatch, chunk_size):
        def emit(use_numpy):
            monkeypatch.setattr(table_mod, "_use_numpy", use_numpy)
            return [
                (
                    chunk.timestamps.tobytes(),
                    chunk.sizes.tobytes(),
                    chunk.flags.tobytes(),
                    chunk.outbound.tobytes(),
                    chunk.pair_ids.tobytes(),
                    chunk.payload_ids.tobytes(),
                )
                for chunk in TraceGenerator(CONFIGS[0]).iter_tables(
                    chunk_size=chunk_size
                )
            ]

        assert emit(True) == emit(False)

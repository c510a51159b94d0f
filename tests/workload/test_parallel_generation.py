"""The batch materializer's chunk stream, the throttled
:class:`ProgressReporter`, and the materialization-size warnings.

:func:`materialize_tables` must emit the same stream — column bytes,
shared interning pools, chunk boundaries — whatever the batch size, and
keep every chunk within ``chunk_size`` rows.
"""

import io

import pytest

import repro.workload.generator as generator_mod
from repro.workload.generator import TraceConfig, TraceGenerator
from repro.workload.parallel import materialize_tables
from repro.workload.progress import ProgressReporter, _format_seconds

CONFIG = TraceConfig(duration=30.0, connection_rate=6.0, seed=7)


def column_bytes(chunk):
    return (
        chunk.timestamps.tobytes(),
        chunk.sizes.tobytes(),
        chunk.flags.tobytes(),
        chunk.outbound.tobytes(),
        chunk.pair_ids.tobytes(),
        chunk.payload_ids.tobytes(),
    )


def stream_signature(chunks):
    """Everything the identity contract covers: per-chunk column bytes
    plus the shared pools' exact contents and order."""
    chunks = list(chunks)
    columns = [column_bytes(chunk) for chunk in chunks]
    if chunks:
        pairs = [tuple(pair) for pair in chunks[-1].pairs]
        payloads = list(chunks[-1].payloads)
    else:
        pairs, payloads = [], []
    return columns, pairs, payloads


class TestParallelByteIdentity:
    """Bounded chunks over one pool, the same bytes for every batch size."""

    def test_chunk_size_bounds_hold(self):
        chunks = list(TraceGenerator(CONFIG).iter_tables(chunk_size=777))
        assert len(chunks) > 1
        assert all(len(chunk) <= 777 for chunk in chunks)
        # All chunks spawn from one pool: interned ids stay valid
        # across the stream.
        assert all(chunk.pairs is chunks[0].pairs for chunk in chunks[1:])

    def test_batch_size_does_not_affect_output(self):
        generator = TraceGenerator(CONFIG)
        baseline = stream_signature(generator.iter_tables(chunk_size=512))
        for batch_size in (1, 7, 1000):
            got = stream_signature(
                materialize_tables(
                    TraceGenerator(CONFIG), chunk_size=512,
                    batch_size=batch_size,
                )
            )
            assert got == baseline

    def test_empty_trace(self):
        # Seeded so the first Poisson arrival lands past the horizon:
        # zero specs, zero chunks, an empty table.
        config = TraceConfig(duration=0.01, connection_rate=0.01, seed=1)
        assert list(TraceGenerator(config).iter_tables()) == []
        assert len(TraceGenerator(config).table()) == 0


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestProgressReporter:
    def make(self, **kwargs):
        clock = _FakeClock()
        stream = io.StringIO()
        reporter = ProgressReporter(
            "gen", interval=2.0, stream=stream, clock=clock, **kwargs
        )
        return reporter, clock, stream

    def test_throttles_to_one_line_per_interval(self):
        reporter, clock, stream = self.make()
        clock.t = 1.0
        reporter.update(10)
        assert stream.getvalue() == ""  # inside the first interval
        clock.t = 2.5
        reporter.update(50)
        clock.t = 3.0
        reporter.update(60)  # deadline moved to 4.5: suppressed
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1
        assert "gen: 50 packets" in lines[0]
        assert "20 pkt/s" in lines[0]  # 50 packets / 2.5 s

    def test_eta_from_trace_time(self):
        reporter, clock, stream = self.make(duration=100.0)
        clock.t = 2.5
        reporter.update(50, trace_time=25.0)
        line = stream.getvalue()
        assert "trace 25/100s" in line
        # elapsed 2.5 s covered 25 of 100 trace seconds -> 7.5 s left.
        assert "ETA 8s" in line

    def test_finish_summarizes_long_runs_only(self):
        reporter, clock, stream = self.make()
        clock.t = 2.5
        reporter.update(50)
        clock.t = 5.0
        reporter.finish()
        assert "done — 50 packets" in stream.getvalue().splitlines()[-1]

    def test_short_runs_stay_silent(self):
        reporter, clock, stream = self.make()
        clock.t = 1.0
        reporter.update(1000)
        reporter.finish()
        assert stream.getvalue() == ""

    def test_format_seconds(self):
        assert _format_seconds(5.4) == "5s"
        assert _format_seconds(250) == "4m10s"
        assert _format_seconds(7320) == "2h02m"
        assert _format_seconds(-3.0) == "0s"


class TestMaterializeWarnings:
    def test_packet_list_warns_past_threshold(self, monkeypatch):
        monkeypatch.setattr(generator_mod, "MATERIALIZE_WARNING_THRESHOLD", 100)
        with pytest.warns(UserWarning, match="packet_list"):
            packets = TraceGenerator(CONFIG).packet_list()
        assert len(packets) > 100  # warning did not truncate the trace

    def test_small_traces_stay_quiet(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TraceGenerator(
                TraceConfig(duration=5.0, connection_rate=2.0, seed=3)
            ).packet_list()

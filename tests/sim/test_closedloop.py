"""Tests for the closed-loop (feedback) simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.base import AcceptAllFilter, Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Direction, Packet
from repro.sim.closedloop import AdmissionLoop, ClosedLoopSimulator
from repro.workload.apps import ConnectionSpec, Initiator
from repro.workload.generator import TraceConfig, TraceGenerator

from tests.conftest import CLIENT_ADDR, REMOTE_ADDR, PassFirstPackets, tcp_pair


def spec(initiator=Initiator.CLIENT, start=0.0, sport=3000, upload=50_000):
    return ConnectionSpec(
        app="bittorrent",
        start=start,
        protocol=IPPROTO_TCP,
        client_addr=CLIENT_ADDR,
        client_port=sport,
        remote_addr=REMOTE_ADDR,
        remote_port=6881,
        initiator=initiator,
        bytes_client_to_remote=upload,
        duration=10.0,
        rtt=0.05,
    )


def bitmap_filter(drop_controller=None):
    return BitmapPacketFilter(
        BitmapFilterConfig(size=2 ** 16, vectors=4, hashes=3, rotate_interval=5.0),
        drop_controller=drop_controller or DropController.always_drop(),
    )


class TestAdmission:
    def test_accept_all_admits_everything(self):
        sim = ClosedLoopSimulator(AcceptAllFilter())
        result = sim.run([spec(sport=3000 + i) for i in range(5)])
        assert result.connections_total == 5
        assert result.connections_admitted == 5
        assert result.connections_refused == 0
        assert result.admission_rate == 1.0

    def test_client_initiated_always_admitted(self):
        # Outbound SYN passes and marks; the SYN-ACK matches.
        sim = ClosedLoopSimulator(bitmap_filter())
        result = sim.run([spec(Initiator.CLIENT, sport=3000 + i) for i in range(5)])
        assert result.connections_admitted == 5

    def test_remote_initiated_refused_under_p1(self):
        sim = ClosedLoopSimulator(bitmap_filter())
        result = sim.run([spec(Initiator.REMOTE, sport=3000 + i) for i in range(5)])
        assert result.connections_refused == 5
        assert result.refused_by_initiator == {"remote": 5}

    def test_refused_connection_sends_no_upload(self):
        sim = ClosedLoopSimulator(bitmap_filter())
        result = sim.run([spec(Initiator.REMOTE, upload=500_000)])
        # Only the refused SYN was offered to the link — the triggered
        # upload never happened.  This is the feedback replay cannot model.
        assert result.passed.total_bytes(Direction.OUTBOUND) == 0
        assert result.offered.total_bytes(Direction.INBOUND) < 200

    def test_admitted_connection_sends_upload(self):
        sim = ClosedLoopSimulator(bitmap_filter(DropController.never_drop()))
        result = sim.run([spec(Initiator.REMOTE, upload=100_000)])
        assert result.connections_admitted == 1
        assert result.passed.total_bytes(Direction.OUTBOUND) >= 100_000


class RecordingFilter(AcceptAllFilter):
    """Pass everything and keep what was presented, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.seen = []

    def decide(self, packet):
        self.seen.append(packet)
        return Verdict.PASS


class ScriptedPipeline:
    """Stands in for ``ReplayPipeline``: the verdict of the packet at
    schedule position ``i`` (its timestamp) is ``script[i]``."""

    def __init__(self, script) -> None:
        self.script = script
        self.delivered = []

    def process(self, packet):
        self.delivered.append(packet.timestamp)
        return Verdict.PASS if self.script[int(packet.timestamp)] else Verdict.DROP


class TestAdmissionRule:
    """The one rule of :class:`AdmissionLoop`, which both closed loops run."""

    @settings(max_examples=300, deadline=None)
    @given(
        window=st.integers(0, 4),
        script=st.lists(st.tuples(st.booleans(), st.booleans()),
                        min_size=1, max_size=8),
    )
    def test_rule_matches_model(self, window, script):
        passes = [passed for passed, _ in script]
        schedule = [
            Packet(float(position), tcp_pair(), 40,
                   direction=Direction.OUTBOUND if out else Direction.INBOUND)
            for position, (_, out) in enumerate(script)
        ]
        pipeline = ScriptedPipeline(passes)
        admitted, refused, outbound = [], [], []
        loop = AdmissionLoop(
            pipeline,
            lambda connection, now: admitted.append(now),
            lambda connection, now: refused.append(now),
            lambda connection, packet: outbound.append(packet.timestamp),
        )
        loop.connect(schedule, window=window)
        loop.run()

        drop = next((i for i, passed in enumerate(passes) if not passed), None)
        if drop is not None and drop < window:
            assert refused == [float(drop)]
            assert admitted == []
            expected = [float(i) for i in range(drop + 1)]
        else:
            assert refused == []
            at = next((i for i in range(window, len(passes)) if passes[i]),
                      len(passes) - 1)
            assert admitted == [float(at)]
            expected = [float(i) for i in range(len(passes))]
        assert pipeline.delivered == expected
        assert outbound == [
            t for t in expected if passes[int(t)] and script[int(t)][1]
        ]

    def test_connection_losing_its_tail_is_admitted(self):
        # 13 packets; the first 3 pass, the rest are lost.  Losses past
        # the window are recoverable, so the connection established.
        s = spec(Initiator.REMOTE, upload=5_000)
        result = ClosedLoopSimulator(PassFirstPackets(3)).run([s])
        assert result.packets_sent == 13
        assert result.connections_admitted == 1
        assert result.connections_refused == 0


class TestPacketOrder:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_generator_merge(self, seed):
        """Admission in start order, ties by (timestamp, admission
        counter): the generator's reference merge, packet for packet."""
        generator = TraceGenerator(
            TraceConfig(duration=30.0, connection_rate=15.0, seed=seed)
        )
        recorder = RecordingFilter()
        ClosedLoopSimulator(recorder).run(generator.specs(), seed=seed)

        def rows(packets):
            return [(p.timestamp, p.pair, p.size, p.flags, p.direction)
                    for p in packets]

        expected = rows(generator.packets())
        assert len(expected) > 20_000
        assert rows(recorder.seen) == expected


class TestFeedbackBeatsReplay:
    def test_closed_loop_blocks_more_upload_than_replay(self):
        """The paper's 'can perform better in a real network' claim."""
        from repro.sim.replay import replay
        from repro.workload.apps import connection_packets
        import random

        specs = [spec(Initiator.REMOTE, start=float(i), sport=3000 + i, upload=200_000)
                 for i in range(10)]

        packets = sorted(
            (p for i, s in enumerate(specs) for p in connection_packets(s, random.Random(i))),
            key=lambda p: p.timestamp,
        )

        def uploaded(result):
            return result.passed.total_bytes(Direction.OUTBOUND)

        # Without the blocklist (the closed loop's default) open replay
        # passes every upload packet in the trace: outbound always passes
        # the filter.  The closed loop refuses each connection at its
        # SYN, so the upload it would have triggered is never sent.
        open_loop = replay(packets, bitmap_filter(), use_blocklist=False)
        closed = ClosedLoopSimulator(bitmap_filter()).run(specs)
        assert uploaded(closed) == 0
        assert uploaded(closed) < uploaded(open_loop)

        # The σ blocklist also suppresses a refused connection's later
        # outbound packets, so here open replay stops the upload too and
        # the scenario cannot show a gap; feedback still never passes more.
        open_loop = replay(packets, bitmap_filter(), use_blocklist=True)
        closed = ClosedLoopSimulator(bitmap_filter(), use_blocklist=True).run(specs)
        assert uploaded(closed) <= uploaded(open_loop)


def assert_ledger_adds_up(result):
    """Every attempt, first or retry, ends admitted or refused."""
    assert (result.connections_admitted + result.connections_refused
            == result.connections_total + result.connections_retried)
    assert len(result.refusal_times) == result.connections_refused


def retry_run(seed=0):
    """A 60 s trace (15 conn/s) under a 2^16-bit bitmap with RED at
    0.5-1.5 Mbps, where refused connections retry."""
    specs = TraceGenerator(
        TraceConfig(duration=60.0, connection_rate=15.0, seed=2)
    ).specs()
    sim = ClosedLoopSimulator(
        bitmap_filter(DropController.red_mbps(0.5, 1.5)),
        retry_probability=0.7, retry_after=3.0, max_retries=2, seed=seed,
    )
    return sim.run(specs, seed=seed)


class TestRetries:
    def test_retry_reattempts_connection(self):
        sim = ClosedLoopSimulator(
            bitmap_filter(DropController.never_drop()),
            retry_probability=1.0,
            retry_after=5.0,
        )
        # First filter refuses nothing (P_d=0) so retries never trigger.
        result = sim.run([spec(Initiator.REMOTE)])
        assert result.connections_refused == 0

    def test_retry_counted_as_new_attempt(self):
        sim = ClosedLoopSimulator(
            bitmap_filter(), retry_probability=1.0, retry_after=5.0, seed=1
        )
        result = sim.run([spec(Initiator.REMOTE)])
        # Original + its retries all refused (P_d = 1 throughout).
        assert result.connections_refused >= 2
        assert result.connections_retried == result.connections_refused - 1
        assert_ledger_adds_up(result)

    def test_ledger_counts_every_retry(self):
        result = retry_run()
        assert result.connections_total == 922
        assert result.connections_retried > 0
        assert_ledger_adds_up(result)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClosedLoopSimulator(AcceptAllFilter(), retry_probability=1.5)
        with pytest.raises(ValueError):
            ClosedLoopSimulator(AcceptAllFilter(), retry_after=0.0)


class TestDeterminism:
    def test_same_seed_same_ledger(self):
        first, second = retry_run(seed=4), retry_run(seed=4)
        for result in (first, second):
            assert_ledger_adds_up(result)
        ledger = ("connections_total", "connections_admitted",
                  "connections_refused", "connections_retried",
                  "refused_by_initiator", "refusal_times", "packets_sent")
        assert ([getattr(first, name) for name in ledger]
                == [getattr(second, name) for name in ledger])

    def test_retry_free_ledger_has_no_retries(self, small_trace_specs):
        result = ClosedLoopSimulator(bitmap_filter()).run(small_trace_specs)
        assert result.connections_retried == 0
        assert_ledger_adds_up(result)


class TestThresholdMonotonicity:
    def test_tighter_thresholds_admit_less_upload(self, small_trace_specs):
        """The clean monotone sweep that open-loop replay obscures."""
        results = {}
        for scale in (0.2, 1.0, 5.0):
            filt = bitmap_filter(
                DropController.red_mbps(low_mbps=0.05 * scale, high_mbps=0.1 * scale)
            )
            sim = ClosedLoopSimulator(filt)
            results[scale] = sim.run(small_trace_specs).passed.total_bytes(
                Direction.OUTBOUND
            )
        assert results[0.2] <= results[1.0] <= results[5.0]
        assert results[0.2] < results[5.0]


class TestPipelineIntegration:
    """The closed loop now drives the same engine as open-loop replay."""

    def test_result_carries_replay_view(self):
        sim = ClosedLoopSimulator(bitmap_filter())
        specs = [spec(Initiator.CLIENT), spec(Initiator.REMOTE, sport=3001)]
        result = sim.run(specs)
        replay = result.replay
        assert replay is not None
        assert replay.packets == result.packets_sent > 0
        # The result's series ARE the router's series — one accounting.
        assert replay.router.passed is result.passed
        assert replay.router.offered is result.offered
        assert replay.inbound_dropped >= result.connections_refused

    def test_blocklist_off_by_default(self):
        sim = ClosedLoopSimulator(bitmap_filter())
        result = sim.run([spec(Initiator.REMOTE)])
        assert result.replay.router.blocklist is None

    def test_blocklist_opt_in(self):
        sim = ClosedLoopSimulator(bitmap_filter(), use_blocklist=True)
        result = sim.run([spec(Initiator.REMOTE)])
        blocklist = result.replay.router.blocklist
        assert blocklist is not None
        assert len(blocklist) >= 1  # the refused σ is persisted


class TestRefusalTimes:
    def test_refusal_timestamps_surface(self):
        sim = ClosedLoopSimulator(bitmap_filter())
        specs = [spec(Initiator.REMOTE, start=float(i), sport=3000 + i)
                 for i in range(4)]
        result = sim.run(specs)
        assert len(result.refusal_times) == result.connections_refused == 4
        # One refusal per spec, at (or after) each spec's start, in order.
        assert result.refusal_times == sorted(result.refusal_times)
        for when, s in zip(result.refusal_times, specs):
            assert when >= s.start

    def test_no_refusals_no_times(self):
        sim = ClosedLoopSimulator(AcceptAllFilter())
        result = sim.run([spec(Initiator.REMOTE)])
        assert result.refusal_times == []


class TestRetryStreamSeeds:
    """Regression for the additive retry-seed domain (seed + 1_000_000)."""

    def test_retry_stream_is_nested_derive_seed(self):
        from repro.core.hashing import derive_seed
        from repro.sim.closedloop import retry_stream_seed

        assert retry_stream_seed(7, 42, 1) == derive_seed(derive_seed(7, 42), 1)

    def test_retry_stream_never_collides_with_primary_streams(self):
        # The old scheme mapped retry ident i to primary stream i + 1e6 —
        # a guaranteed collision once a workload held a million specs.
        from repro.core.hashing import derive_seed
        from repro.sim.closedloop import retry_stream_seed

        seed = 7
        primary = {derive_seed(seed, index) for index in range(1_000_000,
                                                              1_000_100)}
        retries = {retry_stream_seed(seed, ident, attempt)
                   for ident in range(100) for attempt in (1, 2)}
        assert not primary & retries

    def test_zero_attempt_path_unchanged(self):
        # attempts == 0 must keep the original derive_seed(seed, index)
        # stream so non-retry runs are byte-identical to the seed replays.
        import random as _random

        from repro.core.hashing import derive_seed
        from repro.workload.apps import connection_packets

        s = spec(Initiator.CLIENT)
        sim = ClosedLoopSimulator(AcceptAllFilter())
        result = sim.run([s], seed=9)
        expected = connection_packets(s, _random.Random(derive_seed(9, 0)))
        assert result.packets_sent == len(expected)

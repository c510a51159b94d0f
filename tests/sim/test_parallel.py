"""Tests for the multiprocess sharded replay engine.

The contract under test: ``replay(workers=N)`` / ``parallel_replay``
produce *identical* merged pass/drop counts, throughput-series bins,
drop-rate windows and per-shard statistics to a single-process replay of
the same sharded filter over the same trace, for every worker count.
"""

import random

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.naive import NaiveTimerFilter
from repro.filters.sharded import ShardedFilter
from repro.net.inet import IPPROTO_TCP, parse_ipv4
from repro.net.packet import Direction, Packet, SocketPair
from repro.sim.parallel import DefaultLaneFilter, parallel_replay
from repro.sim.pipeline import ReplayResult
from repro.sim.replay import replay
from repro.workload import TraceConfig, TraceGenerator

BASE = parse_ipv4("10.1.0.0")


def make_sharded(shard_count=4, size=2 ** 14):
    """Shard the generator's 10.1.0.0/24 host range into equal subnets."""
    prefix = 24 + shard_count.bit_length() - 1
    step = 1 << (32 - prefix)
    return ShardedFilter([
        (BASE + i * step, prefix,
         BitmapPacketFilter(BitmapFilterConfig(size=size, vectors=4, hashes=3,
                                               rotate_interval=5.0)))
        for i in range(shard_count)
    ])


def trace(seed, duration=25.0, rate=6.0):
    config = TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    return TraceGenerator(config).packet_list()


def fingerprint(result):
    """Everything single-process and parallel runs must agree on."""
    router = result.router
    sharded = router.filter
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "duration": result.duration,
        "filter_stats": sharded.stats.as_dict(),
        "shard_stats": sharded.shard_stats(),
        "unrouted": sharded.unrouted_packets,
        "offered_bins": router.offered._bins,
        "passed_bins": router.passed._bins,
        "drop_packets": router.inbound_drops._packets,
        "drop_dropped": router.inbound_drops._dropped,
        "blocked": (None if router.blocklist is None
                    else dict(router.blocklist._blocked)),
        "suppressed": (0 if router.blocklist is None
                       else router.blocklist.suppressed_packets),
    }


class TestEquivalence:
    """The property the whole engine exists to uphold."""

    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_single_process(self, seed, workers):
        packets = trace(seed)
        single = replay(packets, make_sharded(), use_blocklist=True)
        parallel = parallel_replay(packets, make_sharded(), workers=workers)
        assert fingerprint(parallel) == fingerprint(single)

    def test_replay_workers_entry_point(self):
        packets = trace(3)
        single = replay(packets, make_sharded(), use_blocklist=True)
        parallel = replay(packets, make_sharded(), use_blocklist=True, workers=2)
        assert isinstance(parallel, ReplayResult)
        assert parallel.workers == 2
        assert parallel.lanes  # per-lane records ride along on the result
        assert fingerprint(parallel) == fingerprint(single)

    def test_core_stats_flushed_per_shard(self):
        packets = trace(5)
        single = replay(packets, make_sharded(), use_blocklist=True)
        parallel = parallel_replay(packets, make_sharded(), workers=2)
        for position in range(4):
            expected = single.router.filter.shards[position][2].core.stats
            merged = parallel.router.filter.shards[position][2].core.stats
            assert merged.as_dict() == expected.as_dict()

    def test_no_blocklist(self):
        packets = trace(9)
        single = replay(packets, make_sharded(), use_blocklist=False)
        parallel = parallel_replay(packets, make_sharded(), workers=2,
                                   use_blocklist=False)
        assert fingerprint(parallel) == fingerprint(single)
        assert parallel.router.blocklist is None

    def test_transit_default_lane(self):
        """Packets matching no shard follow default_verdict in both engines."""
        def narrow():
            # Only 10.1.0.0/30 is sharded; most hosts become transit.
            return ShardedFilter(
                [(BASE, 30, BitmapPacketFilter(BitmapFilterConfig(size=2 ** 14)))],
                default_verdict=Verdict.PASS,
            )

        packets = trace(11)
        single = replay(packets, narrow(), use_blocklist=True)
        parallel = parallel_replay(packets, narrow(), workers=2)
        assert fingerprint(parallel) == fingerprint(single)
        assert parallel.router.filter.unrouted_packets > 0

    def test_dropping_default_lane_feeds_blocklist(self):
        def dropping():
            return ShardedFilter(
                [(BASE, 30, BitmapPacketFilter(BitmapFilterConfig(size=2 ** 14)))],
                default_verdict=Verdict.DROP,
            )

        packets = trace(13)
        single = replay(packets, dropping(), use_blocklist=True)
        parallel = parallel_replay(packets, dropping(), workers=2)
        assert fingerprint(parallel) == fingerprint(single)
        assert len(parallel.router.blocklist) > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_long_span_blocklist_expiry(self, workers):
        """A trace outliving blocklist retention must still merge exactly.

        Expiry is per-connection, but the store's interior GC runs on the
        clock of whatever packets *that store* sees — per-lane stores GC
        at different times than one global store.  End-of-replay
        compaction makes the final table identical: a blocked pair in an
        otherwise-idle lane (stamped t=1, never GC'd by its lane) must
        not survive the merge when a single-process store would have
        collected it.
        """
        remote = parse_ipv4("203.0.113.9")
        host_a = BASE + 2        # shard 0
        host_b = BASE + 2 + 64   # shard 1 of a 4-way /26 split

        def unsolicited(dst, t, dport):
            pair = SocketPair(IPPROTO_TCP, remote, 80, dst, dport)
            return Packet(t, pair, size=100, direction=Direction.INBOUND)

        def outbound(src, t, sport):
            pair = SocketPair(IPPROTO_TCP, src, sport, remote, 80)
            return Packet(t, pair, size=100, direction=Direction.OUTBOUND)

        # Default retention is 3600s: the t=1 block is expired by t=5000,
        # while shard 0's lane sees nothing after t=1 and so never GCs it.
        packets = [
            unsolicited(host_a, 1.0, 4000),    # blocked in shard 0's lane
            outbound(host_b, 4800.0, 5000),    # advances only lane 1's clock
            unsolicited(host_b, 5000.0, 4001), # blocked in shard 1's lane
        ]
        single = replay(packets, make_sharded(), use_blocklist=True)
        parallel = parallel_replay(packets, make_sharded(), workers=workers)
        assert fingerprint(parallel) == fingerprint(single)
        assert len(parallel.router.blocklist) == 1  # only the live entry

    def test_non_bitmap_shards(self):
        """Lanes fall back to the per-packet loop for non-bitmap members."""
        def naive_sharded():
            return ShardedFilter([
                (BASE, 25, NaiveTimerFilter()),
                (BASE + 128, 25, NaiveTimerFilter()),
            ])

        packets = trace(17)
        single = replay(packets, naive_sharded(), use_blocklist=True)
        parallel = parallel_replay(packets, naive_sharded(), workers=2)
        assert fingerprint(parallel) == fingerprint(single)


class TestResultShape:
    def test_lane_packet_counts(self):
        packets = trace(1)
        parallel = parallel_replay(packets, make_sharded(), workers=2)
        counts = parallel.lane_packet_counts()
        assert sum(counts.values()) == len(packets)
        assert all(label.startswith("10.1.0.") for label in counts)

    def test_parent_filter_is_accumulator_only(self):
        """The caller's filter gains statistics, never bitmap state."""
        sharded = make_sharded()
        parallel_replay(trace(1), sharded, workers=2)
        assert sharded.stats.total > 0
        for _, _, shard in sharded.shards:
            # No lane ever marked the parent's vectors.
            assert all(vector.popcount() == 0 for vector in shard.core.vectors)

    def test_inbound_drop_rate_property(self):
        parallel = parallel_replay(trace(1), make_sharded(), workers=2)
        assert 0.0 <= parallel.inbound_drop_rate <= 1.0


class TestGuards:
    def test_requires_sharded_filter(self):
        with pytest.raises(ValueError, match="ShardedFilter"):
            parallel_replay(trace(1), BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 14)), workers=2)

    def test_rejects_shared_rng(self):
        shared = random.Random(0)
        sharded = ShardedFilter([
            (BASE, 25, BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 14), rng=shared)),
            (BASE + 128, 25, BitmapPacketFilter(
                BitmapFilterConfig(size=2 ** 14), rng=shared)),
        ])
        with pytest.raises(ValueError, match="share one RNG"):
            parallel_replay(trace(1), sharded, workers=2)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            parallel_replay(trace(1), make_sharded(), workers=0)
        with pytest.raises(ValueError):
            replay(trace(1), make_sharded(), workers=0)


class TestDefaultLaneFilter:
    def test_applies_verdict(self):
        pair = SocketPair(IPPROTO_TCP, parse_ipv4("8.8.8.8"), 1,
                          parse_ipv4("9.9.9.9"), 2)
        packet = Packet(0.0, pair, size=60, direction=Direction.INBOUND)
        assert DefaultLaneFilter(Verdict.PASS).process(packet) is Verdict.PASS
        assert DefaultLaneFilter(Verdict.DROP).process(packet) is Verdict.DROP


#: Standalone driver for the interrupt test: a deliberately slow sharded
#: replay interrupted mid-run.  On KeyboardInterrupt the run must already
#: have reaped every pool worker — ``active_children()`` is the witness.
INTERRUPT_SCRIPT = '''\
import multiprocessing
import sys
import time

from repro.filters.base import PacketFilter, Verdict
from repro.filters.sharded import ShardedFilter
from repro.net.inet import parse_ipv4
from repro.sim.parallel import parallel_replay
from repro.workload import TraceConfig, TraceGenerator


class SlowFilter(PacketFilter):
    name = "slow"

    def decide(self, packet):
        time.sleep(0.005)
        return Verdict.PASS


BASE = parse_ipv4("10.1.0.0")
sharded = ShardedFilter([
    (BASE + i * 64, 26, SlowFilter()) for i in range(4)
])
packets = TraceGenerator(
    TraceConfig(duration=40.0, connection_rate=10.0, seed=3)
).packet_list()
print("READY", flush=True)
try:
    parallel_replay(packets, sharded, workers=4)
    print("FINISHED", flush=True)
except KeyboardInterrupt:
    leftover = multiprocessing.active_children()
    print(f"INTERRUPTED children={len(leftover)}", flush=True)
    sys.exit(0)
'''


class TestInterrupt:
    def test_sigint_reaps_workers(self, tmp_path):
        """SIGINT mid-replay: clean KeyboardInterrupt, zero orphans."""
        import os
        import signal as signal_module
        import subprocess
        import sys
        import time
        from pathlib import Path

        script = tmp_path / "interrupt_run.py"
        script.write_text(INTERRUPT_SCRIPT)
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        proc = subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = proc.stdout.readline()
            assert ready.strip() == "READY"
            # Let the pool come up and the lanes get into their replay
            # loops before interrupting.
            time.sleep(1.0)
            proc.send_signal(signal_module.SIGINT)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"stdout={out!r} stderr={err!r}"
        assert "INTERRUPTED children=0" in out, f"stdout={out!r} stderr={err!r}"
        assert "FINISHED" not in out


class TestTransports:
    """Multiprocess lanes read their input from one shared-memory segment."""

    def table_trace(self, seed=7):
        from repro.net.table import as_table
        config = TraceConfig(duration=20.0, connection_rate=6.0, seed=seed)
        return as_table(TraceGenerator(config).iter_tables(512))

    def check_parent_filter_state_untouched(self, workers):
        table = self.table_trace()
        sharded = make_sharded()
        parallel_replay(table, sharded, workers=workers)
        # Statistics merge back into the parent's filter; bitmap *state*
        # stays with the lanes — the parent's vectors were never touched.
        for _, _, shard in sharded.shards:
            assert all(
                vector.utilization == 0.0 for vector in shard.core.vectors
            )
        assert sharded.stats.total > 0  # merged lane statistics

    def test_shm_leaves_parent_filter_state_untouched(self):
        """Worker lanes replay the filter copy pickled into each task."""
        self.check_parent_filter_state_untouched(workers=2)

    def test_in_process_lanes_leave_parent_filter_state_untouched(self):
        """The serial path replays a deep copy of each lane filter."""
        self.check_parent_filter_state_untouched(workers=1)

    def test_shm_coerces_packet_list_input(self):
        packets = trace(3, duration=10.0)
        single = replay(packets, make_sharded(), use_blocklist=True)
        via_shm = parallel_replay(packets, make_sharded(), workers=2)
        assert fingerprint(via_shm) == fingerprint(single)

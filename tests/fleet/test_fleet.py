"""Tests for the fleet plane (repro.fleet): supervised daemons and the
fleet-vs-offline exactness invariant under disruption.  The daemons and
the offline reference build their filters from one
:class:`~repro.filters.spec.FilterSpec` (its own tests are in
``tests/filters/test_spec.py``).

The integration tests spawn real ``repro serve`` subprocesses, so they
use a small trace and few shards; the invariant they hold is the PR's
acceptance bar — a fleet's merged fingerprint and blocklist are
bit-identical to the offline partitioned replay, including across a
mid-trace crash-kill and a rolling restart.
"""

import json
import os

import pytest

from repro.filters.base import Verdict
from repro.filters.spec import FilterSpec
from repro.fleet import FleetSupervisor, offline_reference
from repro.fleet.supervisor import MANIFEST_NAME
from repro.shard.plan import HashShardPlan, SubnetShardPlan, plan_from_spec
from repro.workload import TraceConfig, TraceGenerator


def trace_table(duration=10.0, rate=6.0, seed=5):
    return TraceGenerator(
        TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    ).table()


def chunks_of(table, size=512):
    return [table.slice(start, min(start + size, len(table)))
            for start in range(0, len(table), size)]


def red_spec():
    return FilterSpec(size_bits=12, vectors=3, hashes=2,
                      low_mbps=0.1, high_mbps=1.0)


class TestFleetIntegration:
    def test_clean_fleet_matches_offline(self, tmp_path):
        plan = HashShardPlan(2, seed=3)
        spec = red_spec()
        table = trace_table(duration=8.0)
        supervisor = FleetSupervisor(plan, str(tmp_path), spec=spec,
                                     snapshot_every=0)
        try:
            supervisor.launch()

            manifest = json.loads(
                (tmp_path / MANIFEST_NAME).read_text()
            )
            assert len(manifest["shards"]) == 2
            assert FilterSpec(**manifest["filter"]) == spec
            rebuilt = plan_from_spec(manifest["plan"])
            assert isinstance(rebuilt, HashShardPlan)
            assert all(s["status"] in ("running", "draining")
                       for s in supervisor.ping()["shards"])

            supervisor.feed(chunks_of(table))
            result = supervisor.drain()
        finally:
            supervisor.stop()

        reference = offline_reference(table, plan, spec)
        assert result.packets == len(table) == reference.packets
        assert result.inbound_dropped == reference.inbound_dropped
        assert result.restarts == 0
        assert result.fingerprint == reference.fingerprint
        assert result.blocked == dict(reference.router.blocklist._blocked)

    def test_disrupted_fleet_stays_exact(self, tmp_path):
        """Crash-kill one shard and roll-restart the fleet mid-trace;
        the merged verdict must not move a bit."""
        from repro.net.inet import parse_ipv4

        plan = SubnetShardPlan.from_cidr(parse_ipv4("10.1.0.0"), 16,
                                         shard_bits=1)
        spec = red_spec()
        table = trace_table(duration=10.0, seed=9)
        chunks = chunks_of(table)
        assert len(chunks) >= 4
        supervisor = FleetSupervisor(plan, str(tmp_path), spec=spec,
                                     snapshot_every=2)
        try:
            supervisor.launch()
            supervisor.feed(chunks[:len(chunks) // 2])
            supervisor.daemons[1].kill()  # crash, recovered on next send
            supervisor.rolling_restart()
            supervisor.feed(chunks[len(chunks) // 2:])
            result = supervisor.drain()
        finally:
            supervisor.stop()

        # The killed shard recovered once and every lane rolled once.
        assert result.restarts >= plan.lanes
        reference = offline_reference(table, plan, spec)
        assert result.packets == reference.packets
        assert result.fingerprint == reference.fingerprint
        assert result.blocked == dict(reference.router.blocklist._blocked)

    def test_boot_failure_reports_log_tail(self, tmp_path):
        # An argv the child's parser rejects: the daemon dies on boot
        # and the supervisor surfaces its stderr instead of hanging.
        from repro.fleet.daemon import FleetError, ShardDaemon

        daemon = ShardDaemon(0, "bad", str(tmp_path),
                             ["--size-bits", "not-a-number"],
                             boot_timeout=10.0)
        with pytest.raises(FleetError, match="exited during boot"):
            daemon.launch()
        assert daemon.process.poll() is not None

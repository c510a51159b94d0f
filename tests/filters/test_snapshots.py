"""Warm-restart snapshot hooks for the non-bitmap filters.

The contract mirrors the bitmap filter's: a filter snapshotted mid-trace
and restored must continue verdict-for-verdict and counter-for-counter
as if never interrupted.  Filters without hooks must refuse loudly
(:class:`SnapshotUnsupported`) instead of producing a lossy snapshot.
"""

import json
import random

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.filters import SnapshotUnsupported, restore_filter
from repro.filters.base import AcceptAllFilter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter
from repro.workload import TraceConfig, TraceGenerator

SMALL_CONFIG = BitmapFilterConfig(
    size=2 ** 12, vectors=4, hashes=3, rotate_interval=5.0
)


def trace(seed=4, duration=30.0, rate=6.0):
    config = TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    return TraceGenerator(config).packet_list()


def red():
    return DropController.red_mbps(0.2, 0.8)


FACTORIES = {
    "spi": lambda: SPIFilter(drop_controller=red(), rng=random.Random(7)),
    "counting-bitmap": lambda: CountingBitmapFilter(
        SMALL_CONFIG, drop_controller=red(), rng=random.Random(7)
    ),
    "token-bucket": lambda: TokenBucketFilter(rate_mbps=0.5),
    "red-policer": lambda: RedPolicerFilter.mbps(0.2, 0.8, rng=random.Random(7)),
    "chain": lambda: FilterChain([
        SPIFilter(drop_controller=red(), rng=random.Random(3)),
        TokenBucketFilter(rate_mbps=0.5),
        RedPolicerFilter.mbps(0.2, 0.8, rng=random.Random(5)),
    ]),
}


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_snapshot_resume_is_bit_identical(self, name):
        packets = trace()
        half = len(packets) // 2
        make = FACTORIES[name]

        uninterrupted = make()
        full_verdicts = [uninterrupted.process(p) for p in packets]

        interrupted = make()
        for packet in packets[:half]:
            interrupted.process(packet)
        # Force the snapshot through JSON: the service plane persists it.
        document = json.loads(json.dumps(interrupted.snapshot()))
        resumed = restore_filter(document)
        resumed_verdicts = [resumed.process(p) for p in packets[half:]]

        assert resumed_verdicts == full_verdicts[half:]
        assert resumed.stats.snapshot() == uninterrupted.stats.snapshot()

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_snapshot_does_not_disturb_the_running_filter(self, name):
        packets = trace(seed=6, duration=15.0)
        half = len(packets) // 2
        make = FACTORIES[name]
        observed, control = make(), make()
        for packet in packets[:half]:
            observed.process(packet)
            control.process(packet)
        observed.snapshot()
        tail_observed = [observed.process(p) for p in packets[half:]]
        tail_control = [control.process(p) for p in packets[half:]]
        assert tail_observed == tail_control

    def test_spi_flow_table_survives(self):
        flt = FACTORIES["spi"]()
        for packet in trace(seed=9, duration=10.0):
            flt.process(packet)
        assert flt.tracked_flows > 0
        resumed = restore_filter(flt.snapshot())
        assert resumed.tracked_flows == flt.tracked_flows
        assert resumed._table.keys() == flt._table.keys()

    def test_counting_cells_and_counters_survive(self):
        flt = FACTORIES["counting-bitmap"]()
        for packet in trace(seed=9, duration=12.0):
            flt.process(packet)
        resumed = restore_filter(json.loads(json.dumps(flt.snapshot())))
        assert [bytes(c._cells) for c in resumed.columns] == \
            [bytes(c._cells) for c in flt.columns]
        assert resumed.core.idx == flt.core.idx
        assert resumed.core._next_rotation == flt.core._next_rotation
        assert resumed.deleted_on_close == flt.deleted_on_close
        assert resumed._half_closed == flt._half_closed

    def test_token_bucket_level_survives(self):
        flt = FACTORIES["token-bucket"]()
        for packet in trace(seed=9, duration=10.0):
            flt.process(packet)
        resumed = restore_filter(flt.snapshot())
        assert resumed.bucket._tokens == flt.bucket._tokens
        assert resumed.bucket._last == flt.bucket._last
        assert resumed.bucket.rate == flt.bucket.rate
        assert resumed.bucket.burst == flt.bucket.burst


#: Policy and meter snapshots of kinds that no longer exist.
STEPPED = {"kind": "stepped", "steps": [[0.0, 0.5]]}
EWMA = {"kind": "ewma", "tau": 2.0, "rate_bps": 0.0, "last_time": None}


class TestRefusals:
    def test_filters_without_hooks_refuse(self):
        with pytest.raises(SnapshotUnsupported, match="accept-all"):
            AcceptAllFilter().snapshot()

    def test_chain_with_unsupported_member_refuses(self):
        chain = FilterChain([TokenBucketFilter(rate_mbps=1.0),
                             AcceptAllFilter()])
        with pytest.raises(SnapshotUnsupported):
            chain.snapshot()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown filter snapshot kind"):
            restore_filter({"kind": "mystery"})

    @pytest.mark.parametrize("name, part, retired", [
        ("bitmap", "policy", STEPPED),
        ("bitmap", "meter", EWMA),
        ("red-policer", "policy", STEPPED),
        ("red-policer", "meter", EWMA),
    ])
    def test_retired_policy_and_meter_kinds_rejected(self, name, part, retired):
        """The stepped drop policy and the EWMA meter are gone: a
        snapshot naming either must fail loudly, not restore."""
        if name == "bitmap":
            document = BitmapPacketFilter(
                SMALL_CONFIG, drop_controller=red()).snapshot()
            document["controller"][part] = retired
        else:
            document = FACTORIES[name]().snapshot()
            document[part] = retired
        with pytest.raises(ValueError, match=f"kind: '{retired['kind']}'"):
            restore_filter(document)

    def test_kind_mismatch_rejected(self):
        snapshot = FACTORIES["spi"]().snapshot()
        with pytest.raises(ValueError, match="snapshot is for filter kind"):
            TokenBucketFilter.restore(snapshot)

    @pytest.mark.parametrize("field, mutate", [
        ("columns", lambda doc: doc["columns"].__delitem__(slice(2, None))),
        ("cells", lambda doc: doc["columns"][1]["cells"].pop()),
        ("idx", lambda doc: doc.__setitem__("idx", doc["config"]["vectors"])),
    ], ids=["columns", "cells", "idx"])
    def test_malformed_counting_snapshot_rejected(self, field, mutate):
        flt = FACTORIES["counting-bitmap"]()
        for packet in trace(seed=9, duration=8.0):
            flt.process(packet)
        document = json.loads(json.dumps(flt.snapshot()))
        mutate(document)
        with pytest.raises(ValueError, match=field):
            restore_filter(document)

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_reanchor_clock_rejected(self, name):
        snapshot = FACTORIES[name]().snapshot()
        with pytest.raises(ValueError, match="clock='resume'"):
            restore_filter(snapshot, clock="reanchor")

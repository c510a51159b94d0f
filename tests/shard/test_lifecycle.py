"""Tests for the worker pool and lane merge arm (repro.shard.lifecycle)."""

import pytest

from repro.core.hashing import FNV64_OFFSET
from repro.filters.base import Verdict
from repro.shard.lifecycle import (
    DefaultLaneFilter,
    WorkerPool,
    combine_lane_fingerprints,
)

from tests.conftest import in_packet


def _square(value):
    return value * value


class TestWorkerPool:
    def test_map_and_lifecycle(self):
        pool = WorkerPool(2)
        with pool:
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        with pytest.raises(RuntimeError):
            pool.map(_square, [1])  # stopped on exit

    def test_map_before_launch_raises(self):
        with pytest.raises(RuntimeError):
            WorkerPool(2).map(_square, [1])

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestDefaultLaneFilter:
    def test_returns_configured_verdict(self):
        assert DefaultLaneFilter(Verdict.PASS).decide(in_packet()) is Verdict.PASS
        assert DefaultLaneFilter(Verdict.DROP).decide(in_packet()) is Verdict.DROP


class TestCombineLaneFingerprints:
    def test_order_independent(self):
        fingerprints = {0: 0x1234, 1: 0xABCD, -1: 0x9999}
        shuffled = {-1: 0x9999, 1: 0xABCD, 0: 0x1234}
        assert (combine_lane_fingerprints(fingerprints)
                == combine_lane_fingerprints(shuffled))

    def test_lane_keyed(self):
        # Two lanes with swapped streams must not collide.
        assert (combine_lane_fingerprints({0: 0x1234, 1: 0xABCD})
                != combine_lane_fingerprints({0: 0xABCD, 1: 0x1234}))

    def test_empty_lanes_contribute_nothing(self):
        with_idle = {0: 0x1234, 1: FNV64_OFFSET, 2: FNV64_OFFSET}
        assert (combine_lane_fingerprints(with_idle)
                == combine_lane_fingerprints({0: 0x1234}))
        assert combine_lane_fingerprints({}) == 0

    def test_grouping_invariant(self):
        # Partial combinations sum to the full combination (mod 2^64) —
        # what lets the fleet fold shard and default-lane fingerprints
        # in any aggregation order.
        full = combine_lane_fingerprints({0: 7, 1: 11, 2: 13})
        partial = (combine_lane_fingerprints({0: 7})
                   + combine_lane_fingerprints({1: 11, 2: 13}))
        assert full == partial & ((1 << 64) - 1)

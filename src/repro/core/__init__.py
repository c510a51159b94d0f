"""Core contribution: the {k×N}-bitmap filter and its analytical model.

This package is payload-blind by design — it sees only socket pairs,
directions and byte counts, never packet contents.  That is the point of the
paper: bound P2P upload traffic *without* deep packet inspection.
"""

from repro.core.hashing import HashFamily, make_hash_family
from repro.core.bitvector import BitVector
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig, FieldMode
from repro.core.dropper import DropPolicy, RedDropPolicy, StaticDropPolicy
from repro.core.throughput import SlidingWindowMeter
from repro.core.analysis import (
    capacity_bound,
    expected_utilization,
    optimal_hash_count,
    penetration_probability,
    recommend_parameters,
)

__all__ = [
    "HashFamily",
    "make_hash_family",
    "BitVector",
    "BitmapFilter",
    "BitmapFilterConfig",
    "FieldMode",
    "DropPolicy",
    "RedDropPolicy",
    "StaticDropPolicy",
    "SlidingWindowMeter",
    "capacity_bound",
    "expected_utilization",
    "optimal_hash_count",
    "penetration_probability",
    "recommend_parameters",
]

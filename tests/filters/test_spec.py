"""Tests for :class:`repro.filters.spec.FilterSpec`: what it builds, and
how it crosses the command line.

``build()`` must give the filter each kind's constructors give by hand,
and ``argv()`` must render a spec that ``repro serve`` parses back into
the same spec — a fleet's daemons and its offline reference build from
one value, so they cannot drift apart.
"""

import pytest
from hypothesis import given, strategies as st

from repro.cli import build_parser
from repro.core.bitmap_filter import BitmapFilterConfig, FieldMode
from repro.core.dropper import StaticDropPolicy
from repro.filters import (
    AcceptAllFilter,
    BitmapPacketFilter,
    CountingBitmapFilter,
    FilterChain,
    NaiveTimerFilter,
    SPIFilter,
    SnapshotUnsupported,
)
from repro.filters.policy import DropController
from repro.filters.spec import KINDS, FilterSpec, auto_red_thresholds

VARIANTS = {
    "defaults": {},
    "red": {"low_mbps": 0.5, "high_mbps": 2.0},
    "hole-punching": {"size_bits": 8, "vectors": 3, "hashes": 2,
                      "rotate_interval": 4.0, "hole_punching": True},
    "static": {"size_bits": 12, "pd": 0.25},
}


def direct(kind, size_bits=20, vectors=4, hashes=3, rotate_interval=5.0,
           hole_punching=False, pd=1.0, low_mbps=None, high_mbps=None):
    """Each kind built straight from its constructors."""
    if kind == "none":
        return AcceptAllFilter()
    if low_mbps is not None:
        controller = DropController.red_mbps(low_mbps=low_mbps, high_mbps=high_mbps)
    else:
        controller = DropController(StaticDropPolicy(pd))
    mode = FieldMode.HOLE_PUNCHING if hole_punching else FieldMode.STRICT
    config = BitmapFilterConfig(size=2 ** size_bits, vectors=vectors, hashes=hashes,
                                rotate_interval=rotate_interval, field_mode=mode)
    if kind == "bitmap":
        return BitmapPacketFilter(config, drop_controller=controller)
    if kind == "counting":
        return CountingBitmapFilter(config, drop_controller=controller)
    if kind == "spi":
        return SPIFilter(idle_timeout=240.0, drop_controller=controller)
    if kind == "naive":
        return NaiveTimerFilter(expiry=vectors * rotate_interval, field_mode=mode,
                                drop_controller=controller)
    return FilterChain([
        SPIFilter(idle_timeout=240.0, drop_controller=DropController.never_drop()),
        BitmapPacketFilter(config, drop_controller=controller),
    ])


def state(packet_filter):
    """The filter's snapshot; the naive and accept-all filters have
    none, so their type and constructor parameters stand in."""
    try:
        return packet_filter.snapshot()
    except SnapshotUnsupported:
        controller = getattr(packet_filter, "drop_controller", None)
        return (type(packet_filter).__name__,
                getattr(packet_filter, "expiry", None),
                getattr(packet_filter, "field_mode", None),
                controller.snapshot() if controller is not None else None)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("kind", KINDS)
def test_build_matches_direct_construction(kind, variant):
    params = VARIANTS[variant]
    built, controller = FilterSpec(kind=kind, **params).build()
    expected = direct(kind, **params)
    assert type(built) is type(expected)
    assert state(built) == state(expected)
    if kind == "none":
        assert controller is None
    else:
        # The controller returned is the one the filter consults (the
        # bitmap member's, in a chain).
        member = built.filters[-1] if kind == "chain" else built
        assert controller is member.drop_controller


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown filter kind"):
        FilterSpec(kind="bloom")


geometries = st.fixed_dictionaries({
    "size_bits": st.integers(min_value=2, max_value=24),
    "vectors": st.integers(min_value=2, max_value=8),
    "hashes": st.integers(min_value=1, max_value=4),
    "rotate_interval": st.floats(min_value=0.01, max_value=600.0,
                                 allow_nan=False, allow_infinity=False),
})
thresholds = st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
                       allow_infinity=False)


@given(geometry=geometries, hole_punching=st.booleans(),
       red=st.one_of(st.none(), st.tuples(thresholds, thresholds)),
       use_blocklist=st.booleans())
def test_serve_argv_round_trips(geometry, hole_punching, red, use_blocklist):
    low, high = red if red is not None else (None, None)
    spec = FilterSpec(hole_punching=hole_punching, low_mbps=low, high_mbps=high,
                      use_blocklist=use_blocklist, **geometry)
    args = build_parser().parse_args(["serve"] + spec.argv())
    assert FilterSpec.from_args(args) == spec


@pytest.mark.parametrize("spec", [
    FilterSpec(kind="counting"),
    FilterSpec(kind="chain"),
    FilterSpec(kind="none"),
    FilterSpec(pd=0.9),
], ids=["counting", "chain", "none", "static-pd"])
def test_argv_refuses_what_serve_cannot_build(spec):
    with pytest.raises(ValueError, match="repro serve builds only"):
        spec.argv()


@pytest.mark.parametrize("argv, expected", [
    (["filter"], FilterSpec()),
    (["serve"], FilterSpec()),
    (["fleet", "serve"], FilterSpec(size_bits=16)),
    (["swarm"], FilterSpec(size_bits=14)),
    (["filter", "--filter", "naive", "--hole-punching", "--no-blocklist"],
     FilterSpec(kind="naive", hole_punching=True, use_blocklist=False)),
    (["swarm", "--filter", "chain", "--pd", "0.9", "--size-bits", "12"],
     FilterSpec(kind="chain", pd=0.9, size_bits=12)),
], ids=["filter", "serve", "fleet-serve", "swarm", "filter-flags", "swarm-flags"])
def test_from_args_reads_each_commands_flags(argv, expected):
    assert FilterSpec.from_args(build_parser().parse_args(argv)) == expected


def test_auto_red_sets_thresholds_from_the_uplink():
    args = build_parser().parse_args(["filter", "--auto-red", "--low-mbps", "9"])
    spec = FilterSpec.from_args(args, uplink_mbps=2.0)
    assert (spec.low_mbps, spec.high_mbps) == auto_red_thresholds(2.0)
    assert spec.describe() == "RED L=0.70 H=1.40 Mbps"


@pytest.mark.parametrize("spec, note", [
    (FilterSpec(), "P_d = 1 (drop all stateless inbound)"),
    (FilterSpec(kind="spi", low_mbps=0.05, high_mbps=0.2), "RED L=0.05 H=0.20 Mbps"),
    (FilterSpec(kind="none"), "no filtering"),
    (FilterSpec(pd=0.9), "P_d = 0.9"),
], ids=["static", "red", "none", "static-pd"])
def test_describe(spec, note):
    assert spec.describe() == note


@pytest.mark.parametrize("low, high", [(0.5, None), (None, 2.0)],
                         ids=["low-only", "high-only"])
def test_half_red_band_is_rejected(low, high):
    # One threshold alone used to replay at the static P_d without a word.
    with pytest.raises(ValueError, match="needs both low_mbps and high_mbps"):
        FilterSpec(low_mbps=low, high_mbps=high)

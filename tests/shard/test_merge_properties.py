"""Property tests for the shard merge arm: statistics folding must be
associative and commutative.

Every shard mechanism — the parallel workers, the sharded-filter lanes,
the fleet daemons — folds per-lane statistics with ``merge``, and the
exactness story depends on the fold being independent of lane order and
aggregation grouping: merging three shards as ``(a+b)+c``, ``a+(b+c)``
or ``c+(a+b)`` must produce identical state.  Hypothesis drives
randomized per-shard observation streams (at least three shards) through
:class:`~repro.filters.base.FilterStats`,
:class:`~repro.core.bitmap_filter.BitmapFilterStats`,
:class:`~repro.sim.metrics.ThroughputSeries` and
:class:`~repro.sim.metrics.DropRateSampler` and checks both laws on the
serialized end state.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.bitmap_filter import BitmapFilterStats  # noqa: E402
from repro.filters.base import CODE_DROP, CODE_PASS, FilterStats, Verdict  # noqa: E402
from repro.sim.metrics import DropRateSampler, ThroughputSeries, tally_rows  # noqa: E402

from tests.conftest import in_packet, out_packet  # noqa: E402

# Each shard's stream: (is_outbound, passed, timestamp, size) events.
shard_events = st.lists(
    st.tuples(
        st.booleans(),
        st.booleans(),
        st.floats(min_value=0.0, max_value=60.0),
        st.integers(min_value=40, max_value=1500),
    ),
    max_size=30,
)

# At least three shards, so grouping (not just swapping) is exercised.
fleets = st.lists(shard_events, min_size=3, max_size=5)


def filter_stats_of(events):
    stats = FilterStats()
    for is_outbound, passed, timestamp, size in events:
        packet = (out_packet(t=timestamp, size=size) if is_outbound
                  else in_packet(t=timestamp, size=size))
        stats.account(packet, Verdict.PASS if passed else Verdict.DROP)
    return stats


def columns_of(events):
    """The events as a tally's columns (timestamp, size, outbound, code)."""
    return ([timestamp for _, _, timestamp, _ in events],
            [size for _, _, _, size in events],
            bytearray(is_outbound for is_outbound, _, _, _ in events),
            bytearray(CODE_PASS if passed else CODE_DROP for _, passed, _, _ in events))


def throughput_of(events, interval):
    series = ThroughputSeries(interval=interval)
    tally_rows(*columns_of(events), interval, 10.0).record(
        ThroughputSeries(interval=interval), series, DropRateSampler())
    return series


def sampler_of(events, window):
    sampler = DropRateSampler(window=window)
    tally_rows(*columns_of(events), 1.0, window).record(
        ThroughputSeries(), ThroughputSeries(), sampler)
    return sampler


def bitmap_stats_of(events):
    stats = BitmapFilterStats()
    for is_outbound, passed, _timestamp, _size in events:
        if is_outbound:
            stats.outbound_marked += 1
        elif passed:
            stats.inbound_hits += 1
        else:
            stats.inbound_misses += 1
            stats.inbound_dropped += 1
    return stats


def assert_merge_laws(build, freeze):
    """Check commutativity and associativity of in-place merge over
    ``build()``-produced shard records, comparing ``freeze(state)``."""

    def fold(order, grouping):
        # grouping picks how many items the first partial fold takes.
        items = [build(i) for i in order]
        left = items[0]
        for item in items[1:grouping]:
            left.merge(item)
        right = items[grouping] if grouping < len(items) else None
        if right is not None:
            for item in items[grouping + 1:]:
                right.merge(item)
            left.merge(right)
        return freeze(left)

    reference = fold(build.order, grouping=1)
    for order in (list(reversed(build.order)),
                  build.order[1:] + build.order[:1]):
        for grouping in (1, 2, len(build.order) - 1):
            assert fold(order, grouping) == reference


def make_builder(shards, factory):
    def build(index):
        return factory(shards[index])

    build.order = list(range(len(shards)))
    return build


@settings(max_examples=40, deadline=None)
@given(fleets)
def test_filter_stats_merge_laws(shards):
    assert_merge_laws(
        make_builder(shards, filter_stats_of),
        freeze=lambda stats: stats.snapshot(),
    )


@settings(max_examples=40, deadline=None)
@given(fleets)
def test_bitmap_stats_merge_laws(shards):
    assert_merge_laws(
        make_builder(shards, bitmap_stats_of),
        freeze=lambda stats: stats.as_dict(),
    )


@settings(max_examples=40, deadline=None)
@given(fleets, st.sampled_from([0.5, 1.0, 2.0]))
def test_throughput_series_merge_laws(shards, interval):
    assert_merge_laws(
        make_builder(shards, lambda events: throughput_of(events, interval)),
        freeze=lambda series: series.snapshot(),
    )


@settings(max_examples=40, deadline=None)
@given(fleets, st.sampled_from([1.0, 5.0, 10.0]))
def test_drop_rate_sampler_merge_laws(shards, window):
    assert_merge_laws(
        make_builder(shards, lambda events: sampler_of(events, window)),
        freeze=lambda sampler: sampler.snapshot(),
    )


@settings(max_examples=20, deadline=None)
@given(fleets)
def test_merge_matches_single_stream(shards):
    """Merging per-shard stats equals accounting the concatenated
    stream into one record — the partitioned-replay exactness claim."""
    merged = FilterStats()
    for events in shards:
        merged.merge(filter_stats_of(events))
    single = filter_stats_of([e for events in shards for e in events])
    assert merged.snapshot() == single.snapshot()


def test_merge_rejects_mismatched_binning():
    with pytest.raises(ValueError):
        ThroughputSeries(interval=1.0).merge(ThroughputSeries(interval=2.0))
    with pytest.raises(ValueError):
        DropRateSampler(window=5.0).merge(DropRateSampler(window=10.0))

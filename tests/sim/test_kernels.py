"""Kernel-vs-generic equivalence matrix for the filter-kernel registry.

Every registered kernel (:mod:`repro.sim.kernels`) must be bit-identical
to the sequential per-packet reference — same verdict fingerprints, same
filter statistics, same blocklist contents, same RNG end-state — across
backends (sequential / batched / parallel workers 2 and 4, whose lanes
read shared memory) and seeds.  Registration is by exact type: subclasses
with overridden hooks must fall back to the generic path and keep their
overrides honored.
"""

import random

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import RedDropPolicy
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.sharded import ShardedFilter
from repro.filters.spi import SPIFilter
from repro.net.inet import parse_ipv4
from repro.sim.kernels import KERNELS, kernel_for
from repro.sim.parallel import parallel_replay
from repro.sim.replay import replay
from repro.workload import TraceConfig, TraceGenerator

BASE = parse_ipv4("10.1.0.0")

SMALL_CONFIG = BitmapFilterConfig(
    size=2 ** 12, vectors=4, hashes=3, rotate_interval=5.0
)


def trace(seed, duration=25.0, rate=6.0):
    config = TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    return TraceGenerator(config).packet_list()


def red():
    # A fractional-P_d controller: always_drop never consumes RNG
    # (P_d = 1 short-circuits), so equivalence must be pinned where the
    # guarded draw actually runs.
    return DropController.red_mbps(0.2, 0.8)


FILTER_FACTORIES = {
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
    "bitmap": lambda: BitmapPacketFilter(SMALL_CONFIG),
}


def filter_rng_states(flt):
    """Every RNG the filter tree owns, in a fixed order."""
    if isinstance(flt, FilterChain):
        return [state for member in flt.filters
                for state in filter_rng_states(member)]
    holder = getattr(flt, "core", flt)
    rng = getattr(holder, "_rng", None)
    return [] if rng is None else [rng.getstate()]


def fingerprint(result):
    """Everything two runs must agree on, byte for byte."""
    router = result.router
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "verdict_fingerprint": result.fingerprint,
        "filter_stats": router.filter.stats.as_dict(),
        "offered_bins": router.offered._bins,
        "passed_bins": router.passed._bins,
        "drop_packets": router.inbound_drops._packets,
        "drop_dropped": router.inbound_drops._dropped,
        "blocked": (None if router.blocklist is None
                    else dict(router.blocklist._blocked)),
        "suppressed": (0 if router.blocklist is None
                       else router.blocklist.suppressed_packets),
    }


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
    def test_every_shipped_filter_is_registered(self, name):
        flt = FILTER_FACTORIES[name]()
        assert kernel_for(flt) is not None

    @pytest.mark.parametrize("base_name", sorted(FILTER_FACTORIES))
    def test_subclasses_are_not_registered(self, base_name):
        base = type(FILTER_FACTORIES[base_name]())
        subclass = type("Sub" + base.__name__, (base,), {})
        assert subclass not in KERNELS
        instance = subclass.__new__(subclass)  # state doesn't matter here
        assert kernel_for(instance) is None

    def test_registry_keys_are_exact_types(self):
        for registered in (SPIFilter, CountingBitmapFilter, TokenBucketFilter,
                           RedPolicerFilter, FilterChain, BitmapPacketFilter):
            assert registered in KERNELS

    def test_subclass_override_is_honored_in_batched_replay(self):
        # A subclass flipping decide() to PASS-everything must keep that
        # behavior under batched replay — the fused SPI kernel would
        # ignore the override, so the generic path has to run.
        from repro.filters.base import Verdict

        class PassEverythingSPI(SPIFilter):
            def decide(self, packet):
                return Verdict.PASS

        packets = trace(5)
        result = replay(packets, PassEverythingSPI(), batched=True,
                        use_blocklist=True)
        assert result.inbound_dropped == 0
        strict = replay(packets, SPIFilter(), batched=True, use_blocklist=True)
        assert strict.inbound_dropped > 0  # sanity: the base would drop

    @pytest.mark.parametrize("name", ["bitmap", "red-policer"])
    def test_policy_subclass_keeps_its_probability(self, name):
        # The fused functions take shortcuts for RedDropPolicy itself
        # only: Equation 1's ramp inline, and no read on a bitmap hit.  A
        # subclass's probability() decides, and sees every read decide()
        # makes.
        class HalvedRed(RedDropPolicy):
            reads = 0

            def probability(self, throughput):
                self.reads += 1  # every other read halves P_d
                base = super().probability(throughput)
                return base / 2 if self.reads % 2 else base

        def make(policy_type):
            policy = policy_type(low=2e4, high=2e5)
            if name == "red-policer":
                return RedPolicerFilter(policy, rng=random.Random(7))
            return BitmapPacketFilter(SMALL_CONFIG, DropController(policy),
                                      rng=random.Random(7))

        packets = trace(2)
        sequential = replay(list(packets), make(HalvedRed), record_fingerprint=True)
        batched = replay(list(packets), make(HalvedRed), batched=True,
                         record_fingerprint=True)
        assert fingerprint(batched) == fingerprint(sequential)
        # On this trace the override changes verdicts.
        plain = replay(list(packets), make(RedDropPolicy), batched=True,
                       record_fingerprint=True)
        assert plain.fingerprint != batched.fingerprint


class TestSequentialVsBatched:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("use_blocklist", [False, True])
    @pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
    def test_bit_identical(self, name, use_blocklist, seed):
        make = FILTER_FACTORIES[name]
        packets = trace(seed)
        sequential = replay(list(packets), make(), use_blocklist=use_blocklist,
                            record_fingerprint=True)
        batched = replay(list(packets), make(), use_blocklist=use_blocklist,
                         batched=True, record_fingerprint=True)
        chunked = replay(list(packets), make(), use_blocklist=use_blocklist,
                         batched=True, chunk_size=256, record_fingerprint=True)
        reference = fingerprint(sequential)
        assert fingerprint(batched) == reference
        assert fingerprint(chunked) == reference
        rng_reference = filter_rng_states(sequential.router.filter)
        assert filter_rng_states(batched.router.filter) == rng_reference
        assert filter_rng_states(chunked.router.filter) == rng_reference

    @pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
    def test_member_stats_match_for_chain(self, name):
        if name != "chain":
            pytest.skip("chain-only assertion")
        packets = trace(3)
        sequential = replay(list(packets), FILTER_FACTORIES[name](),
                            use_blocklist=False)
        batched = replay(list(packets), FILTER_FACTORIES[name](),
                         use_blocklist=False, batched=True)
        seq_members = [s.as_dict() for s in sequential.router.filter.member_stats()]
        bat_members = [s.as_dict() for s in batched.router.filter.member_stats()]
        assert seq_members == bat_members


class TestRngConsumption:
    """The per-filter draw forms, pinned (and reproduced by the kernels).

    SPI and the RED policer guard the draw with ``probability > 0.0`` —
    a no-drop phase must not consume from the stream.  The counting
    filter tosses the bitmap core's coin, which draws on every miss
    regardless; the kernels reproduce each form draw-for-draw rather than
    normalizing them.
    """

    def run_both(self, make):
        packets = trace(4)
        sequential = replay(list(packets), make(), use_blocklist=False)
        batched = replay(list(packets), make(), use_blocklist=False,
                         batched=True)
        return sequential.router.filter, batched.router.filter

    def test_spi_zero_probability_consumes_no_draws(self):
        pristine = random.Random(7).getstate()
        for flt in self.run_both(lambda: SPIFilter(
                drop_controller=DropController.never_drop(),
                rng=random.Random(7))):
            assert flt._rng.getstate() == pristine
            assert flt.stats.dropped_bytes  # it did see traffic

    def test_spi_fractional_probability_consumes_draws(self):
        pristine = random.Random(7).getstate()
        for flt in self.run_both(lambda: SPIFilter(
                drop_controller=red(), rng=random.Random(7))):
            assert flt._rng.getstate() != pristine

    def test_red_policer_below_threshold_consumes_no_draws(self):
        pristine = random.Random(7).getstate()
        # Thresholds far above the trace's offered rate: P_d stays 0.
        for flt in self.run_both(lambda: RedPolicerFilter.mbps(
                1e3, 2e3, rng=random.Random(7))):
            assert flt._rng.getstate() == pristine

    def test_counting_zero_probability_still_draws(self):
        # The unguarded historical form: every miss consumes one draw
        # even at P_d = 0.  Kernels must not "fix" this silently — it
        # would desynchronize RNG streams against recorded runs.
        pristine = random.Random(7).getstate()
        for flt in self.run_both(lambda: CountingBitmapFilter(
                SMALL_CONFIG, drop_controller=DropController.never_drop(),
                rng=random.Random(7))):
            assert flt.core._rng.getstate() != pristine
            assert flt.stats.as_dict()["dropped_inbound"] == 0

    def test_spi_and_red_guarded_forms_agree(self):
        # Same guard, same consumption count for the same decision points.
        seq_spi, bat_spi = self.run_both(lambda: SPIFilter(
            drop_controller=red(), rng=random.Random(9)))
        assert seq_spi._rng.getstate() == bat_spi._rng.getstate()
        seq_red, bat_red = self.run_both(lambda: RedPolicerFilter.mbps(
            0.2, 0.8, rng=random.Random(9)))
        assert seq_red._rng.getstate() == bat_red._rng.getstate()


def make_sharded(name, shard_count=4):
    prefix = 24 + shard_count.bit_length() - 1
    step = 1 << (32 - prefix)
    return ShardedFilter([
        (BASE + i * step, prefix, FILTER_FACTORIES[name]())
        for i in range(shard_count)
    ])


class TestParallelMatrix:
    """Every kernel × workers {2,4} × two seeds, lanes over shared memory."""

    @pytest.mark.parametrize("seed", [1, 2])
    # Every multiprocess dispatch publishes a shared-memory arena; the
    # ids name it so each case reads as the lane path it runs.
    @pytest.mark.parametrize("workers", [2, 4], ids=["2-shm", "4-shm"])
    @pytest.mark.parametrize("name", sorted(FILTER_FACTORIES))
    def test_parallel_matches_single_process(self, name, workers, seed):
        packets = trace(seed, duration=12.0)
        single = replay(list(packets), make_sharded(name), use_blocklist=True)
        parallel = parallel_replay(list(packets), make_sharded(name),
                                   workers=workers)
        reference = fingerprint_no_verdicts(single)
        assert fingerprint_no_verdicts(parallel) == reference


def fingerprint_no_verdicts(result):
    document = fingerprint(result)
    document.pop("verdict_fingerprint")  # parallel runs don't record one
    return document

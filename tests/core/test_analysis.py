"""Tests for the section 5.1 closed-form model (Equations 2-6)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    capacity_bound,
    capacity_table,
    exact_penetration_probability,
    expected_utilization,
    false_negative_bound,
    minimum_vector_size,
    optimal_hash_count,
    penetration_probability,
    recommend_parameters,
)
from repro.core.bitmap_filter import BitmapFilter, BitmapFilterConfig
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import SocketPair


class TestEquation3:
    def test_formula(self):
        # p ≈ (c·m/N)^m
        assert penetration_probability(1000, 2 ** 20, 3) == pytest.approx(
            (1000 * 3 / 2 ** 20) ** 3
        )

    def test_clamped_to_one(self):
        assert penetration_probability(10 ** 9, 2 ** 10, 3) == 1.0

    def test_zero_connections(self):
        assert penetration_probability(0, 2 ** 20, 3) == 0.0

    def test_monotone_in_connections(self):
        values = [penetration_probability(c, 2 ** 16, 3) for c in (10, 100, 1000)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            penetration_probability(10, 0, 3)
        with pytest.raises(ValueError):
            penetration_probability(-1, 2 ** 10, 3)

    def test_approximation_close_to_exact_at_low_utilization(self):
        approx = penetration_probability(1000, 2 ** 20, 3)
        exact = exact_penetration_probability(1000, 2 ** 20, 3)
        assert approx == pytest.approx(exact, rel=0.01)

    def test_approximation_overestimates_at_high_utilization(self):
        # (c·m/N)^m ignores collisions, so it exceeds the exact value.
        approx = penetration_probability(200_000, 2 ** 20, 3)
        exact = exact_penetration_probability(200_000, 2 ** 20, 3)
        assert approx > exact


class TestEquation5:
    def test_optimum_formula(self):
        # m* = N/(e·c)
        assert optimal_hash_count(2 ** 20, 100_000) == pytest.approx(
            2 ** 20 / (math.e * 100_000)
        )

    def test_optimum_actually_minimizes_equation3(self):
        size, connections = 2 ** 20, 80_000
        best_m = optimal_hash_count(size, connections)
        at_best = (connections * best_m / size) ** best_m
        for factor in (0.5, 0.8, 1.25, 2.0):
            m = best_m * factor
            assert (connections * m / size) ** m >= at_best

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_hash_count(2 ** 20, 0)


class TestEquation6CapacityBound:
    """The paper's worked example: N = 2^20, p = 10 %/5 %/1 % ->
    roughly 167K / 125K / 83K connections."""

    def test_ten_percent(self):
        assert capacity_bound(2 ** 20, 0.10) == pytest.approx(167_000, rel=0.03)

    def test_five_percent(self):
        assert capacity_bound(2 ** 20, 0.05) == pytest.approx(125_000, rel=0.04)

    def test_one_percent(self):
        assert capacity_bound(2 ** 20, 0.01) == pytest.approx(83_000, rel=0.04)

    def test_trace_headroom(self):
        # "our trace data ... has only average 15K active connections
        #  inside a time unit of 20 seconds" — far below every bound.
        assert 15_000 < capacity_bound(2 ** 20, 0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            capacity_bound(2 ** 20, 0.0)
        with pytest.raises(ValueError):
            capacity_bound(2 ** 20, 1.0)

    def test_capacity_table_shape(self):
        rows = capacity_table(2 ** 20)
        assert [row["target_p"] for row in rows] == [0.10, 0.05, 0.01]
        assert rows[0]["capacity"] > rows[1]["capacity"] > rows[2]["capacity"]

    def test_capacity_respected_at_optimal_m(self):
        # At c = capacity and m = m*, Equation 3 gives exactly target p:
        # p = (c·m*/N)^{m*} = e^{-m*} and m* = -ln p.
        size, target = 2 ** 20, 0.05
        capacity = capacity_bound(size, target)
        m_star = optimal_hash_count(size, int(capacity))
        predicted = (capacity * m_star / size) ** m_star
        assert predicted == pytest.approx(target, rel=0.01)


class TestMinimumVectorSize:
    def test_power_of_two(self):
        size = minimum_vector_size(15_000, 0.05)
        assert size & (size - 1) == 0

    def test_meets_bound(self):
        size = minimum_vector_size(15_000, 0.05)
        assert capacity_bound(size, 0.05) >= 15_000

    def test_smaller_size_violates_bound(self):
        size = minimum_vector_size(15_000, 0.05)
        assert capacity_bound(size // 2, 0.05) < 15_000

    def test_validation(self):
        with pytest.raises(ValueError):
            minimum_vector_size(0, 0.05)


class TestUtilizationModel:
    def test_expected_utilization_empirical(self):
        size, hashes, connections = 2 ** 12, 3, 300
        filt = BitmapFilter(BitmapFilterConfig(size=size, vectors=2, hashes=hashes))
        rng = random.Random(11)
        for _ in range(connections):
            filt.mark_outbound(
                SocketPair(IPPROTO_TCP, rng.getrandbits(32), rng.getrandbits(16),
                           rng.getrandbits(32), rng.getrandbits(16))
            )
        expected = expected_utilization(connections, size, hashes)
        assert filt.current_utilization == pytest.approx(expected, rel=0.08)


class TestEquation2OnReplay:
    """Eq. 2 against a real replay across its knee.

    ``small_trace`` replays per packet through the bare core (k = 4,
    m = 3, Δt = 5 s, P_d = 1, no blocklist).  A remote-initiated
    connection (ground truth: ``ConnectionSpec.initiator``) penetrates
    when its first inbound packet hits the current vector, which Eq. 2
    puts at U^m with U read at that packet.  The penetration count must
    lie within three binomial standard deviations of the summed U^m, on
    both sides of the knee: almost all penetrate at N = 2^6, about half
    at 2^8, a few at 2^10 (15 of 223 against 11.7 expected) and none at
    2^12.
    """

    @pytest.mark.parametrize("size_bits", [6, 8, 10, 12])
    def test_penetrations_match_equation_2(self, size_bits, small_trace,
                                           small_trace_specs):
        from repro.net.packet import Direction
        from repro.workload.apps import Initiator

        unsolicited = {spec.pair_from_client.inverse for spec in small_trace_specs
                       if spec.initiator is Initiator.REMOTE}
        core = BitmapFilter(BitmapFilterConfig(size=2 ** size_bits, vectors=4,
                                               hashes=3, rotate_interval=5.0))
        connections = penetrated = 0
        expected = 0.0
        for packet in small_trace:
            core.advance_to(packet.timestamp)
            if packet.direction is Direction.OUTBOUND:
                core.mark_outbound(packet.pair)
            elif packet.pair in unsolicited:
                unsolicited.discard(packet.pair)
                connections += 1
                expected += core.penetration_probability()
                penetrated += core.lookup_inbound(packet.pair)
        assert connections == 223
        rate = expected / connections
        spread = 3.0 * math.sqrt(connections * rate * (1.0 - rate))
        assert abs(penetrated - expected) <= spread


class TestFalseNegativeBound:
    def test_paper_number(self):
        # CDF(3.61 s) = 99 % -> false negatives < 1 %.
        assert false_negative_bound(0.99) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            false_negative_bound(1.5)


class TestRecommendParameters:
    def test_paper_scenario(self):
        # 15K active connections, T_e = 20 s, Δt = 5 s.
        rec = recommend_parameters(15_000, target_p=0.05, expiry_time=20.0,
                                   rotate_interval=5.0)
        assert rec.vectors == 4
        assert rec.expiry_time == 20.0
        assert rec.predicted_penetration <= 0.05
        assert rec.size & (rec.size - 1) == 0
        assert 1 <= rec.hashes <= 8

    def test_memory_accounting(self):
        rec = recommend_parameters(15_000, target_p=0.05)
        assert rec.memory_bytes == rec.vectors * rec.size // 8

    def test_tighter_target_needs_more_memory(self):
        loose = recommend_parameters(50_000, target_p=0.10)
        tight = recommend_parameters(50_000, target_p=0.001)
        assert tight.size >= loose.size

    def test_rejects_long_expiry(self):
        # Section 4.3: T_e above 60 s invites port-reuse false positives.
        with pytest.raises(ValueError):
            recommend_parameters(1000, expiry_time=120.0)

    def test_rejects_expiry_below_interval(self):
        with pytest.raises(ValueError):
            recommend_parameters(1000, expiry_time=2.0, rotate_interval=5.0)

    def test_summary_mentions_geometry(self):
        rec = recommend_parameters(15_000)
        assert "bitmap" in rec.summary()

    def test_recommendation_holds_empirically(self):
        rec = recommend_parameters(2_000, target_p=0.05, expiry_time=20.0)
        filt = BitmapFilter(
            BitmapFilterConfig(size=rec.size, vectors=rec.vectors, hashes=rec.hashes)
        )
        rng = random.Random(5)
        for _ in range(2_000):
            filt.mark_outbound(
                SocketPair(IPPROTO_TCP, rng.getrandbits(32), rng.getrandbits(16),
                           rng.getrandbits(32), rng.getrandbits(16))
            )
        probes = 10_000
        hits = sum(
            filt.lookup_inbound(
                SocketPair(IPPROTO_TCP, rng.getrandbits(32), rng.getrandbits(16),
                           rng.getrandbits(32), rng.getrandbits(16))
            )
            for _ in range(probes)
        )
        assert hits / probes <= 0.05 * 1.3  # modest sampling slack


@given(
    size_bits=st.integers(min_value=10, max_value=24),
    connections=st.integers(min_value=1, max_value=200_000),
    hashes=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=200)
def test_penetration_probability_in_unit_interval(size_bits, connections, hashes):
    p = penetration_probability(connections, 2 ** size_bits, hashes)
    assert 0.0 <= p <= 1.0
    exact = exact_penetration_probability(connections, 2 ** size_bits, hashes)
    assert 0.0 <= exact <= 1.0
    assert p >= exact - 1e-12  # approximation never undershoots

"""Tests for drop-probability policies (Equation 1 and the static P_d)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dropper import RedDropPolicy, StaticDropPolicy


class TestRedDropPolicy:
    """Equation 1 with the paper's L=50 Mbps, H=100 Mbps (as raw units)."""

    def test_zero_below_low(self):
        policy = RedDropPolicy(low=50.0, high=100.0)
        assert policy.probability(0.0) == 0.0
        assert policy.probability(49.9) == 0.0

    def test_zero_at_low(self):
        assert RedDropPolicy(50.0, 100.0).probability(50.0) == 0.0

    def test_one_at_high(self):
        assert RedDropPolicy(50.0, 100.0).probability(100.0) == 1.0

    def test_one_above_high(self):
        assert RedDropPolicy(50.0, 100.0).probability(250.0) == 1.0

    def test_linear_in_between(self):
        policy = RedDropPolicy(50.0, 100.0)
        assert policy.probability(75.0) == pytest.approx(0.5)
        assert policy.probability(60.0) == pytest.approx(0.2)
        assert policy.probability(90.0) == pytest.approx(0.8)

    def test_monotone(self):
        policy = RedDropPolicy(10.0, 20.0)
        values = [policy.probability(b) for b in range(0, 31)]
        assert values == sorted(values)

    def test_rejects_inverted_thresholds(self):
        with pytest.raises(ValueError):
            RedDropPolicy(100.0, 50.0)
        with pytest.raises(ValueError):
            RedDropPolicy(50.0, 50.0)

    def test_rejects_negative_low(self):
        with pytest.raises(ValueError):
            RedDropPolicy(-1.0, 10.0)

    def test_zero_low_allowed(self):
        policy = RedDropPolicy(0.0, 10.0)
        assert policy.probability(5.0) == pytest.approx(0.5)


class TestStaticDropPolicy:
    def test_constant(self):
        policy = StaticDropPolicy(0.4)
        for throughput in (0.0, 1e9):
            assert policy.probability(throughput) == 0.4

    def test_figure8_configuration(self):
        # "drop all inbound packets without states"
        assert StaticDropPolicy(1.0).probability(0.0) == 1.0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            StaticDropPolicy(-0.1)
        with pytest.raises(ValueError):
            StaticDropPolicy(1.1)


@given(
    low=st.floats(min_value=0.0, max_value=1e9),
    span=st.floats(min_value=1e-6, max_value=1e9),
    throughput=st.floats(min_value=0.0, max_value=2e9),
)
@settings(max_examples=300)
def test_red_probability_always_in_unit_interval(low, span, throughput):
    policy = RedDropPolicy(low, low + span)
    assert 0.0 <= policy.probability(throughput) <= 1.0

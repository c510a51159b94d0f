"""Tests for the two column types of the rotating filter core."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.bitvector import COUNTER_MAX, BitVector, CounterVector
from repro.core.hashing import make_hash_family


class TestBitVectorBasics:
    def test_starts_empty(self):
        vector = BitVector(64)
        assert vector.popcount() == 0
        assert not vector.test_all([0])
        assert not vector.test_all([63])

    def test_set_and_test(self):
        vector = BitVector(64)
        vector.set_many([5])
        assert vector.test_all([5])
        assert not vector.test_all([4])
        assert not vector.test_all([6])

    def test_set_many(self):
        vector = BitVector(128)
        vector.set_many([0, 64, 127])
        assert vector.test_all([0, 64, 127])
        assert vector.popcount() == 3

    def test_set_idempotent(self):
        vector = BitVector(32)
        vector.set_many([10])
        vector.set_many([10])
        assert vector.popcount() == 1

    def test_test_all(self):
        vector = BitVector(32)
        vector.set_many([1, 2, 3])
        assert vector.test_all([1, 2, 3])
        assert not vector.test_all([1, 2, 4])
        assert vector.test_all([])  # vacuous truth

    def test_clear(self):
        vector = BitVector(32)
        vector.set_many(range(32))
        vector.clear()
        assert vector.popcount() == 0

    def test_utilization(self):
        vector = BitVector(100)
        vector.set_many(range(25))
        assert vector.utilization == pytest.approx(0.25)

    def test_len(self):
        assert len(BitVector(77)) == 77


class TestBitVectorBounds:
    def test_negative_index(self):
        with pytest.raises(IndexError):
            BitVector(8).set_many([-1])

    def test_index_at_size(self):
        with pytest.raises(IndexError):
            BitVector(8).set_many([8])

    def test_test_out_of_range(self):
        # At or beyond the size reads as unmarked; negative is an error.
        assert not BitVector(8).test_all([8])
        with pytest.raises(IndexError):
            BitVector(8).test_all([-1])

    def test_set_many_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector(8).set_many([3, 9])

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            BitVector(0)


class TestBitVectorSerde:
    def test_roundtrip(self):
        vector = BitVector(70)
        vector.set_many([0, 13, 69])
        clone = BitVector.from_bytes(vector.to_bytes(), 70)
        assert clone == vector

    def test_from_bytes_rejects_overflow(self):
        vector = BitVector(16)
        vector.set_many([15])
        with pytest.raises(ValueError):
            BitVector.from_bytes(vector.to_bytes(), 8)

    def test_equality(self):
        a, b = BitVector(8), BitVector(8)
        a.set_many([2])
        b.set_many([2])
        assert a == b
        b.set_many([3])
        assert a != b


@given(st.sets(st.integers(min_value=0, max_value=255), max_size=64))
@settings(max_examples=200)
def test_popcount_matches_set_size(indices):
    vector = BitVector(256)
    vector.set_many(indices)
    assert vector.popcount() == len(indices)
    assert all(vector.test_all([index]) == (index in indices) for index in range(256))


@given(st.sets(st.integers(min_value=0, max_value=127), min_size=1, max_size=30))
@settings(max_examples=200)
def test_serde_roundtrip_property(indices):
    vector = BitVector(128)
    vector.set_many(indices)
    assert BitVector.from_bytes(vector.to_bytes(), 128) == vector


@given(st.sets(st.integers(min_value=0, max_value=4095), max_size=200))
@settings(max_examples=100)
def test_popcount_fallback_matches_bit_count(indices):
    # The per-byte table fallback (Python 3.9) must agree with the
    # int.bit_count fast path used on >= 3.10.
    from repro.core.bitvector import _popcount_fallback, popcount_bytes

    vector = BitVector(4096)
    vector.set_many(indices)
    assert _popcount_fallback(vector.to_bytes()) == len(indices)
    assert popcount_bytes(vector.to_bytes()) == len(indices)


# -- CounterVector: 4-bit saturating cells over indices --------------------

FAMILY = make_hash_family(3, 2 ** 14)


def cells_of(key: int):
    """The three cell indices of one key, from a 2^14-cell hash family."""
    return FAMILY.indices((key,))


class TestCounterVectorBasics:
    def test_add_then_member(self):
        cells = CounterVector(1024)
        cells.set_many([3, 500, 1023])
        assert cells.test_all([3, 500, 1023])

    def test_absent_not_member(self):
        cells = CounterVector(1024)
        cells.set_many([3, 500, 1023])
        assert not cells.test_all([3, 500, 1022])
        assert not cells.test_all([1024])  # beyond the size reads as zero

    def test_remove_deletes(self):
        cells = CounterVector(1024)
        cells.set_many([1, 2, 3])
        assert cells.remove_many([1, 2, 3])
        assert not cells.test_all([1, 2, 3])
        assert not any(cells._cells)

    def test_remove_absent_is_safe_noop(self):
        cells = CounterVector(1024)
        cells.set_many([4, 5, 6])
        assert not cells.remove_many([4, 5, 7])
        assert cells.test_all([4, 5, 6])
        assert cells.removed == 0

    def test_multiset_semantics(self):
        cells = CounterVector(1024)
        cells.set_many([7, 8, 9])
        cells.set_many([7, 8, 9])
        cells.remove_many([7, 8, 9])
        assert cells.test_all([7, 8, 9])  # one copy remains
        cells.remove_many([7, 8, 9])
        assert not cells.test_all([7, 8, 9])

    def test_remove_does_not_disturb_others(self):
        cells = CounterVector(2 ** 14)
        keys = [cells_of(key) for key in range(100)]
        for indices in keys:
            cells.set_many(indices)
        for indices in keys[:50]:
            assert cells.remove_many(indices)
        assert all(cells.test_all(indices) for indices in keys[50:])

    def test_set_many_out_of_range(self):
        cells = CounterVector(8)
        with pytest.raises(IndexError):
            cells.set_many([3, 8])
        with pytest.raises(IndexError):
            cells.set_many([-1])
        assert not any(cells._cells) and cells.added == 0


class TestCounterVectorCounters:
    def test_saturation(self):
        cells = CounterVector(64)
        for _ in range(COUNTER_MAX + 5):
            cells.set_many([9])
        assert cells.saturations == 5
        assert cells.test_all([9])

    def test_saturated_cell_never_decremented(self):
        cells = CounterVector(64)
        for _ in range(COUNTER_MAX + 5):
            cells.set_many([8, 9])
        for _ in range(COUNTER_MAX + 5):
            cells.remove_many([8, 9])
        # Saturated cells are stranded at COUNTER_MAX — still a member.
        assert cells.test_all([8, 9])
        assert cells._cells[4] == (COUNTER_MAX << 4) | COUNTER_MAX

    def test_added_and_removed_counts(self):
        cells = CounterVector(64)
        for _ in range(5):
            cells.set_many([1, 2])
        assert cells.remove_many([1, 2])
        assert not cells.remove_many([3])  # absent: not counted
        assert (cells.added, cells.removed) == (5, 1)

    def test_clear(self):
        cells = CounterVector(1024)
        for _ in range(COUNTER_MAX + 1):
            cells.set_many([1, 2])
        cells.remove_many([1, 2])
        cells.clear()
        assert not cells.test_all([1])
        assert (cells.added, cells.removed, cells.saturations) == (0, 0, 0)
        assert not any(cells._cells)

    def test_utilization(self):
        cells = CounterVector(1024)
        assert cells.utilization == 0.0
        cells.set_many([0, 1, 513])
        cells.set_many([0])
        assert cells.utilization == 3 / 1024

    def test_memory_is_half_size_bytes(self):
        assert CounterVector(2 ** 10).memory_bytes == 2 ** 9

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            CounterVector(0)


class TestCounterVectorDeletion:
    def test_utilization_drops_after_removals(self):
        rng = random.Random(7)
        cells = CounterVector(2 ** 14)
        keys = [cells_of(rng.getrandbits(48)) for _ in range(600)]
        for indices in keys:
            cells.set_many(indices)
        before = cells.utilization
        for indices in keys[:500]:
            cells.remove_many(indices)
        assert cells.utilization < before * 0.3


@given(st.sets(st.integers(min_value=0, max_value=2 ** 48), min_size=1, max_size=40))
@settings(max_examples=100)
def test_counter_add_remove_roundtrip_property(keys):
    cells = CounterVector(2 ** 14)
    for key in keys:
        cells.set_many(cells_of(key))
    assert all(cells.test_all(cells_of(key)) for key in keys)
    for key in keys:
        assert cells.remove_many(cells_of(key))
    # With distinct adds/removes and no saturation, everything clears.
    assert cells.utilization == 0.0


# -- model-based: BitVector against a Python set ---------------------------

#: Not a multiple of 8, so the last byte is only partly inside the vector.
MODEL_SIZE = 77
any_index = st.integers(min_value=-3, max_value=MODEL_SIZE + 10)


def int_layout(bits, size=MODEL_SIZE) -> bytes:
    """The bytes an int-backed vector with these bits serializes to."""
    return sum(1 << index for index in bits).to_bytes((size + 7) // 8, "little")


class BitVectorModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.vector = BitVector(MODEL_SIZE)
        self.model = set()

    @rule(indices=st.lists(any_index, max_size=6))
    def set_many(self, indices):
        if all(0 <= index < MODEL_SIZE for index in indices):
            self.vector.set_many(iter(indices))
            self.model.update(indices)
        else:
            # All or nothing: the in-range indices stay unmarked too.
            with pytest.raises(IndexError):
                self.vector.set_many(indices)

    @rule(indices=st.lists(st.integers(min_value=0, max_value=MODEL_SIZE + 40),
                           max_size=4))
    def test_all(self, indices):
        # Indices at or beyond the size read as unmarked.
        expected = all(index in self.model for index in indices)
        assert self.vector.test_all(indices) == expected

    @rule()
    def clear(self):
        self.vector.clear()
        self.model.clear()

    @rule()
    def bytes_roundtrip(self):
        data = self.vector.to_bytes()
        self.vector = BitVector.from_bytes(data, MODEL_SIZE)
        assert self.vector.to_bytes() == data

    @rule(extra=st.integers(min_value=MODEL_SIZE, max_value=(MODEL_SIZE + 7) // 8 * 8 - 1))
    def from_bytes_rejects_bits_beyond_size(self, extra):
        data = int_layout(self.model | {extra})
        with pytest.raises(ValueError):
            BitVector.from_bytes(data, MODEL_SIZE)

    @invariant()
    def agrees_with_model(self):
        assert self.vector.popcount() == len(self.model)
        # Byte-identical to the int-backed layout snapshots were written in.
        assert self.vector.to_bytes() == int_layout(self.model)


TestBitVectorModel = BitVectorModel.TestCase
TestBitVectorModel.settings = settings(max_examples=100, stateful_step_count=40,
                                       deadline=None)

"""Tests for the bit-vector substrate (one bitmap column)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.bitvector import BitVector, vector_stats


class TestBitVectorBasics:
    def test_starts_empty(self):
        vector = BitVector(64)
        assert vector.popcount() == 0
        assert not vector.test(0)
        assert not vector.test(63)

    def test_set_and_test(self):
        vector = BitVector(64)
        vector.set(5)
        assert vector.test(5)
        assert not vector.test(4)
        assert not vector.test(6)

    def test_set_many(self):
        vector = BitVector(128)
        vector.set_many([0, 64, 127])
        assert vector.test(0) and vector.test(64) and vector.test(127)
        assert vector.popcount() == 3

    def test_set_idempotent(self):
        vector = BitVector(32)
        vector.set(10)
        vector.set(10)
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
            BitVector(8).set(-1)

    def test_index_at_size(self):
        with pytest.raises(IndexError):
            BitVector(8).set(8)

    def test_test_out_of_range(self):
        with pytest.raises(IndexError):
            BitVector(8).test(8)

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
        vector.set(15)
        with pytest.raises(ValueError):
            BitVector.from_bytes(vector.to_bytes(), 8)

    def test_copy_is_independent(self):
        vector = BitVector(16)
        vector.set(3)
        clone = vector.copy()
        clone.set(4)
        assert not vector.test(4)
        assert clone.test(3)

    def test_union_update(self):
        a = BitVector(16)
        b = BitVector(16)
        a.set(1)
        b.set(2)
        a.union_update(b)
        assert a.test(1) and a.test(2)

    def test_union_size_mismatch(self):
        with pytest.raises(ValueError):
            BitVector(8).union_update(BitVector(16))

    def test_iter_set_bits(self):
        vector = BitVector(40)
        vector.set_many([3, 17, 39])
        assert list(vector.iter_set_bits()) == [3, 17, 39]

    def test_equality(self):
        a, b = BitVector(8), BitVector(8)
        a.set(2)
        b.set(2)
        assert a == b
        b.set(3)
        assert a != b


class TestVectorStats:
    def test_summary(self):
        vectors = [BitVector(10) for _ in range(3)]
        vectors[0].set_many([0, 1])
        stats = vector_stats(vectors)
        assert stats["count"] == 3
        assert stats["max_utilization"] == pytest.approx(0.2)
        assert stats["min_utilization"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vector_stats([])


@given(st.sets(st.integers(min_value=0, max_value=255), max_size=64))
@settings(max_examples=200)
def test_popcount_matches_set_size(indices):
    vector = BitVector(256)
    vector.set_many(indices)
    assert vector.popcount() == len(indices)
    assert set(vector.iter_set_bits()) == indices


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


# -- model-based: BitVector against a Python set ---------------------------

#: Not a multiple of 8, so the last byte is only partly inside the vector.
MODEL_SIZE = 77
in_range = st.integers(min_value=0, max_value=MODEL_SIZE - 1)
any_index = st.integers(min_value=-3, max_value=MODEL_SIZE + 10)


def int_layout(bits, size=MODEL_SIZE) -> bytes:
    """The bytes an int-backed vector with these bits serializes to."""
    return sum(1 << index for index in bits).to_bytes((size + 7) // 8, "little")


class BitVectorModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.vector = BitVector(MODEL_SIZE)
        self.model = set()

    @rule(index=any_index)
    def set_one(self, index):
        if 0 <= index < MODEL_SIZE:
            self.vector.set(index)
            self.model.add(index)
        else:
            with pytest.raises(IndexError):
                self.vector.set(index)

    @rule(indices=st.lists(any_index, max_size=6))
    def set_many(self, indices):
        if all(0 <= index < MODEL_SIZE for index in indices):
            self.vector.set_many(iter(indices))
            self.model.update(indices)
        else:
            # All or nothing: the in-range indices stay unmarked too.
            with pytest.raises(IndexError):
                self.vector.set_many(indices)

    @rule(index=any_index)
    def test_one(self, index):
        if 0 <= index < MODEL_SIZE:
            assert self.vector.test(index) == (index in self.model)
        else:
            with pytest.raises(IndexError):
                self.vector.test(index)

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
    def copy_is_independent(self):
        clone = self.vector.copy()
        assert clone == self.vector
        clone.set(0)
        clone.set(MODEL_SIZE - 1)
        assert self.vector.test(0) == (0 in self.model)
        assert self.vector.test(MODEL_SIZE - 1) == (MODEL_SIZE - 1 in self.model)

    @rule(other=st.sets(in_range, max_size=10))
    def union_update(self, other):
        vector = BitVector(MODEL_SIZE)
        vector.set_many(other)
        self.vector.union_update(vector)
        self.model |= other

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
        assert list(self.vector.iter_set_bits()) == sorted(self.model)
        # Byte-identical to the int-backed layout snapshots were written in.
        assert self.vector.to_bytes() == int_layout(self.model)


TestBitVectorModel = BitVectorModel.TestCase
TestBitVectorModel.settings = settings(max_examples=100, stateful_step_count=40,
                                       deadline=None)

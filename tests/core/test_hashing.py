"""Tests for the hash families feeding the bitmap filter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hashing import (
    HashFamily,
    HashIndexMemo,
    derive_seed,
    make_hash_family,
    mix_tuple,
    splitmix64,
    uniformity_chi2,
)


class TestSplitmix64:
    def test_fits_64_bits(self):
        for value in (0, 1, 2 ** 64 - 1, 12345678901234567890 % 2 ** 64):
            assert 0 <= splitmix64(value) < 2 ** 64

    def test_zero_not_fixed_point(self):
        assert splitmix64(0) != 0

    def test_distinct_inputs_distinct_outputs(self):
        outputs = {splitmix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    def test_avalanche(self):
        # Flipping one input bit should flip roughly half the output bits.
        a = splitmix64(0x1234)
        b = splitmix64(0x1235)
        flipped = bin(a ^ b).count("1")
        assert 16 <= flipped <= 48


class TestMixTuple:
    def test_deterministic(self):
        fields = (6, 0x0A010005, 3333, 0xCB007107, 80)
        assert mix_tuple(fields) == mix_tuple(fields)

    def test_order_sensitive(self):
        assert mix_tuple((1, 2)) != mix_tuple((2, 1))

    def test_seed_sensitive(self):
        assert mix_tuple((1, 2), seed=0) != mix_tuple((1, 2), seed=1)

    def test_length_sensitive(self):
        assert mix_tuple((1,)) != mix_tuple((1, 0))


class TestHashFamily:
    def test_indices_in_range(self):
        family = HashFamily(m=5, n_bits=10)
        for fields in [(1, 2, 3), (6, 7, 8, 9, 10)]:
            for index in family.indices(fields):
                assert 0 <= index < 1024

    def test_m_indices_returned(self):
        family = HashFamily(m=7, n_bits=12)
        assert len(family.indices((1, 2, 3))) == 7

    def test_deterministic(self):
        family = HashFamily(m=3, n_bits=20)
        assert family.indices((6, 1, 2, 3)) == family.indices((6, 1, 2, 3))

    def test_distinct_keys_differ(self):
        family = HashFamily(m=3, n_bits=20)
        assert family.indices((6, 1, 2, 3)) != family.indices((6, 1, 2, 4))

    def test_seeds_give_different_families(self):
        a = HashFamily(m=3, n_bits=20, seed=1)
        b = HashFamily(m=3, n_bits=20, seed=2)
        assert a.indices((1, 2, 3)) != b.indices((1, 2, 3))

    def test_rejects_zero_hashes(self):
        with pytest.raises(ValueError):
            HashFamily(m=0, n_bits=10)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            HashFamily(m=3, n_bits=0)
        with pytest.raises(ValueError):
            HashFamily(m=3, n_bits=33)

    @pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
    def test_cells_distinct_while_m_at_most_n(self, n_bits):
        # h2 is odd, so h1 + i·h2 mod 2^n repeats only once i reaches 2^n:
        # counting deletion relies on a key's cells being distinct.
        size = 1 << n_bits
        rng = random.Random(n_bits)
        for m in range(1, size + 1):
            family = make_hash_family(m, size, seed=m)
            for _ in range(50):
                indices = family.indices((rng.getrandbits(32), rng.getrandbits(16)))
                assert len(set(indices)) == m

    def test_n_bit_truncation(self):
        # The paper: outputs exceeding n bits are truncated.
        family = HashFamily(m=8, n_bits=4)
        assert all(0 <= i < 16 for i in family.indices((9, 9, 9)))

    def test_uniformity(self):
        family = HashFamily(m=1, n_bits=16)
        rng = random.Random(7)
        samples = [
            family.indices((rng.getrandbits(32), rng.getrandbits(16)))[0]
            for _ in range(20000)
        ]
        chi2 = uniformity_chi2(samples, buckets=64)
        # 63 degrees of freedom; p=0.001 critical value ~ 103.
        assert chi2 < 110


class TestMakeHashFamily:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            make_hash_family(3, 1000)

    def test_size_to_bits(self):
        family = make_hash_family(3, 2 ** 20)
        assert family.n_bits == 20

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_hash_family(3, 0)


class TestUniformityChi2:
    def test_perfectly_uniform(self):
        samples = list(range(100)) * 10
        assert uniformity_chi2(samples, buckets=100) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniformity_chi2([], buckets=4)


@given(st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1), min_size=1, max_size=6))
@settings(max_examples=200)
def test_indices_always_in_range(fields):
    family = HashFamily(m=4, n_bits=14)
    assert all(0 <= index < 2 ** 14 for index in family.indices(fields))


@given(
    st.tuples(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=65535),
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.integers(min_value=0, max_value=65535),
    )
)
@settings(max_examples=200)
def test_hash_family_deterministic_property(fields):
    family = HashFamily(m=3, n_bits=20, seed=5)
    assert family.indices(fields) == family.indices(fields)


class TestDeriveSeed:
    """Per-stream RNG seed derivation (the generator's packet schedules)."""

    def test_regression_colliding_indices(self):
        # The old layout (seed << 20) ^ index collapses these two streams
        # onto one value — index 2**20 under seed 7 lands exactly on
        # index 0 under seed 6 — so both connections replayed the same
        # packet-schedule RNG.  derive_seed must keep them apart.
        assert (7 << 20) ^ 2 ** 20 == (6 << 20) ^ 0  # the collision itself
        assert derive_seed(7, 2 ** 20) != derive_seed(6, 0)
        assert (3 << 20) ^ (2 ** 21 + 5) == (1 << 20) ^ 5
        assert derive_seed(3, 2 ** 21 + 5) != derive_seed(1, 5)

    def test_colliding_indices_give_distinct_rng_streams(self):
        a = random.Random(derive_seed(7, 2 ** 20))
        b = random.Random(derive_seed(6, 0))
        assert [a.random() for _ in range(8)] != [b.random() for _ in range(8)]

    def test_injective_per_seed(self):
        seeds = {derive_seed(7, index) for index in range(5000)}
        assert len(seeds) == 5000
        large = {derive_seed(7, 2 ** 20 + index) for index in range(5000)}
        assert len(large) == 5000
        assert not seeds & large

    def test_deterministic(self):
        assert derive_seed(42, 17) == derive_seed(42, 17)


class TestHashIndexMemo:
    """LRU memo accounting: repeats are hits, firsts are misses."""

    def make(self, capacity=1 << 16):
        return HashIndexMemo(make_hash_family(3, 2 ** 14), capacity=capacity)

    def test_get_accounting(self):
        memo = self.make()
        key = (6, 1, 2, 3, 4)
        first = memo.get(key)
        assert (memo.hits, memo.misses) == (0, 1)
        assert memo.get(key) == first
        assert (memo.hits, memo.misses) == (1, 1)

    def test_get_many_credits_in_batch_repeats(self):
        # The PR-3 bug: misses were deduped before resolution, so a flow's
        # thousands of repeats inside one batch earned zero hits.
        memo = self.make()
        k1, k2 = (6, 1, 1, 2, 2), (6, 3, 3, 4, 4)
        memo.get_many([k1, k1, k2, k1, k2])
        assert (memo.hits, memo.misses) == (3, 2)

    def test_get_many_credits_cross_batch_reuse(self):
        memo = self.make()
        k1, k2 = (6, 1, 1, 2, 2), (6, 3, 3, 4, 4)
        memo.get_many([k1, k2])
        assert (memo.hits, memo.misses) == (0, 2)
        memo.get_many([k1, k2, k1])
        assert (memo.hits, memo.misses) == (3, 2)

    def test_get_many_matches_per_key_get_accounting(self):
        rng = random.Random(3)
        keys = [(6, rng.randrange(8), 1, rng.randrange(8), 2)
                for _ in range(200)]
        batched = self.make()
        batched_out = batched.get_many(keys)
        looped = self.make()
        looped_out = [looped.get(key) for key in keys]
        assert batched_out == looped_out
        assert (batched.hits, batched.misses) == (looped.hits, looped.misses)

    def test_get_many_survives_capacity_smaller_than_batch(self):
        memo = self.make(capacity=4)
        keys = [(6, index, 0, 0, 0) for index in range(16)]
        out = memo.get_many(keys)
        family = make_hash_family(3, 2 ** 14)
        assert out == [tuple(family.indices(key)) for key in keys]
        assert len(memo) <= 4


class TestVectorizedBatches:
    """numpy-vectorized indices_many is bit-identical to the scalar loop,
    on every key width and family size, and falls back cleanly."""

    @pytest.fixture(params=["numpy", "stdlib"])
    def np_mode(self, request, monkeypatch):
        import repro.net.table as table_mod
        if request.param == "numpy" and not table_mod.HAVE_NUMPY:
            pytest.skip("numpy not installed")
        monkeypatch.setattr(
            table_mod, "_use_numpy",
            request.param == "numpy" and table_mod.HAVE_NUMPY,
        )
        return request.param

    def keys(self, width, count=300, seed=3):
        rng = random.Random(seed)
        return [tuple(rng.randrange(2 ** 32) for _ in range(width))
                for _ in range(count)]

    @pytest.mark.parametrize("width", [4, 5])
    def test_indices_many_matches_scalar(self, np_mode, width):
        family = HashFamily(4, 14, seed=9)
        keys = self.keys(width)
        batched = family.indices_many(keys)
        assert batched == [tuple(family.indices(k)) for k in keys]

    @pytest.mark.parametrize("width", [4, 5])
    def test_base_hashes_many_matches_scalar(self, np_mode, width):
        # The batch's two base mixes (uint64 columns under numpy) equal
        # base_hashes key by key: each key's positions are rebuilt from
        # its scalar base hashes by h1 + i*(h2|1) mod 2**n.
        family = HashFamily(3, 20, seed=2)
        keys = self.keys(width)
        expected = []
        for key in keys:
            h1, h2 = family.base_hashes(key)
            expected.append(
                tuple((h1 + i * (h2 | 1)) & family.mask for i in range(3))
            )
        assert family.indices_many(keys) == expected

    def test_ragged_key_batch_falls_back(self, np_mode):
        # Mixed strict (5-field) and hole-punching (4-field) keys cannot
        # form a rectangular matrix; the scalar loop must kick in.
        family = HashFamily(4, 14, seed=9)
        keys = self.keys(5, count=40) + self.keys(4, count=40)
        assert family.indices_many(keys) == \
            [tuple(family.indices(k)) for k in keys]

    def test_small_batches_skip_numpy_setup(self, np_mode):
        family = HashFamily(4, 14, seed=9)
        keys = self.keys(5, count=8)  # below the vectorization threshold
        assert family.indices_many(keys) == \
            [tuple(family.indices(k)) for k in keys]

    def test_iterator_input_still_works(self, np_mode):
        family = HashFamily(4, 14, seed=9)
        keys = self.keys(5, count=100)
        assert family.indices_many(iter(keys)) == family.indices_many(keys)

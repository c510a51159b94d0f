"""Hash families for the bitmap filter.

The paper requires ``m`` hash functions that "should only output an n-bit
value.  An output that exceeds n-bit should be truncated."  We provide a
family built from double hashing (Kirsch & Mitzenmacher: two independent
base hashes combine into arbitrarily many), with two differently seeded
splitmix64 mixes of the key's fields as the bases.  Double hashing
preserves Bloom-filter false-positive asymptotics while costing two real
hash evaluations per key regardless of ``m`` — important because the
filter runs per packet.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Tuple

from repro.net.table import _numpy

#: 64-bit FNV-1a offset basis — also the seed (and hence the empty value)
#: of the replay layer's running verdict fingerprint.
FNV64_OFFSET = 0xCBF29CE484222325
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Odd 64-bit constants for the multiply-shift mixer (splitmix64 finalizer).
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a fast, well-distributed 64-bit mixer."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX_MUL1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX_MUL2) & _MASK64
    return value ^ (value >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Derive an independent per-stream RNG seed from ``(seed, index)``.

    The obvious ``(seed << k) ^ index`` layout collides as soon as
    ``index`` outgrows ``k`` bits — e.g. ``(7 << 20) ^ 2**20`` equals
    ``(6 << 20) ^ 0`` — silently reusing RNG streams across connections
    in large traces.  Running both inputs through the splitmix64 bijection
    keeps distinct ``index`` values collision-free under one ``seed`` and
    makes cross-seed collisions statistically negligible instead of
    structural.
    """
    return splitmix64(splitmix64(seed) ^ index)


def mix_tuple(fields: Sequence[int], seed: int = 0) -> int:
    """Hash a tuple of integers (socket-pair fields) to 64 bits.

    This is the hot path: the bitmap filter hashes four or five small
    integers per packet.  Avoiding byte-string construction keeps it cheap.
    """
    value = splitmix64(seed ^ 0x2545F4914F6CDD1D)
    for field in fields:
        value = splitmix64(value ^ field)
    return value


def _mix_tuple_np(np, columns, seed: int):
    """Vectorized :func:`mix_tuple` over uint64 field columns.

    ``columns`` is a 2-D uint64 array, one row per key.  Bit-identical to
    the scalar form: uint64 arithmetic wraps exactly like ``& _MASK64``,
    and XOR/shift/multiply commute with the truncation.
    """
    n = columns.shape[0]
    value = np.full(n, splitmix64(seed ^ 0x2545F4914F6CDD1D), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for column in range(columns.shape[1]):
            v = value ^ columns[:, column]
            v = (v + np.uint64(0x9E3779B97F4A7C15))
            v = (v ^ (v >> np.uint64(30))) * np.uint64(_MIX_MUL1)
            v = (v ^ (v >> np.uint64(27))) * np.uint64(_MIX_MUL2)
            value = v ^ (v >> np.uint64(31))
    return value


#: Below this many keys, numpy array setup costs more than it saves.
_NP_MIN_KEYS = 32


def _key_matrix(np, keys):
    """``keys`` as an (n, width) uint64 matrix, or None when ragged."""
    try:
        columns = np.asarray(keys, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        return None  # mixed key widths (strict + hole-punching) or non-ints
    if columns.ndim != 2:
        return None
    return columns


class HashFamily:
    """``m`` n-bit hash functions derived from two base hashes.

    ``indices(fields)`` returns the ``m`` bit positions for a key, each in
    ``[0, 2**n)``.  Functions are h_i(x) = h1(x) + i*h2(x) mod 2^n with h2
    forced odd so it is invertible modulo a power of two (all positions
    reachable).
    """

    def __init__(self, m: int, n_bits: int, seed: int = 0) -> None:
        if m <= 0:
            raise ValueError(f"need at least one hash function, got {m}")
        if not 1 <= n_bits <= 32:
            raise ValueError(f"n_bits out of range: {n_bits}")
        self.m = m
        self.n_bits = n_bits
        self.mask = (1 << n_bits) - 1
        self.seed = seed
        self._seed1 = splitmix64(seed)
        self._seed2 = splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5)

    def base_hashes(self, fields: Sequence[int]) -> Tuple[int, int]:
        """The two independent 64-bit base hashes of a key."""
        return mix_tuple(fields, self._seed1), mix_tuple(fields, self._seed2)

    def indices(self, fields: Sequence[int]) -> List[int]:
        """The m bit positions (n-bit truncated) for a key."""
        h1, h2 = self.base_hashes(fields)
        h2 |= 1  # odd => full-period stepping mod 2**n
        mask = self.mask
        return [(h1 + i * h2) & mask for i in range(self.m)]

    def indices_many(self, keys: Iterable[Sequence[int]]) -> List[Tuple[int, ...]]:
        """Batch form of :meth:`indices`: one call, many keys.

        Hoists the per-call setup (seeds, mask, range) out of the loop so
        columnar replay can hash a whole packet batch without re-paying
        Python call overhead per packet.  When numpy acceleration is on
        (:mod:`repro.net.table`'s switch) and the batch is rectangular,
        both base mixes and the double-hash stepping run as uint64 column
        arithmetic — bit-identical to the scalar loop, since uint64
        wraparound is exactly the ``& _MASK64`` truncation.  Returns one
        tuple of ``m`` bit positions per key, in input order.
        """
        if not isinstance(keys, (list, tuple)):
            keys = list(keys)
        m = self.m
        mask = self.mask
        seed1 = self._seed1
        seed2 = self._seed2
        np = _numpy() if len(keys) >= _NP_MIN_KEYS else None
        if np is not None:
            columns = _key_matrix(np, keys)
            if columns is not None:
                h1 = _mix_tuple_np(np, columns, seed1)
                h2 = _mix_tuple_np(np, columns, seed2) | np.uint64(1)
                steps_np = np.arange(m, dtype=np.uint64)
                with np.errstate(over="ignore"):
                    positions = (
                        h1[:, None] + steps_np[None, :] * h2[:, None]
                    ) & np.uint64(mask)
                return [tuple(row) for row in positions.tolist()]
        steps = range(m)
        out: List[Tuple[int, ...]] = []
        append = out.append
        for fields in keys:
            h1 = mix_tuple(fields, seed1)
            h2 = mix_tuple(fields, seed2) | 1
            append(tuple((h1 + i * h2) & mask for i in steps))
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"HashFamily(m={self.m}, n_bits={self.n_bits}, seed={self.seed})"


class HashIndexMemo:
    """Bounded LRU cache of key fields → hash-index tuples.

    Traffic is heavily flow-repetitive — a long transfer presents the same
    socket pair thousands of times — so the bitmap filter memoizes each
    distinct key's ``m`` bit positions and hashes it once while resident,
    on the per-packet and the batched path alike.
    The bound keeps worst-case memory flat under address-scanning traffic;
    eviction is least-recently-used so live flows stay resident.
    """

    def __init__(self, family: HashFamily, capacity: int = 1 << 16) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.family = family
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[int, ...], Tuple[int, ...]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fields: Tuple[int, ...]) -> Tuple[int, ...]:
        """The key's hash indices, computed at most once while resident."""
        entries = self._entries
        indices = entries.get(fields)
        if indices is not None:
            self.hits += 1
            entries.move_to_end(fields)
            return indices
        self.misses += 1
        indices = tuple(self.family.indices(fields))
        entries[fields] = indices
        if len(entries) > self.capacity:
            entries.popitem(last=False)
        return indices

    def get_many(self, keys: Sequence[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
        """Resolve a batch of keys, hashing the distinct misses via
        :meth:`HashFamily.indices_many` in one pass.

        Hit/miss accounting matches the per-key :meth:`get` loop exactly:
        a key's *first* occurrence in the batch is a miss when absent, and
        every repeat occurrence — in this batch or a later one — is a hit.
        (A previous version deduped misses before resolving them, so a
        flow's thousands of in-batch repeats were never credited and a
        whole-trace batch reported zero hits despite total reuse.)
        """
        entries = self._entries
        move = entries.move_to_end
        out: List[Tuple[int, ...]] = [()] * len(keys)
        missing: "OrderedDict[Tuple[int, ...], None]" = OrderedDict()
        hits = 0
        for position, key in enumerate(keys):
            indices = entries.get(key)
            if indices is not None:
                hits += 1
                move(key)
                out[position] = indices
            elif key in missing:
                hits += 1
            else:
                missing[key] = None
        self.hits += hits
        if missing:
            self.misses += len(missing)
            distinct = list(missing)
            for key, indices in zip(distinct, self.family.indices_many(distinct)):
                entries[key] = indices
            while len(entries) > self.capacity:
                entries.popitem(last=False)
            for position, key in enumerate(keys):
                if not out[position]:
                    indices = entries.get(key)
                    if indices is None:
                        # Evicted within this very batch (capacity smaller
                        # than the batch's distinct-key count); re-resolve
                        # through the accounted per-key path.
                        indices = self.get(key)
                    out[position] = indices
        return out

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


def make_hash_family(m: int, size: int, seed: int = 0) -> HashFamily:
    """Build a family of ``m`` hashes onto a table of ``size = 2**n`` bits.

    ``size`` must be a power of two, matching the paper's ``N = 2^n``.
    """
    if size <= 0 or size & (size - 1):
        raise ValueError(f"size must be a power of two, got {size}")
    return HashFamily(m, size.bit_length() - 1, seed=seed)


def uniformity_chi2(samples: Iterable[int], buckets: int) -> float:
    """Chi-square statistic of hash outputs against a uniform distribution.

    A helper for the test suite: values near ``buckets - 1`` (the degrees of
    freedom) indicate good uniformity.
    """
    counts = [0] * buckets
    total = 0
    for sample in samples:
        counts[sample % buckets] += 1
        total += 1
    if total == 0:
        raise ValueError("no samples")
    expected = total / buckets
    return sum((count - expected) ** 2 / expected for count in counts)

"""A fixed-size bit vector backed by a ``bytearray``.

Each column of the {k×N}-bitmap is one bit vector (paper Figure 7).  Bit
``i`` lives in byte ``i >> 3`` under mask ``1 << (i & 7)``: the
little-endian layout :meth:`BitVector.to_bytes` serializes, so snapshots
are the buffer itself.  A set or test is one O(1) byte operation, and
:meth:`BitVector.clear` is the paper's O(N) memset (section 5.2), done in
place so the bitmap's fused batch function (:mod:`repro.sim.kernels`)
can hold a vector's ``_buf`` across a rotation.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

_BYTE_POPCOUNT = bytes(bin(i).count("1") for i in range(256))

if hasattr(int, "bit_count"):  # pragma: no branch

    def popcount_bytes(data) -> int:
        """Number of set bits in a byte string."""
        return int.from_bytes(data, "little").bit_count()

else:  # pragma: no cover - exercised on Python 3.9 only

    def popcount_bytes(data) -> int:
        """Number of set bits in a byte string (per-byte table fallback)."""
        return _popcount_fallback(data)


def _popcount_fallback(data) -> int:
    """Per-byte table popcount, kept importable for tests/benchmarks."""
    return sum(data.translate(_BYTE_POPCOUNT))


class BitVector:
    """``size``-bit vector with set / test / clear and popcount."""

    __slots__ = ("size", "_buf")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._buf = bytearray((size + 7) // 8)

    def set(self, index: int) -> None:
        """Mark bit ``index`` as 1."""
        if not 0 <= index < self.size:
            raise IndexError(f"bit {index} out of range [0, {self.size})")
        self._buf[index >> 3] |= 1 << (index & 7)

    def set_many(self, indices: Iterable[int]) -> None:
        """Mark every index; nothing is marked when any is out of range."""
        if not isinstance(indices, (tuple, list)):
            indices = tuple(indices)
        size = self.size
        for index in indices:
            if not 0 <= index < size:
                raise IndexError(f"bit {index} out of range [0, {size})")
        buf = self._buf
        for index in indices:
            buf[index >> 3] |= 1 << (index & 7)

    def test(self, index: int) -> bool:
        """True when bit ``index`` is marked."""
        if not 0 <= index < self.size:
            raise IndexError(f"bit {index} out of range [0, {self.size})")
        return bool(self._buf[index >> 3] & (1 << (index & 7)))

    def test_all(self, indices: Iterable[int]) -> bool:
        """True when *every* index is marked (the Bloom membership test).

        Indices at or beyond ``size`` read as unmarked."""
        buf = self._buf
        size = self.size
        for index in indices:
            if index >= size:
                return False
            if index < 0:
                raise IndexError(f"bit {index} out of range [0, {size})")
            if not buf[index >> 3] & (1 << (index & 7)):
                return False
        return True

    def clear(self) -> None:
        """Reset every bit to zero in place (``b.rotate``'s per-vector wipe)."""
        self._buf[:] = bytes(len(self._buf))

    def popcount(self) -> int:
        """Number of marked bits — the ``b`` of Equation 2's ``U = b/N``."""
        return popcount_bytes(self._buf)

    @property
    def utilization(self) -> float:
        """Fraction of marked bits, ``U = b/N``."""
        return self.popcount() / self.size

    def copy(self) -> "BitVector":
        clone = BitVector(self.size)
        clone._buf[:] = self._buf
        return clone

    def union_update(self, other: "BitVector") -> None:
        if other.size != self.size:
            raise ValueError("size mismatch")
        merged = int.from_bytes(self._buf, "little") | int.from_bytes(other._buf, "little")
        self._buf[:] = merged.to_bytes(len(self._buf), "little")

    def to_bytes(self) -> bytes:
        """Little-endian byte serialization (for persistence/inspection)."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, data: bytes, size: int) -> "BitVector":
        vector = cls(size)
        value = int.from_bytes(data, "little")
        if value >> size:
            raise ValueError("data has bits beyond the declared size")
        vector._buf[:] = value.to_bytes(len(vector._buf), "little")
        return vector

    def iter_set_bits(self) -> Iterator[int]:
        """Yield the indices of marked bits in increasing order."""
        for position, byte in enumerate(self._buf):
            while byte:
                low = byte & -byte
                yield (position << 3) + low.bit_length() - 1
                byte ^= low

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.size == other.size and self._buf == other._buf

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.size, bytes(self._buf)))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover
        return f"BitVector(size={self.size}, popcount={self.popcount()})"


def vector_stats(vectors: List[BitVector]) -> dict:
    """Summarize a stack of bit vectors (used in reports and debugging)."""
    if not vectors:
        raise ValueError("no vectors")
    pops = [vector.popcount() for vector in vectors]
    return {
        "count": len(vectors),
        "size": vectors[0].size,
        "popcounts": pops,
        "max_utilization": max(pops) / vectors[0].size,
        "min_utilization": min(pops) / vectors[0].size,
    }

"""The two column types of the rotating filter core, each over a ``bytearray``.

Each column of the {k×N}-bitmap is one bit vector (paper Figure 7).  Bit
``i`` lives in byte ``i >> 3`` under mask ``1 << (i & 7)``: the
little-endian layout :meth:`BitVector.to_bytes` serializes, so snapshots
are the buffer itself.  A set or test is one O(1) byte operation, and
:meth:`BitVector.clear` is the paper's O(N) memset (section 5.2), done in
place so the bitmap's fused batch function (:mod:`repro.sim.kernels`)
can hold a vector's ``_buf`` across a rotation.

:class:`CounterVector` is the close-aware counting filter's column: the
same ``set_many`` / ``test_all`` / ``clear`` interface over 4-bit
saturating counters, plus ``remove_many`` (Fan et al.'s counting Bloom
filter, "Summary Cache", 1998).
"""

from __future__ import annotations

from typing import Dict, Iterable

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


_ZEROS: Dict[int, bytes] = {}


def _zeros(length: int) -> bytes:
    """One shared all-zero buffer per length: a column wipe copies it in
    place rather than allocating ``length`` fresh bytes per rotation."""
    zeros = _ZEROS.get(length)
    if zeros is None:
        zeros = _ZEROS[length] = bytes(length)
    return zeros


class BitVector:
    """``size``-bit vector with set_many / test_all / clear and popcount."""

    __slots__ = ("size", "_buf")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._buf = bytearray((size + 7) // 8)

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
        self._buf[:] = _zeros(len(self._buf))

    def popcount(self) -> int:
        """Number of marked bits — the ``b`` of Equation 2's ``U = b/N``."""
        return popcount_bytes(self._buf)

    @property
    def utilization(self) -> float:
        """Fraction of marked bits, ``U = b/N``."""
        return self.popcount() / self.size

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



#: Counters saturate at this value and stop changing (standard practice:
#: a saturated cell can never be safely decremented).
COUNTER_MAX = 15

#: Non-zero nibbles per byte value, for :attr:`CounterVector.utilization`.
_NONZERO_NIBBLES = bytes(((i & 0x0F) > 0) + ((i >> 4) > 0) for i in range(256))


class CounterVector:
    """``size`` 4-bit saturating counters, packed two per byte.

    Cell ``i`` is the low nibble of byte ``i >> 1`` when ``i`` is even and
    the high nibble when it is odd.  A cell counts as marked while it is
    non-zero, so :meth:`set_many` / :meth:`test_all` behave as a bit
    vector's do, and :meth:`remove_many` can take a marked key back out.
    ``added``, ``removed`` and ``saturations`` count calls and stuck cells
    since the last :meth:`clear`.
    """

    __slots__ = ("size", "_cells", "added", "removed", "saturations")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.size = size
        self._cells = bytearray(size // 2 + (size & 1))
        self.added = 0
        self.removed = 0
        self.saturations = 0

    def set_many(self, indices: Iterable[int]) -> None:
        """Increment every index's cell; a cell already at
        :data:`COUNTER_MAX` stays there and counts one saturation.
        Nothing changes when any index is out of range."""
        if not isinstance(indices, (tuple, list)):
            indices = tuple(indices)
        size = self.size
        for index in indices:
            if not 0 <= index < size:
                raise IndexError(f"cell {index} out of range [0, {size})")
        cells = self._cells
        for index in indices:
            position = index >> 1
            byte = cells[position]
            if (byte >> 4 if index & 1 else byte & 0x0F) < COUNTER_MAX:
                cells[position] = byte + (0x10 if index & 1 else 1)
            else:
                self.saturations += 1
        self.added += 1

    def remove_many(self, indices: Iterable[int]) -> bool:
        """Decrement every index's cell when all are non-zero; returns
        False (and changes nothing) otherwise.

        Saturated cells are left untouched — the standard safe rule, which
        can strand entries but never corrupts others.
        """
        if not isinstance(indices, (tuple, list)):
            indices = tuple(indices)
        if not self.test_all(indices):
            return False
        cells = self._cells
        for index in indices:
            position = index >> 1
            byte = cells[position]
            if (byte >> 4 if index & 1 else byte & 0x0F) < COUNTER_MAX:
                cells[position] = byte - (0x10 if index & 1 else 1)
        self.removed += 1
        return True

    def test_all(self, indices: Iterable[int]) -> bool:
        """True when *every* index's cell is non-zero.

        Indices at or beyond ``size`` read as zero."""
        cells = self._cells
        size = self.size
        for index in indices:
            if index >= size:
                return False
            if index < 0:
                raise IndexError(f"cell {index} out of range [0, {size})")
            byte = cells[index >> 1]
            if not (byte >> 4 if index & 1 else byte & 0x0F):
                return False
        return True

    def clear(self) -> None:
        """Zero every cell and the three counters, in place."""
        self._cells[:] = _zeros(len(self._cells))
        self.added = 0
        self.removed = 0
        self.saturations = 0

    @property
    def utilization(self) -> float:
        """Fraction of non-zero cells (the analogue of ``U = b/N``)."""
        return sum(self._cells.translate(_NONZERO_NIBBLES)) / self.size

    @property
    def memory_bytes(self) -> int:
        return len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"CounterVector(size={self.size}, added={self.added}, "
            f"removed={self.removed}, utilization={self.utilization:.4f})"
        )

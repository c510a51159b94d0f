"""The {k×N}-bitmap filter — the paper's core contribution (section 4).

Structure (Figure 7): ``k`` bit vectors of ``N = 2^n`` bits sharing ``m``
hash functions.

* **mark** (outbound packet): hash the outbound socket pair and set the
  resulting ``m`` bits in *all* ``k`` vectors (Algorithm 2, lines 1-5).
  A connection is hashed once while its key stays in the filter's
  bounded :class:`~repro.core.hashing.HashIndexMemo`.
* **look up** (inbound packet): hash the *inverse* of the inbound socket
  pair and test the bits in the *current* vector only (lines 6-15); a miss
  means the packet is dropped with probability ``P_d``.
* **clean up** (``b.rotate``, Algorithm 1): every ``Δt`` seconds advance the
  current index and wipe the vector it left behind.

Because a mark touches all vectors and the current vector is wiped last
(k rotations after the mark), a marked pair stays visible for between
``(k-1)·Δt`` and ``k·Δt`` seconds — the effective expiry timer
``T_e = k·Δt`` of section 4.3.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.bitvector import BitVector
from repro.core.hashing import HashIndexMemo, make_hash_family
from repro.net.packet import Direction, SocketPair


class FieldMode(enum.Enum):
    """Which socket-pair fields feed the hash functions.

    ``HOLE_PUNCHING`` (the paper's default suggestion) omits the *remote
    port*: outbound packets hash ``{protocol, source-address, source-port,
    destination-address}`` and inbound packets hash ``{protocol,
    destination-address, destination-port, source-address}``.  An outbound
    packet to peer P therefore opens the door for inbound packets from *any
    port* of P — which is exactly what NAT hole-punching needs.

    ``STRICT`` hashes the full five-tuple; only exact reverse-path packets
    match.  "The support to hole-punching can be enabled or disabled
    depending on the network administrator's choice."
    """

    STRICT = "strict"
    HOLE_PUNCHING = "hole-punching"


def socket_key(
    pair, direction: Direction, hole_punching: bool
) -> Tuple[int, ...]:
    """The key fields of a packet, as a plain tuple: the hash input of the
    bitmap and counting filters and the timer key of the naive one.

    For inbound packets the paper hashes the *inverse* pair, which in
    hole-punching mode is {protocol, destination-address,
    destination-port, source-address} of the inbound packet — i.e. the
    inner host's address/port plus the remote address.  Inbound pairs are
    inverted field by field, without building an inverse
    :class:`SocketPair`, so both directions yield the same
    outbound-oriented key; in hole-punching mode the remote port is
    omitted (see :class:`FieldMode`).
    """
    if direction is Direction.INBOUND:
        if hole_punching:
            return (pair[0], pair[3], pair[4], pair[1])
        return (pair[0], pair[3], pair[4], pair[1], pair[2])
    if hole_punching:
        return (pair[0], pair[1], pair[2], pair[3])
    return tuple(pair)


@dataclass
class BitmapFilterConfig:
    """Parameters of a bitmap filter (section 4.3 naming).

    The paper's evaluation configuration is the default: ``N = 2^20``,
    ``k = 4``, ``Δt = 5`` s (so ``T_e = 20`` s), ``m = 3``.
    """

    size: int = 2 ** 20  # N — bits per vector, must be a power of two
    vectors: int = 4  # k — number of bit vectors
    hashes: int = 3  # m — hash functions
    rotate_interval: float = 5.0  # Δt — seconds between b.rotate calls
    field_mode: FieldMode = FieldMode.STRICT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.size <= 0 or self.size & (self.size - 1):
            raise ValueError(f"N must be a power of two, got {self.size}")
        if self.vectors < 2:
            raise ValueError(f"need k >= 2 vectors, got {self.vectors}")
        if self.hashes < 1:
            raise ValueError(f"need m >= 1 hash functions, got {self.hashes}")
        if self.hashes > self.size:
            # h_i = h1 + i·h2 mod N with h2 odd repeats a cell only once
            # i reaches N: a key's m cells are distinct exactly when m <= N.
            raise ValueError(
                f"need m <= N so a key's cells are distinct, got "
                f"m={self.hashes}, N={self.size}"
            )
        if self.rotate_interval <= 0:
            raise ValueError(f"Δt must be positive, got {self.rotate_interval}")

    @property
    def expiry_time(self) -> float:
        """T_e = k·Δt — how long a marked pair is guaranteed-ish visible."""
        return self.vectors * self.rotate_interval

    @property
    def memory_bytes(self) -> int:
        """Total bitmap storage, ``k·N/8`` bytes (512 KiB at defaults)."""
        return self.vectors * self.size // 8


@dataclass
class BitmapFilterStats:
    """Operation counters, useful for reports and invariant tests."""

    outbound_marked: int = 0
    inbound_hits: int = 0
    inbound_misses: int = 0
    inbound_dropped: int = 0
    rotations: int = 0

    def as_dict(self) -> dict:
        return {
            "outbound_marked": self.outbound_marked,
            "inbound_hits": self.inbound_hits,
            "inbound_misses": self.inbound_misses,
            "inbound_dropped": self.inbound_dropped,
            "rotations": self.rotations,
        }

    def merge(self, other: "BitmapFilterStats") -> "BitmapFilterStats":
        """Accumulate another counter record into this one (in place)."""
        self.outbound_marked += other.outbound_marked
        self.inbound_hits += other.inbound_hits
        self.inbound_misses += other.inbound_misses
        self.inbound_dropped += other.inbound_dropped
        self.rotations += other.rotations
        return self

    def __add__(self, other: "BitmapFilterStats") -> "BitmapFilterStats":
        return BitmapFilterStats().merge(self).merge(other)


class BitmapFilter:
    """The {k×N}-bitmap filter state machine.

    This class is deliberately clock-free: callers drive rotation either
    directly (:meth:`rotate`) or by timestamp (:meth:`advance_to`), so the
    same object serves live operation, trace replay and unit tests.
    Dropping randomness comes from an injectable :class:`random.Random` for
    reproducibility.

    The class attribute :attr:`vector_type` is the column storage: any
    type with ``set_many`` / ``test_all`` / ``clear`` and ``utilization``.
    The close-aware counting filter's core is a subclass over
    :class:`~repro.core.bitvector.CounterVector` cells; clock, hashing,
    memo, coin and stats are this class's for both.
    """

    vector_type = BitVector

    def __init__(
        self,
        config: Optional[BitmapFilterConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config or BitmapFilterConfig()
        self.vectors = [
            self.vector_type(self.config.size) for _ in range(self.config.vectors)
        ]
        self.family = make_hash_family(
            self.config.hashes, self.config.size, seed=self.config.seed
        )
        #: Socket key → hash-indices LRU shared by the per-packet and the
        #: batched path; a pure function of the hash family, so it is not
        #: part of :meth:`snapshot` and survives :meth:`reset`.
        self.hash_memo = HashIndexMemo(self.family)
        self.idx = 0  # index of the *current* bit vector
        self.stats = BitmapFilterStats()
        self._rng = rng or random.Random(self.config.seed)
        self._next_rotation: Optional[float] = None
        # Rotation phase (offset of the schedule within Δt) carried over
        # from a restored snapshot; consumed by the first advance_to call.
        self._restored_phase: Optional[float] = None

    # ------------------------------------------------------------------
    # Algorithm 1 — b.rotate
    # ------------------------------------------------------------------

    def rotate(self, count: int = 1) -> int:
        """Advance the current index and wipe the vector it vacates.

        Returns the new current index, exactly as Algorithm 1 does.
        ``count`` runs that many rotations at once; a vector vacated more
        than once is wiped once, so any count costs at most k wipes.
        """
        k = self.config.vectors
        for step in range(min(count, k)):
            self.vectors[(self.idx + step) % k].clear()
        self.idx = (self.idx + count) % k
        self.stats.rotations += count
        return self.idx

    def advance_to(self, now: float) -> int:
        """Run however many rotations a wall-clock time implies.

        The first call anchors the rotation schedule; later calls perform
        ``floor((now - anchor)/Δt)`` pending rotations, wiping each vector
        at most once however long the gap.  Returns how many rotations
        ran.  Time never goes backwards; stale timestamps are
        ignored rather than raising, because replayed traces can carry
        slight reordering.

        After :meth:`restore` the schedule is re-anchored here: the first
        timestamp seen rebases the restored rotation *phase* onto the new
        clock, so a replay whose clock restarted near zero keeps rotating
        every Δt instead of waiting out the old-timestamp gap.
        """
        if self._next_rotation is None:
            interval = self.config.rotate_interval
            if self._restored_phase is not None:
                delta = (self._restored_phase - now) % interval
                self._next_rotation = now + (delta if delta > 0 else interval)
                self._restored_phase = None
            else:
                self._next_rotation = now + interval
            return 0
        interval = self.config.rotate_interval
        next_rotation = self._next_rotation
        ran = 0
        while now >= next_rotation:
            next_rotation += interval
            ran += 1
        if ran:
            self.rotate(ran)
            self._next_rotation = next_rotation
        return ran

    # ------------------------------------------------------------------
    # Algorithm 2 — b.filter
    # ------------------------------------------------------------------

    def mark_outbound(self, pair: SocketPair) -> None:
        """Record an outbound packet: set its bits in *all* vectors.

        ``vectors[idx - 1]`` was wiped last, so its bits are a subset of
        every vector's: when it already holds all m bits, so does every
        vector, and a bit vector skips the k writes that would change
        nothing.  Counter cells count every mark and are always written.
        """
        hole_punching = self.config.field_mode is FieldMode.HOLE_PUNCHING
        key = socket_key(pair, Direction.OUTBOUND, hole_punching)
        indices = self.hash_memo.get(key)
        vectors = self.vectors
        last_wiped = vectors[self.idx - 1]
        if self.vector_type is not BitVector or not last_wiped.test_all(indices):
            for vector in vectors:
                vector.set_many(indices)
        self.stats.outbound_marked += 1

    def lookup_inbound(self, pair: SocketPair) -> bool:
        """Test an inbound packet against the *current* vector only."""
        hole_punching = self.config.field_mode is FieldMode.HOLE_PUNCHING
        key = socket_key(pair, Direction.INBOUND, hole_punching)
        indices = self.hash_memo.get(key)
        hit = self.vectors[self.idx].test_all(indices)
        if hit:
            self.stats.inbound_hits += 1
        else:
            self.stats.inbound_misses += 1
        return hit

    def filter(
        self, pair: SocketPair, direction: Direction, drop_probability: float = 1.0
    ) -> bool:
        """The full b.filter decision: True = PASS, False = DROP.

        Outbound packets are marked and always pass.  Inbound packets that
        miss the current vector are dropped with ``drop_probability``
        (the paper's ``P_d``); in the paper's pseudocode the coin is
        tossed once per missing bit, but since one miss suffices to reach
        the coin and subsequent misses change nothing once dropped, a
        single toss per packet is behaviourally identical and cheaper.
        """
        if direction is Direction.OUTBOUND:
            self.mark_outbound(pair)
            return True
        if self.lookup_inbound(pair):
            return True
        return not self.drop(drop_probability)

    def drop(self, probability: float) -> bool:
        """Toss the ``P_d`` coin for an inbound miss: True = DROP.

        The draw is unguarded — any ``P_d`` below 1 consumes one RNG draw,
        even 0 — so both filters on this core keep their recorded streams.
        """
        if probability >= 1.0 or self._rng.random() < probability:
            self.stats.inbound_dropped += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def current_utilization(self) -> float:
        """U = b/N of the current vector (drives Equation 2)."""
        return self.vectors[self.idx].utilization

    def penetration_probability(self) -> float:
        """Measured p = U^m for a random (unmarked) inbound pair."""
        return self.current_utilization ** self.config.hashes

    def reset(self) -> None:
        """Clear all state (bits, index, schedule, stats)."""
        for vector in self.vectors:
            vector.clear()
        self.idx = 0
        self.stats = BitmapFilterStats()
        self._next_rotation = None
        self._restored_phase = None

    # ------------------------------------------------------------------
    # Persistence — restart the filter without losing the positive list
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Serializable filter state (config + bits + rotation clock + RNG).

        A router restart with a cold filter would drop every in-flight
        connection's return traffic for up to T_e seconds; restoring a
        snapshot avoids that.  The snapshot is plain data (ints/bytes),
        safe for json/pickle/msgpack as the deployment prefers.

        Rotation state is stored twice, for the two restart scenarios:

        * ``rotation_phase`` — the schedule's offset within Δt, for
          restoring onto a *new* clock (a fresh replay, a rebooted router
          whose epoch restarted): an absolute time far in the future would
          silently suppress rotation until the new clock caught up.
        * ``next_rotation`` — the absolute next-rotation time, for a warm
          restart that *continues the same clock* (the live service
          plane): rotations due in the snapshot→restart gap must still
          fire, and re-deriving the anchor from the phase would skip them.

        The drop RNG's state rides along (as plain ints) so a warm
        restart resumes the exact random sequence — without it, verdicts
        under a fractional ``P_d`` diverge from an uninterrupted run.
        """
        if self._next_rotation is not None:
            phase: Optional[float] = self._next_rotation % self.config.rotate_interval
        else:
            phase = self._restored_phase
        version, internal, gauss = self._rng.getstate()
        return {
            "size": self.config.size,
            "vectors": self.config.vectors,
            "hashes": self.config.hashes,
            "rotate_interval": self.config.rotate_interval,
            "field_mode": self.config.field_mode.value,
            "seed": self.config.seed,
            "idx": self.idx,
            "rotation_phase": phase,
            "next_rotation": self._next_rotation,
            "rng_state": [version, list(internal), gauss],
            "stats": self.stats.as_dict(),
            "bits": [vector.to_bytes() for vector in self.vectors],
        }

    @classmethod
    def restore(
        cls,
        snapshot: dict,
        rng: Optional[random.Random] = None,
        clock: str = "reanchor",
    ) -> "BitmapFilter":
        """Rebuild a filter from :meth:`snapshot` output.

        The hash seed is part of the snapshot — bits are meaningless under
        a different hash family.

        ``clock`` selects how the rotation schedule restarts:

        * ``"reanchor"`` (default) — keep only the phase within Δt; the
          first :meth:`advance_to` rebases the schedule onto the new
          clock.  Right for restoring old state into a replay or reboot
          whose timestamps restarted.
        * ``"resume"`` — keep the absolute next-rotation time; rotations
          that fell due between snapshot and restart fire on the next
          :meth:`advance_to`, exactly as an uninterrupted filter's would.
          Right for the warm-restart path of a live service whose clock
          (trace time or epoch time) continues.  Requires a snapshot
          carrying ``next_rotation``; older phase-only snapshots fall
          back to re-anchoring.

        When the snapshot carries the drop RNG's state and no explicit
        ``rng`` is given, the restored filter resumes the exact random
        sequence of the snapshotted one.
        """
        if clock not in ("reanchor", "resume"):
            raise ValueError(f"unknown restore clock mode: {clock!r}")
        config = BitmapFilterConfig(
            size=snapshot["size"],
            vectors=snapshot["vectors"],
            hashes=snapshot["hashes"],
            rotate_interval=snapshot["rotate_interval"],
            field_mode=FieldMode(snapshot["field_mode"]),
            seed=snapshot["seed"],
        )
        filt = cls(config, rng=rng)
        if len(snapshot["bits"]) != config.vectors:
            raise ValueError(
                f"snapshot has {len(snapshot['bits'])} vectors, config says "
                f"{config.vectors}"
            )
        filt.vectors = [
            BitVector.from_bytes(data, config.size) for data in snapshot["bits"]
        ]
        filt.idx = snapshot["idx"]
        if not 0 <= filt.idx < config.vectors:
            raise ValueError(f"snapshot index out of range: {filt.idx}")
        if rng is None and snapshot.get("rng_state") is not None:
            version, internal, gauss = snapshot["rng_state"]
            # JSON round-trips tuples as lists; setstate wants tuples back.
            filt._rng.setstate((version, tuple(internal), gauss))
        if snapshot.get("stats") is not None:
            filt.stats = BitmapFilterStats(**snapshot["stats"])
        absolute = snapshot.get("next_rotation")
        if clock == "resume" and absolute is not None:
            filt._next_rotation = absolute
            filt._restored_phase = None
            return filt
        if "rotation_phase" in snapshot:
            phase = snapshot["rotation_phase"]
        else:
            # Legacy snapshots stored only the absolute next-rotation time;
            # reduce it to its phase so old state restores correctly too.
            phase = None if absolute is None else absolute % config.rotate_interval
        filt._next_rotation = None
        filt._restored_phase = phase
        return filt

    def set_rotate_interval(self, interval: float, now: Optional[float] = None) -> None:
        """Live-reconfigure Δt, re-anchoring the rotation schedule.

        The next rotation fires one *new* interval after ``now`` (the last
        trace time the caller has seen); later rotations follow the new
        period.  An unanchored filter (no packet seen yet) simply adopts
        the new interval — its first :meth:`advance_to` anchors as usual.
        A pending restored phase is discarded: a phase expressed in old-Δt
        units is meaningless under the new period.
        """
        if interval <= 0:
            raise ValueError(f"Δt must be positive, got {interval}")
        self.config.rotate_interval = interval
        self._restored_phase = None
        if self._next_rotation is not None:
            if now is None:
                raise ValueError(
                    "an anchored rotation schedule needs `now` to re-anchor"
                )
            self._next_rotation = now + interval

    def __repr__(self) -> str:  # pragma: no cover
        cfg = self.config
        return (
            f"BitmapFilter(N=2^{cfg.size.bit_length() - 1}, k={cfg.vectors}, "
            f"m={cfg.hashes}, Δt={cfg.rotate_interval}, idx={self.idx})"
        )

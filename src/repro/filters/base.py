"""The packet-filter interface shared by SPI, naïve and bitmap filters."""

from __future__ import annotations

import enum
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict

from repro.net.packet import Direction, Packet
from repro.net.table import _numpy


class Verdict(enum.Enum):
    """Outcome of filtering one packet (Algorithm 2 returns PASS or DROP)."""

    PASS = "pass"
    DROP = "drop"


#: Per-row verdict codes of a batched replay (one byte per table row):
#: the filter dropped the row, passed it, or never saw it because the
#: blocked-σ store suppressed it first.
CODE_DROP, CODE_PASS, CODE_UNSEEN = 0, 1, 2


class SnapshotUnsupported(RuntimeError):
    """Raised when a filter cannot produce a faithful snapshot.

    A warm restart built on a lossy snapshot silently forgets flow
    tables, counters or RNG positions; refusing loudly is the only safe
    default for filters without explicit snapshot/restore hooks.
    """


def rng_state(rng: random.Random) -> list:
    """A ``random.Random`` state as JSON-safe data (version, words, gauss)."""
    version, internal, gauss = rng.getstate()
    return [version, list(internal), gauss]


def restore_rng_state(state) -> random.Random:
    """Rebuild a ``random.Random`` from :func:`rng_state` output."""
    version, internal, gauss = state
    rng = random.Random()
    rng.setstate((version, tuple(internal), gauss))
    return rng


def check_resume_clock(clock: str, name: str) -> None:
    """Reject restore clocks other than ``"resume"``.

    The bitmap filter's ``"reanchor"`` mode rebases a rotation *phase*;
    flow tables, bucket refill stamps and sliding-window samples keep
    absolute trace-time stamps with no phase to rebase, so restoring
    them onto a different clock would be a silent state loss.
    """
    if clock != "resume":
        raise ValueError(
            f"filter {name!r} snapshots can only be restored with "
            f"clock='resume', got {clock!r}"
        )


@dataclass
class FilterStats:
    """Per-direction pass/drop accounting for any filter."""

    passed: Dict[Direction, int] = field(
        default_factory=lambda: {Direction.OUTBOUND: 0, Direction.INBOUND: 0}
    )
    dropped: Dict[Direction, int] = field(
        default_factory=lambda: {Direction.OUTBOUND: 0, Direction.INBOUND: 0}
    )
    passed_bytes: Dict[Direction, int] = field(
        default_factory=lambda: {Direction.OUTBOUND: 0, Direction.INBOUND: 0}
    )
    dropped_bytes: Dict[Direction, int] = field(
        default_factory=lambda: {Direction.OUTBOUND: 0, Direction.INBOUND: 0}
    )

    def account(self, packet: Packet, verdict: Verdict) -> None:
        direction = packet.direction
        if direction is None:
            raise ValueError("packet has no direction set")
        if verdict is Verdict.PASS:
            self.passed[direction] += 1
            self.passed_bytes[direction] += packet.size
        else:
            self.dropped[direction] += 1
            self.dropped_bytes[direction] += packet.size

    def account_rows(self, sizes, outbound, codes) -> None:
        """Account a batch of rows: the batched twin of :meth:`account`.

        ``sizes`` and ``outbound`` are row columns and ``codes`` holds
        one verdict code per row; :data:`CODE_UNSEEN` rows never reached
        the filter and are not counted.  A table's buffer columns take
        numpy's ``bincount`` when :func:`~repro.net.table._numpy` returns
        it; list columns (the router's per-packet row accountant) and
        small tables take a plain loop.  Both give identical counters
        (the float64 byte sums are exact below 2**53 bytes).
        """
        np = _numpy() if len(codes) > 64 and not isinstance(sizes, list) else None
        if np is not None:
            slot = (np.frombuffer(outbound, dtype=np.int8) != 0) * 3 + np.frombuffer(
                codes, dtype=np.uint8
            )
            counts = np.bincount(slot, minlength=6).tolist()
            volume = np.bincount(
                slot, weights=np.frombuffer(sizes, dtype=np.int64), minlength=6
            ).astype(np.int64).tolist()
        else:
            counts = [0] * 6
            volume = [0] * 6
            for size, is_out, code in zip(sizes, outbound, codes):
                slot = code + 3 if is_out else code
                counts[slot] += 1
                volume[slot] += size
        for direction, base in ((Direction.INBOUND, 0), (Direction.OUTBOUND, 3)):
            self.passed[direction] += counts[base + CODE_PASS]
            self.passed_bytes[direction] += volume[base + CODE_PASS]
            self.dropped[direction] += counts[base + CODE_DROP]
            self.dropped_bytes[direction] += volume[base + CODE_DROP]

    @property
    def total(self) -> int:
        return sum(self.passed.values()) + sum(self.dropped.values())

    def drop_rate(self, direction: Direction = Direction.INBOUND) -> float:
        """Fraction of packets dropped in a direction (Figure 8's metric)."""
        seen = self.passed[direction] + self.dropped[direction]
        if seen == 0:
            return 0.0
        return self.dropped[direction] / seen

    def overall_drop_rate(self) -> float:
        if self.total == 0:
            return 0.0
        return sum(self.dropped.values()) / self.total

    def as_dict(self) -> dict:
        return {
            "passed_outbound": self.passed[Direction.OUTBOUND],
            "passed_inbound": self.passed[Direction.INBOUND],
            "dropped_outbound": self.dropped[Direction.OUTBOUND],
            "dropped_inbound": self.dropped[Direction.INBOUND],
            "inbound_drop_rate": self.drop_rate(Direction.INBOUND),
        }

    def snapshot(self) -> dict:
        """Full per-direction counters as plain JSON-safe data (unlike
        :meth:`as_dict`, which is a lossy report shape)."""
        return {
            "passed": {d.value: self.passed[d] for d in self.passed},
            "dropped": {d.value: self.dropped[d] for d in self.dropped},
            "passed_bytes": {d.value: self.passed_bytes[d] for d in self.passed_bytes},
            "dropped_bytes": {
                d.value: self.dropped_bytes[d] for d in self.dropped_bytes
            },
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "FilterStats":
        stats = cls()
        for name in ("passed", "dropped", "passed_bytes", "dropped_bytes"):
            counters = getattr(stats, name)
            for key, count in snapshot[name].items():
                counters[Direction(key)] = count
        return stats

    def merge(self, other: "FilterStats") -> "FilterStats":
        """Accumulate another stats record into this one (in place).

        Counters are pure sums, so merging per-worker stats from a
        partitioned replay is order-independent and exact.  Returns
        ``self`` so merges chain.
        """
        for direction in (Direction.OUTBOUND, Direction.INBOUND):
            self.passed[direction] += other.passed[direction]
            self.dropped[direction] += other.dropped[direction]
            self.passed_bytes[direction] += other.passed_bytes[direction]
            self.dropped_bytes[direction] += other.dropped_bytes[direction]
        return self

    def __add__(self, other: "FilterStats") -> "FilterStats":
        return FilterStats().merge(self).merge(other)


class PacketFilter(ABC):
    """A stateful packet filter at the edge of a client network.

    Subclasses implement :meth:`decide`; :meth:`process` wraps it with
    statistics, exact after every call — the entry point for direct
    callers and for the members of a chain or a sharded filter.  The
    router calls :meth:`decide` and counts its verdicts into ``stats``
    in batches (:meth:`FilterStats.account_rows`), so a routed filter's
    ``stats`` are exact whenever the router has folded its rows (see
    :class:`repro.sim.router.EdgeRouter`).  Filters receive packets in
    timestamp order; any internal timers are driven by packet timestamps
    (trace time), never wall-clock.
    """

    name = "filter"

    def __init__(self) -> None:
        self.stats = FilterStats()

    @abstractmethod
    def decide(self, packet: Packet) -> Verdict:
        """Return PASS or DROP for one packet, updating internal state."""

    def process(self, packet: Packet) -> Verdict:
        """Decide and account one packet."""
        verdict = self.decide(packet)
        self.stats.account(packet, verdict)
        return verdict

    def reset(self) -> None:
        """Forget all per-flow state and statistics."""
        self.stats = FilterStats()

    def snapshot(self) -> dict:
        """Full internal state as JSON-safe data, or raise.

        Filters that support exact warm restart override this (and a
        matching ``restore`` classmethod).  The default refuses rather
        than letting :class:`repro.service.FilterService` persist a
        snapshot that silently drops state.
        """
        raise SnapshotUnsupported(
            f"filter {self.name!r} ({type(self).__name__}) has no "
            "snapshot/restore hooks; a warm restart would lose its state"
        )


class AcceptAllFilter(PacketFilter):
    """Pass everything — the 'no filtering' control for comparisons."""

    name = "accept-all"

    def decide(self, packet: Packet) -> Verdict:
        return Verdict.PASS

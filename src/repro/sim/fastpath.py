"""Batched replay fast path.

The per-packet replay pipeline crosses four layers of Python dispatch
(``replay`` → ``EdgeRouter.forward`` → ``PacketFilter.process`` →
``BitmapFilter.filter``) per packet.  This module collapses the pipeline
into one fused loop over columnar arrays:

1. **Columnarize** — the packet stream becomes parallel arrays of
   timestamps, direction flags, sizes, and *precomputed* hash-index tuples
   (:meth:`HashFamily.indices_many` through a bounded
   :class:`HashIndexMemo` LRU, so repeated flows hash once).
2. **Work on the vectors' buffers** — the loop reads each
   :class:`BitVector`'s ``bytearray`` directly; each mark/test is a few
   O(1) byte operations, and rotation wipes a vector in place, so the
   references stay valid across rotations.
3. **Chunk between rotations** — rotation boundaries are the only
   ordering constraint the bitmap imposes, so everything inside one Δt
   window runs with all hot state in locals.

The fused loop reproduces the legacy path *exactly*: same verdict for
every packet, same :class:`BitmapFilterStats` / :class:`FilterStats`
counters, same blocklist contents, same throughput-series bins, and the
same RNG consumption order — ``benchmarks/bench_throughput.py`` and
``tests/sim/test_fastpath.py`` hold it to that.

Within the unified engine (:mod:`repro.sim.pipeline`) this is the
bitmap-specific implementation of the filter-verdict stage:
:class:`~repro.sim.pipeline.BatchedBackend` reaches it through
:meth:`EdgeRouter.process_batch` whenever :func:`supports_fastpath`
says the filter qualifies; other filters take the generic
:meth:`PacketFilter.process_batch` protocol instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.core.bitmap_filter import FieldMode
from repro.core.dropper import StaticDropPolicy
from repro.core.hashing import HashIndexMemo
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.net.packet import Direction, Packet
from repro.net.table import _numpy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.router import EdgeRouter


def socket_key(
    pair, direction: Direction, hole_punching: bool
) -> Tuple[int, ...]:
    """The hash-input fields of a packet, as a plain tuple.

    Mirrors :meth:`BitmapFilter._key_fields` without constructing an
    intermediate inverse :class:`SocketPair`: inbound packets are inverted
    field-by-field, and in hole-punching mode the remote port is omitted.
    """
    if direction is Direction.INBOUND:
        if hole_punching:
            return (pair[0], pair[3], pair[4], pair[1])
        return (pair[0], pair[3], pair[4], pair[1], pair[2])
    if hole_punching:
        return (pair[0], pair[1], pair[2], pair[3])
    return tuple(pair)


@dataclass
class PacketColumns:
    """A packet stream decomposed into parallel (columnar) arrays.

    ``indices`` holds each packet's precomputed bitmap positions; repeated
    flows share one tuple object via the memo, so memory stays close to
    one machine word per packet for flow-repetitive traffic.  ``packets``
    keeps the originals for the parts of the pipeline that are inherently
    per-packet (blocklist suppression).
    """

    timestamps: List[float]
    outbound: List[bool]
    sizes: List[int]
    indices: List[Tuple[int, ...]]
    packets: List[Packet]

    def __len__(self) -> int:
        return len(self.packets)

    @classmethod
    def from_packets(
        cls, packets: Sequence[Packet], flt: BitmapPacketFilter
    ) -> "PacketColumns":
        """Columnarize ``packets`` for ``flt``'s hash family / field mode."""
        hole = flt.core.config.field_mode is FieldMode.HOLE_PUNCHING
        inbound = Direction.INBOUND
        timestamps: List[float] = []
        outbound: List[bool] = []
        sizes: List[int] = []
        keys: List[Tuple[int, ...]] = []
        for packet in packets:
            direction = packet.direction
            if direction is None:
                raise ValueError("packet has no direction set")
            timestamps.append(packet.timestamp)
            outbound.append(direction is not inbound)
            sizes.append(packet.size)
            keys.append(socket_key(packet.pair, direction, hole))
        return cls(
            timestamps=timestamps,
            outbound=outbound,
            sizes=sizes,
            indices=flt.hash_memo.get_many(keys),
            packets=list(packets),
        )


def supports_fastpath(packet_filter) -> bool:
    """True when a fused batched kernel can replay this filter.

    Delegates to the kernel registry (:mod:`repro.sim.kernels`) and keys
    on the filter's **exact type**: a subclass of a registered filter may
    override per-packet hooks that a fused kernel would silently ignore,
    so unregistered subclasses report False and take the generic
    ``process_batch`` path instead.
    """
    from repro.sim.kernels import kernel_for  # local import: cycle guard

    return kernel_for(packet_filter) is not None


def process_packets_fast(
    router: "EdgeRouter", packets: Sequence[Packet]
) -> List[Verdict]:
    """The fused replay loop: blocklist + bitmap filter + accounting.

    Equivalent to ``[router.forward(p) for p in packets]`` for a router
    hosting a :class:`BitmapPacketFilter`, with every per-packet decision
    preserved in order — blocklist suppression interleaves with marking
    (a blocked connection's outbound packets must not mark), so the loop
    is fused rather than staged.
    """
    flt = router.filter
    if type(flt) is not BitmapPacketFilter:  # pragma: no cover - guarded by caller
        return [router.forward(packet) for packet in packets]
    columns = PacketColumns.from_packets(packets, flt)
    total = len(columns)
    router.packets += total
    verdicts: List[Verdict] = []
    if total == 0:
        return verdicts

    PASS, DROP = Verdict.PASS, Verdict.DROP
    timestamps = columns.timestamps
    outbound_flags = columns.outbound
    sizes = columns.sizes
    indices_seq = columns.indices
    originals = columns.packets

    core = flt.core
    bufs = [vector._buf for vector in core.vectors]
    rng_random = core._rng.random

    controller = flt.drop_controller
    record_upload = controller.meter.record
    # A static policy's P_d ignores the measured rate, so the per-packet
    # ``rate_bps`` call (a pure read: its lazy eviction never changes any
    # later reading) is skipped and the constant hoisted out of the loop.
    static_p: Optional[float] = (
        controller.policy.probability(0.0)
        if isinstance(controller.policy, StaticDropPolicy)
        else None
    )
    probability_at = controller.probability

    blocklist = router.blocklist
    suppress = blocklist.suppress if blocklist is not None else None

    offered_bins = router.offered._bins
    passed_bins = router.passed._bins
    series_interval = router.offered.interval
    offered_out = offered_bins[Direction.OUTBOUND]
    offered_in = offered_bins[Direction.INBOUND]
    passed_out = passed_bins[Direction.OUTBOUND]
    passed_in = passed_bins[Direction.INBOUND]
    drop_window = router.inbound_drops.window
    window_packets = router.inbound_drops._packets
    window_dropped = router.inbound_drops._dropped

    # Local FilterStats / BitmapFilterStats counters, flushed at the end.
    passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
    passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
    marked = hits = misses = bitmap_dropped = 0

    append = verdicts.append
    next_rotation = core._next_rotation
    current = bufs[core.idx]

    for position in range(total):
        now = timestamps[position]
        size = sizes[position]
        is_outbound = outbound_flags[position]

        bin_index = int(now / series_interval)
        if is_outbound:
            offered_out[bin_index] = offered_out.get(bin_index, 0) + size
        else:
            offered_in[bin_index] = offered_in.get(bin_index, 0) + size

        if suppress is not None and suppress(originals[position]):
            append(DROP)
            if not is_outbound:
                window_index = int(now / drop_window)
                window_packets[window_index] = window_packets.get(window_index, 0) + 1
                window_dropped[window_index] = window_dropped.get(window_index, 0) + 1
            continue

        # Rotation boundary — rare; the current vector moves on.
        if next_rotation is None or now >= next_rotation:
            core.advance_to(now)
            next_rotation = core._next_rotation
            current = bufs[core.idx]

        if is_outbound:
            for index in indices_seq[position]:
                byte = index >> 3
                bit = 1 << (index & 7)
                for buf in bufs:
                    buf[byte] |= bit
            marked += 1
            record_upload(now, size)
            passed_out_n += 1
            passed_out_b += size
            bin_index = int(now / series_interval)
            passed_out[bin_index] = passed_out.get(bin_index, 0) + size
            append(PASS)
            continue

        hit = True
        for index in indices_seq[position]:
            if not current[index >> 3] & (1 << (index & 7)):
                hit = False
                break
        if hit:
            hits += 1
            dropped = False
        else:
            misses += 1
            probability = static_p if static_p is not None else probability_at(now)
            if probability >= 1.0 or rng_random() < probability:
                bitmap_dropped += 1
                dropped = True
            else:
                dropped = False

        window_index = int(now / drop_window)
        window_packets[window_index] = window_packets.get(window_index, 0) + 1
        if dropped:
            window_dropped[window_index] = window_dropped.get(window_index, 0) + 1
            dropped_in_n += 1
            dropped_in_b += size
            if blocklist is not None:
                blocklist.block(originals[position].pair, now)
            append(DROP)
        else:
            passed_in_n += 1
            passed_in_b += size
            bin_index = int(now / series_interval)
            passed_in[bin_index] = passed_in.get(bin_index, 0) + size
            append(PASS)

    core_stats = core.stats
    core_stats.outbound_marked += marked
    core_stats.inbound_hits += hits
    core_stats.inbound_misses += misses
    core_stats.inbound_dropped += bitmap_dropped
    stats = flt.stats
    stats.passed[Direction.OUTBOUND] += passed_out_n
    stats.passed[Direction.INBOUND] += passed_in_n
    stats.dropped[Direction.OUTBOUND] += dropped_out_n
    stats.dropped[Direction.INBOUND] += dropped_in_n
    stats.passed_bytes[Direction.OUTBOUND] += passed_out_b
    stats.passed_bytes[Direction.INBOUND] += passed_in_b
    stats.dropped_bytes[Direction.OUTBOUND] += dropped_out_b
    stats.dropped_bytes[Direction.INBOUND] += dropped_in_b
    return verdicts


def process_table_fast(router: "EdgeRouter", table) -> List[Verdict]:
    """The fused replay loop over a :class:`~repro.net.table.PacketTable`.

    Produces exactly the verdicts, filter/bitmap stats, blocklist
    contents and RNG consumption of ``process_packets_fast(router,
    table.to_packets())`` — without materialising a single
    :class:`Packet`.  Interned ``pair_ids`` unlock flow-level caching the
    object loop cannot afford:

    * each flow is hashed at most **once per direction per table**
      (:meth:`PacketTable.seen_directions` + :meth:`HashIndexMemo.get_many`)
      instead of once per packet — so the memo's hit counter measures
      cross-chunk flow reuse here, not per-packet repeats;
    * an outbound flow **marks once per rotation window** — marking is
      idempotent while no vector rotates, so repeats skip the k×m bit
      loop (stats still count every packet);
    * an inbound flow that tested *hit* stays a hit until the next
      rotation — bits are only ever set within a window — so repeats
      skip the probe loop; misses always re-test (an intervening mark
      may flip them) and hits never consume RNG, keeping the stream's
      draw order intact;
    * the blocklist's canonical pair is computed once per flow, and its
      GC clock is inlined to a float compare per packet.
    """
    flt = router.filter
    if type(flt) is not BitmapPacketFilter:  # pragma: no cover - guarded by caller
        return [router.forward(view) for view in table.iter_views()]
    total = len(table)
    router.packets += total
    verdicts: List[Verdict] = []
    if total == 0:
        return verdicts

    # Per-flow hash indices: one key per (flow, direction) actually present.
    hole = flt.core.config.field_mode is FieldMode.HOLE_PUNCHING
    pairs = table.pairs
    seen = table.seen_directions()
    keys: List[Tuple[int, ...]] = []
    slots: List[int] = []  # pid << 1 | is_outbound
    for pid, bits in enumerate(seen):
        if not bits:
            continue
        pair = pairs[pid]
        if bits & 1:  # SEEN_OUTBOUND
            keys.append(socket_key(pair, Direction.OUTBOUND, hole))
            slots.append((pid << 1) | 1)
        if bits & 2:  # SEEN_INBOUND
            keys.append(socket_key(pair, Direction.INBOUND, hole))
            slots.append(pid << 1)
    idx_out: List[Tuple[int, ...]] = [()] * len(pairs)
    idx_in: List[Tuple[int, ...]] = [()] * len(pairs)
    for slot, indices in zip(slots, flt.hash_memo.get_many(keys)):
        if slot & 1:
            idx_out[slot >> 1] = indices
        else:
            idx_in[slot >> 1] = indices

    PASS, DROP = Verdict.PASS, Verdict.DROP

    core = flt.core
    bufs = [vector._buf for vector in core.vectors]
    rng_random = core._rng.random

    controller = flt.drop_controller
    record_upload = controller.meter.record
    static_p: Optional[float] = (
        controller.policy.probability(0.0)
        if isinstance(controller.policy, StaticDropPolicy)
        else None
    )
    probability_at = controller.probability

    blocklist = router.blocklist
    if blocklist is not None:
        blocked = blocklist._blocked
        retention = blocklist.retention
        gc_interval = blocklist._gc_interval
        next_gc = blocklist._next_gc
        canon_cache: List[Optional[object]] = [None] * len(pairs)
        supp_n = supp_b = 0
    else:
        blocked = None

    offered_bins = router.offered._bins
    passed_bins = router.passed._bins
    series_interval = router.offered.interval
    offered_out = offered_bins[Direction.OUTBOUND]
    offered_in = offered_bins[Direction.INBOUND]
    passed_out = passed_bins[Direction.OUTBOUND]
    passed_in = passed_bins[Direction.INBOUND]
    drop_window = router.inbound_drops.window
    window_packets = router.inbound_drops._packets
    window_dropped = router.inbound_drops._dropped

    passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
    passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
    marked = hits = misses = bitmap_dropped = 0

    append = verdicts.append
    next_rotation = core._next_rotation
    current = bufs[core.idx]

    # Rotation generation: flow caches are valid exactly while no vector
    # has rotated (bits only accumulate within a window).
    generation = 0
    marked_gen: dict = {}
    hit_gen: dict = {}
    marked_get = marked_gen.get
    hit_get = hit_gen.get

    # Series/window bin indices precomputed column-wise.  ``int(x)`` and
    # a float64→int64 cast both truncate toward zero, so the numpy path
    # is value-identical to the per-packet ``int(now / interval)``.
    timestamps = table.timestamps
    np = _numpy() if total > 64 else None
    if np is not None:
        ts_np = np.frombuffer(timestamps, dtype=np.float64)
        series_bins = (ts_np / series_interval).astype(np.int64).tolist()
        window_bins = (ts_np / drop_window).astype(np.int64).tolist()
    else:
        series_bins = [int(now / series_interval) for now in timestamps]
        window_bins = [int(now / drop_window) for now in timestamps]

    for now, size, is_out, pid, series_bin, window_index in zip(
        timestamps, table.sizes, table.outbound, table.pair_ids,
        series_bins, window_bins,
    ):
        if is_out:
            offered_out[series_bin] = offered_out.get(series_bin, 0) + size
        else:
            offered_in[series_bin] = offered_in.get(series_bin, 0) + size

        if blocked is not None:
            # Inlined BlockedConnectionStore._maybe_gc / suppress_fields.
            if retention is not None:
                if next_gc is None:
                    next_gc = now + gc_interval
                elif now >= next_gc:
                    next_gc = now + gc_interval
                    horizon = now - retention
                    for stale in [
                        entry for entry, stamped in blocked.items()
                        if stamped < horizon
                    ]:
                        del blocked[stale]
            canon = canon_cache[pid]
            if canon is None:
                canon = canon_cache[pid] = pairs[pid].canonical
            stamped = blocked.get(canon)
            if stamped is not None:
                if retention is not None and now - stamped > retention:
                    del blocked[canon]
                else:
                    blocked[canon] = now
                    supp_n += 1
                    supp_b += size
                    append(DROP)
                    if not is_out:
                        window_packets[window_index] = (
                            window_packets.get(window_index, 0) + 1
                        )
                        window_dropped[window_index] = (
                            window_dropped.get(window_index, 0) + 1
                        )
                    continue

        if next_rotation is None or now >= next_rotation:
            if core.advance_to(now):
                generation += 1
            next_rotation = core._next_rotation
            current = bufs[core.idx]

        if is_out:
            if marked_get(pid) != generation:
                marked_gen[pid] = generation
                for index in idx_out[pid]:
                    byte = index >> 3
                    bit = 1 << (index & 7)
                    for buf in bufs:
                        buf[byte] |= bit
            marked += 1
            record_upload(now, size)
            passed_out_n += 1
            passed_out_b += size
            passed_out[series_bin] = passed_out.get(series_bin, 0) + size
            append(PASS)
            continue

        if hit_get(pid) == generation:
            hit = True
        else:
            hit = True
            for index in idx_in[pid]:
                if not current[index >> 3] & (1 << (index & 7)):
                    hit = False
                    break
            if hit:
                hit_gen[pid] = generation
        if hit:
            hits += 1
            dropped = False
        else:
            misses += 1
            probability = static_p if static_p is not None else probability_at(now)
            if probability >= 1.0 or rng_random() < probability:
                bitmap_dropped += 1
                dropped = True
            else:
                dropped = False

        window_packets[window_index] = window_packets.get(window_index, 0) + 1
        if dropped:
            window_dropped[window_index] = window_dropped.get(window_index, 0) + 1
            dropped_in_n += 1
            dropped_in_b += size
            if blocked is not None:
                canon = canon_cache[pid]
                if canon is None:
                    canon = canon_cache[pid] = pairs[pid].canonical
                blocked[canon] = now
            append(DROP)
        else:
            passed_in_n += 1
            passed_in_b += size
            passed_in[series_bin] = passed_in.get(series_bin, 0) + size
            append(PASS)

    core_stats = core.stats
    core_stats.outbound_marked += marked
    core_stats.inbound_hits += hits
    core_stats.inbound_misses += misses
    core_stats.inbound_dropped += bitmap_dropped
    stats = flt.stats
    stats.passed[Direction.OUTBOUND] += passed_out_n
    stats.passed[Direction.INBOUND] += passed_in_n
    stats.dropped[Direction.OUTBOUND] += dropped_out_n
    stats.dropped[Direction.INBOUND] += dropped_in_n
    stats.passed_bytes[Direction.OUTBOUND] += passed_out_b
    stats.passed_bytes[Direction.INBOUND] += passed_in_b
    stats.dropped_bytes[Direction.OUTBOUND] += dropped_out_b
    stats.dropped_bytes[Direction.INBOUND] += dropped_in_b
    if blocklist is not None:
        blocklist._next_gc = next_gc
        blocklist.suppressed_packets += supp_n
        blocklist.suppressed_bytes += supp_b
    return verdicts


def fast_replay(packets, packet_filter, **kwargs):
    """Batched :func:`repro.sim.replay.replay` — same result, ≥3× faster.

    Convenience wrapper: ``replay(..., batched=True)``.
    """
    from repro.sim.replay import replay

    return replay(packets, packet_filter, batched=True, **kwargs)

"""Filter-kernel registry: fused columnar replay for every filter.

:mod:`repro.sim.fastpath` fused the router → filter → accounting pipeline
for the bitmap filter only; SPI, counting Bloom, token-bucket, RED and
chain replays still crossed four layers of per-packet Python dispatch.
This module generalizes the fused loop into a small registry:

* :func:`register_kernel` maps a *filter class* to a :class:`FilterKernel`
  — an object that replays a whole :class:`~repro.net.table.PacketTable`
  (or packet batch) through an :class:`~repro.sim.router.EdgeRouter` in
  one loop with all hot state in locals.
* :func:`kernel_for` is an **exact-type** lookup: a subclass of a
  registered filter — which may override ``decide``/``process_batch``
  hooks the fused loop would silently ignore — takes the generic
  :meth:`~repro.filters.base.PacketFilter.process_batch` path instead.
* The router's batch entry points consult the registry first and fall
  back to the generic stage-split batch (blocklist-free) or the
  per-packet loop, so unregistered filters lose nothing.

Every kernel honors the equivalence contract of the batched engine:
**bit-identical** verdicts in order, filter statistics, blocklist
contents, throughput/drop-window bins, and RNG consumption relative to
``[router.forward(p) for p in packets]``.  Blocklist suppression must
interleave with verdicts (a drop inside the batch blocks the
connection's later packets), so each kernel inlines the blocked-σ store
the way :func:`~repro.sim.fastpath.process_table_fast` does rather than
staging it.  The chain kernel is the one exception: member composition
over survivor subsets cannot interleave suppression, so with a blocklist
attached it declines (returns ``None``) and the router runs the exact
per-packet loop.

``tests/sim/test_kernels.py`` holds every registered kernel to the
contract across backends, worker counts, transports and seeds.
"""

from __future__ import annotations

from itertools import repeat
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.bitmap_filter import FieldMode
from repro.core.dropper import RedDropPolicy, StaticDropPolicy
from repro.filters.base import PacketFilter, Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter, _FlowState
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Direction, Packet
from repro.net.table import PacketTable, _numpy
from repro.sim.fastpath import (
    process_packets_fast,
    process_table_fast,
    socket_key,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.router import EdgeRouter

__all__ = [
    "FilterKernel",
    "KERNELS",
    "register_kernel",
    "kernel_for",
]


#: Exact filter type → kernel instance.  Keyed by ``type(flt)`` — never
#: by ``isinstance`` — so subclasses with overridden per-packet hooks
#: fall through to the generic path that honors their overrides.
KERNELS: Dict[type, "FilterKernel"] = {}


def register_kernel(*filter_types: type):
    """Class decorator: register one kernel instance for ``filter_types``.

    The decorated class is instantiated once; the same instance serves
    every filter of the registered types (kernels are stateless — all
    replay state lives in the filter and router they are handed).
    """

    def decorate(kernel_cls):
        kernel = kernel_cls()
        for filter_type in filter_types:
            KERNELS[filter_type] = kernel
        return kernel_cls

    return decorate


def kernel_for(packet_filter: PacketFilter) -> Optional["FilterKernel"]:
    """The registered kernel for this filter's **exact** type, or None."""
    return KERNELS.get(type(packet_filter))


class FilterKernel:
    """A fused batched replay implementation for one filter type.

    Three entry points, all bound by the equivalence contract:

    * :meth:`run_table` — replay a table through a router (offered /
      blocklist / filter / metrics all fused).  May return ``None`` when
      this router configuration cannot be fused (the router then falls
      back to its exact generic paths).
    * :meth:`run_packets` — same for a ``Sequence[Packet]``; the default
      columnarizes and delegates to :meth:`run_table`.
    * :meth:`filter_table` — filter-level only (verdicts + the filter's
      own statistics, no router accounting), used by the chain kernel to
      compose member kernels.  The default routes through the filter's
      :meth:`~repro.filters.base.PacketFilter.process_batch` protocol.
    """

    def run_table(self, router: "EdgeRouter", table) -> Optional[List[Verdict]]:
        raise NotImplementedError  # pragma: no cover - abstract

    def run_packets(
        self, router: "EdgeRouter", packets: Sequence[Packet]
    ) -> Optional[List[Verdict]]:
        return self.run_table(router, PacketTable.from_packets(packets))

    def filter_table(self, flt: PacketFilter, table) -> List[Verdict]:
        return flt.process_batch(table.to_packets())


# ----------------------------------------------------------------------
# Shared loop scaffolding
# ----------------------------------------------------------------------


def _bin_columns(timestamps, total: int, series_interval: float, drop_window: float):
    """Per-packet series/window bin indices, column-wise.

    ``int(x)`` and a float64→int64 cast both truncate toward zero, so the
    numpy path is value-identical to the per-packet ``int(now / interval)``.
    """
    np = _numpy() if total > 64 else None
    if np is not None:
        ts_np = np.frombuffer(timestamps, dtype=np.float64)
        return (
            (ts_np / series_interval).astype(np.int64).tolist(),
            (ts_np / drop_window).astype(np.int64).tolist(),
        )
    return (
        [int(now / series_interval) for now in timestamps],
        [int(now / drop_window) for now in timestamps],
    )


def _flush_stats(stats, passed_out_n, passed_in_n, dropped_out_n, dropped_in_n,
                 passed_out_b, passed_in_b, dropped_out_b, dropped_in_b) -> None:
    """Fold a loop's local FilterStats counters back into the filter."""
    stats.passed[Direction.OUTBOUND] += passed_out_n
    stats.passed[Direction.INBOUND] += passed_in_n
    stats.dropped[Direction.OUTBOUND] += dropped_out_n
    stats.dropped[Direction.INBOUND] += dropped_in_n
    stats.passed_bytes[Direction.OUTBOUND] += passed_out_b
    stats.passed_bytes[Direction.INBOUND] += passed_in_b
    stats.dropped_bytes[Direction.OUTBOUND] += dropped_out_b
    stats.dropped_bytes[Direction.INBOUND] += dropped_in_b


# ----------------------------------------------------------------------
# Bitmap — delegates to the original fused loops in repro.sim.fastpath
# ----------------------------------------------------------------------


@register_kernel(BitmapPacketFilter)
class BitmapKernel(FilterKernel):
    """The paper's filter: in-place byte vectors, rotation-window caches."""

    def run_table(self, router: "EdgeRouter", table) -> List[Verdict]:
        return process_table_fast(router, table)

    def run_packets(
        self, router: "EdgeRouter", packets: Sequence[Packet]
    ) -> List[Verdict]:
        # The object-path fused loop keeps the memo's per-packet hit
        # accounting; converting to a table here would change it.
        return process_packets_fast(router, packets)


# ----------------------------------------------------------------------
# SPI — exact per-flow state table, fused
# ----------------------------------------------------------------------


def _spi_replay(flt: SPIFilter, table, router) -> List[Verdict]:
    """Fused SPI replay over a table; ``router=None`` = filter-level only.

    Inlines :meth:`SPIFilter.decide` (GC clock, flow install/refresh,
    TCP close tracking, the guarded ``P_d`` draw) plus — when a router is
    given — offered/passed bins, drop windows and the blocked-σ store.
    The canonical pair doubles as both the SPI flow key and the blocklist
    key, so it is computed once per interned flow.
    """
    total = len(table)
    verdicts: List[Verdict] = []
    if router is not None:
        router.packets += total
    if total == 0:
        return verdicts

    PASS, DROP = Verdict.PASS, Verdict.DROP
    pairs = table.pairs
    n_pairs = len(pairs)
    canon_keys: List[Optional[object]] = [None] * n_pairs
    tcp_flags = bytearray(n_pairs)

    flow_table = flt._table
    flow_get = flow_table.get
    flow_pop = flow_table.pop
    peak_flows = flt.peak_flows
    rng_random = flt._rng.random
    controller = flt.drop_controller
    record_upload = controller.meter.record
    static_p: Optional[float] = (
        controller.policy.probability(0.0)
        if isinstance(controller.policy, StaticDropPolicy)
        else None
    )
    probability_at = controller.probability
    idle = flt.idle_timeout
    time_wait = flt.time_wait
    gc_interval = flt._gc_interval
    next_gc = flt._next_gc

    passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
    passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
    append = verdicts.append

    has_router = router is not None
    blocked = None
    if has_router:
        offered_bins = router.offered._bins
        passed_bins = router.passed._bins
        offered_out = offered_bins[Direction.OUTBOUND]
        offered_in = offered_bins[Direction.INBOUND]
        passed_out = passed_bins[Direction.OUTBOUND]
        passed_in = passed_bins[Direction.INBOUND]
        window_packets = router.inbound_drops._packets
        window_dropped = router.inbound_drops._dropped
        series_bins, window_bins = _bin_columns(
            table.timestamps, total, router.offered.interval,
            router.inbound_drops.window,
        )
        blocklist = router.blocklist
        if blocklist is not None:
            blocked = blocklist._blocked
            retention = blocklist.retention
            bl_gc_interval = blocklist._gc_interval
            bl_next_gc = blocklist._next_gc
            supp_n = supp_b = 0
    else:
        series_bins = window_bins = repeat(0)

    for now, size, is_out, pid, fl, series_bin, window_index in zip(
        table.timestamps, table.sizes, table.outbound, table.pair_ids,
        table.flags, series_bins, window_bins,
    ):
        if has_router:
            if is_out:
                offered_out[series_bin] = offered_out.get(series_bin, 0) + size
            else:
                offered_in[series_bin] = offered_in.get(series_bin, 0) + size
            if blocked is not None:
                # Inlined BlockedConnectionStore._maybe_gc / suppress_fields.
                if retention is not None:
                    if bl_next_gc is None:
                        bl_next_gc = now + bl_gc_interval
                    elif now >= bl_next_gc:
                        bl_next_gc = now + bl_gc_interval
                        horizon = now - retention
                        for stale in [
                            entry for entry, stamped in blocked.items()
                            if stamped < horizon
                        ]:
                            del blocked[stale]
                canon = canon_keys[pid]
                if canon is None:
                    canon = canon_keys[pid] = pairs[pid].canonical
                    tcp_flags[pid] = 1 if canon[0] == IPPROTO_TCP else 0
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

        # Inlined SPIFilter._maybe_gc.
        if next_gc is None:
            next_gc = now + gc_interval
        elif now >= next_gc:
            next_gc = now + gc_interval
            for stale_key in [
                key for key, state in flow_table.items()
                if (now > state.expires_at if state.expires_at is not None
                    else now - state.last_seen > idle)
            ]:
                del flow_table[stale_key]

        key = canon_keys[pid]
        if key is None:
            key = canon_keys[pid] = pairs[pid].canonical
            tcp_flags[pid] = 1 if key[0] == IPPROTO_TCP else 0

        if is_out:
            state = flow_get(key)
            if state is None or (fl & 0x02 and not fl & 0x10):
                # New flow, or a fresh SYN reusing a five-tuple.
                state = _FlowState(now)
                flow_table[key] = state
                if len(flow_table) > peak_flows:
                    peak_flows = len(flow_table)
            else:
                state.last_seen = now
            if tcp_flags[pid]:
                if fl & 0x04:  # RST: abortive close
                    flow_pop(key, None)
                elif fl & 0x01:  # FIN
                    state.fin_fwd = True
                    if state.fin_rev:
                        state.expires_at = now + time_wait
            record_upload(now, size)
            passed_out_n += 1
            passed_out_b += size
            if has_router:
                passed_out[series_bin] = passed_out.get(series_bin, 0) + size
            append(PASS)
            continue

        state = flow_get(key)
        if state is not None:
            expires_at = state.expires_at
            if (now <= expires_at if expires_at is not None
                    else now - state.last_seen <= idle):
                state.last_seen = now
                if tcp_flags[pid]:
                    if fl & 0x04:
                        flow_pop(key, None)
                    elif fl & 0x01:
                        state.fin_rev = True
                        if state.fin_fwd:
                            state.expires_at = now + time_wait
                passed_in_n += 1
                passed_in_b += size
                if has_router:
                    window_packets[window_index] = (
                        window_packets.get(window_index, 0) + 1
                    )
                    passed_in[series_bin] = passed_in.get(series_bin, 0) + size
                append(PASS)
                continue
            del flow_table[key]
        probability = static_p if static_p is not None else probability_at(now)
        if probability >= 1.0 or (probability > 0.0 and rng_random() < probability):
            dropped_in_n += 1
            dropped_in_b += size
            if has_router:
                window_packets[window_index] = window_packets.get(window_index, 0) + 1
                window_dropped[window_index] = window_dropped.get(window_index, 0) + 1
                if blocked is not None:
                    blocked[key] = now  # the SPI key *is* the canonical pair
            append(DROP)
        else:
            passed_in_n += 1
            passed_in_b += size
            if has_router:
                window_packets[window_index] = window_packets.get(window_index, 0) + 1
                passed_in[series_bin] = passed_in.get(series_bin, 0) + size
            append(PASS)

    flt._next_gc = next_gc
    flt.peak_flows = peak_flows
    _flush_stats(flt.stats, passed_out_n, passed_in_n, dropped_out_n,
                 dropped_in_n, passed_out_b, passed_in_b, dropped_out_b,
                 dropped_in_b)
    if blocked is not None:
        blocklist._next_gc = bl_next_gc
        blocklist.suppressed_packets += supp_n
        blocklist.suppressed_bytes += supp_b
    return verdicts


@register_kernel(SPIFilter)
class SPIKernel(FilterKernel):
    """Exact per-flow SPI state, fused (first batched SPI replay)."""

    def run_table(self, router: "EdgeRouter", table) -> List[Verdict]:
        return _spi_replay(router.filter, table, router)

    def filter_table(self, flt: SPIFilter, table) -> List[Verdict]:
        return _spi_replay(flt, table, None)


# ----------------------------------------------------------------------
# Counting Bloom — rotating 4-bit columns with close-aware deletion
# ----------------------------------------------------------------------


def _counting_replay(flt: CountingBitmapFilter, table, router) -> List[Verdict]:
    """Fused counting-Bloom replay; ``router=None`` = filter-level only.

    Hashes each flow at most once per direction per table
    (:meth:`PacketTable.seen_directions` + :meth:`HashFamily.indices_many`
    — all columns share one hash geometry), then runs the 4-bit nibble
    arithmetic directly on the columns' cell bytearrays.  Per-column
    ``added``/``saturations`` counters are staged locally and flushed
    *before* every rotation so the vacated column's ``clear()`` zeroes
    exactly what the per-packet path would have zeroed.  Deletion
    (FIN/RST) is rare and runs inline against the staged cells, reusing
    the flow's cached indices instead of re-hashing.
    """
    total = len(table)
    verdicts: List[Verdict] = []
    if router is not None:
        router.packets += total
    if total == 0:
        return verdicts

    PASS, DROP = Verdict.PASS, Verdict.DROP
    config = flt.config
    k = config.vectors
    hole = config.field_mode is FieldMode.HOLE_PUNCHING
    pairs = table.pairs
    n_pairs = len(pairs)

    # One hash per (flow, direction) actually present in the table.
    seen = table.seen_directions()
    keys: List[Tuple[int, ...]] = []
    slots: List[int] = []  # pid << 1 | is_outbound
    tcp_flags = bytearray(n_pairs)
    for pid, bits in enumerate(seen):
        if not bits:
            continue
        pair = pairs[pid]
        if pair[0] == IPPROTO_TCP:
            tcp_flags[pid] = 1
        if bits & 1:  # SEEN_OUTBOUND
            keys.append(socket_key(pair, Direction.OUTBOUND, hole))
            slots.append((pid << 1) | 1)
        if bits & 2:  # SEEN_INBOUND
            keys.append(socket_key(pair, Direction.INBOUND, hole))
            slots.append(pid << 1)
    key_out: List[Optional[Tuple[int, ...]]] = [None] * n_pairs
    key_in: List[Optional[Tuple[int, ...]]] = [None] * n_pairs
    idx_out: List[Tuple[int, ...]] = [()] * n_pairs
    idx_in: List[Tuple[int, ...]] = [()] * n_pairs
    columns = flt.columns
    for slot, key, indices in zip(
        slots, keys, columns[0].family.indices_many(keys)
    ):
        if slot & 1:
            key_out[slot >> 1] = key
            idx_out[slot >> 1] = indices
        else:
            key_in[slot >> 1] = key
            idx_in[slot >> 1] = indices

    cells_list = [column._cells for column in columns]
    half_closed = flt._half_closed
    rng_random = flt._rng.random
    controller = flt.drop_controller
    record_upload = controller.meter.record
    static_p: Optional[float] = (
        controller.policy.probability(0.0)
        if isinstance(controller.policy, StaticDropPolicy)
        else None
    )
    probability_at = controller.probability
    next_rotation = flt._next_rotation
    current_cells = cells_list[flt.idx]

    # Staged per-column counters (rotation clears the vacated column's,
    # so they must be flushed before every advance_to call).
    added = [0] * k
    saturations = [0] * k
    deleted = 0

    def flush_counts() -> None:
        for position in range(k):
            if added[position]:
                columns[position].added += added[position]
                added[position] = 0
            if saturations[position]:
                columns[position].saturations += saturations[position]
                saturations[position] = 0

    def delete_key(indices: Tuple[int, ...]) -> None:
        # CountingBitmapFilter._delete + CountingBloomFilter.remove,
        # reusing the cached indices: decrement until the key stops
        # testing positive in each column (saturated cells untouched).
        nonlocal deleted
        for column, cells in zip(columns, cells_list):
            for _ in range(16):
                member = True
                for index in indices:
                    byte = cells[index >> 1]
                    if not (byte >> 4 if index & 1 else byte & 0x0F):
                        member = False
                        break
                if not member:
                    break
                for index in indices:
                    position = index >> 1
                    byte = cells[position]
                    if index & 1:
                        count = byte >> 4
                        if count < 15:
                            cells[position] = (byte & 0x0F) | ((count - 1) << 4)
                    else:
                        count = byte & 0x0F
                        if count < 15:
                            cells[position] = (byte & 0xF0) | (count - 1)
                column.removed += 1
        deleted += 1

    passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
    passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
    append = verdicts.append

    has_router = router is not None
    blocked = None
    if has_router:
        offered_bins = router.offered._bins
        passed_bins = router.passed._bins
        offered_out = offered_bins[Direction.OUTBOUND]
        offered_in = offered_bins[Direction.INBOUND]
        passed_out = passed_bins[Direction.OUTBOUND]
        passed_in = passed_bins[Direction.INBOUND]
        window_packets = router.inbound_drops._packets
        window_dropped = router.inbound_drops._dropped
        series_bins, window_bins = _bin_columns(
            table.timestamps, total, router.offered.interval,
            router.inbound_drops.window,
        )
        blocklist = router.blocklist
        if blocklist is not None:
            blocked = blocklist._blocked
            retention = blocklist.retention
            bl_gc_interval = blocklist._gc_interval
            bl_next_gc = blocklist._next_gc
            canon_cache: List[Optional[object]] = [None] * n_pairs
            supp_n = supp_b = 0
    else:
        series_bins = window_bins = repeat(0)

    for now, size, is_out, pid, fl, series_bin, window_index in zip(
        table.timestamps, table.sizes, table.outbound, table.pair_ids,
        table.flags, series_bins, window_bins,
    ):
        if has_router:
            if is_out:
                offered_out[series_bin] = offered_out.get(series_bin, 0) + size
            else:
                offered_in[series_bin] = offered_in.get(series_bin, 0) + size
            if blocked is not None:
                if retention is not None:
                    if bl_next_gc is None:
                        bl_next_gc = now + bl_gc_interval
                    elif now >= bl_next_gc:
                        bl_next_gc = now + bl_gc_interval
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

        # CountingBitmapFilter.advance_to — rare; staged counters must
        # land before rotate() clears the vacated column.
        if next_rotation is None or now >= next_rotation:
            flush_counts()
            flt.advance_to(now)
            next_rotation = flt._next_rotation
            current_cells = cells_list[flt.idx]

        if is_out:
            indices = idx_out[pid]
            for position in range(k):
                cells = cells_list[position]
                sat = 0
                for index in indices:
                    byte_pos = index >> 1
                    byte = cells[byte_pos]
                    if index & 1:
                        count = byte >> 4
                        if count < 15:
                            cells[byte_pos] = (byte & 0x0F) | ((count + 1) << 4)
                        else:
                            sat += 1
                    else:
                        count = byte & 0x0F
                        if count < 15:
                            cells[byte_pos] = (byte & 0xF0) | (count + 1)
                        else:
                            sat += 1
                added[position] += 1
                if sat:
                    saturations[position] += sat
            record_upload(now, size)
            if tcp_flags[pid]:
                if fl & 0x04:  # RST
                    delete_key(indices)
                    half_closed.pop(key_out[pid], None)
                elif fl & 0x01:  # FIN
                    key = key_out[pid]
                    if key in half_closed:
                        del half_closed[key]
                        delete_key(indices)
                    else:
                        half_closed[key] = now
            passed_out_n += 1
            passed_out_b += size
            if has_router:
                passed_out[series_bin] = passed_out.get(series_bin, 0) + size
            append(PASS)
            continue

        indices = idx_in[pid]
        hit = True
        for index in indices:
            byte = current_cells[index >> 1]
            if not (byte >> 4 if index & 1 else byte & 0x0F):
                hit = False
                break
        if hit:
            if tcp_flags[pid]:
                if fl & 0x04:
                    delete_key(indices)
                    half_closed.pop(key_in[pid], None)
                elif fl & 0x01:
                    key = key_in[pid]
                    if key in half_closed:
                        del half_closed[key]
                        delete_key(indices)
                    else:
                        half_closed[key] = now
            passed_in_n += 1
            passed_in_b += size
            if has_router:
                window_packets[window_index] = window_packets.get(window_index, 0) + 1
                passed_in[series_bin] = passed_in.get(series_bin, 0) + size
            append(PASS)
            continue
        probability = static_p if static_p is not None else probability_at(now)
        # Unguarded draw — the counting filter's historical consumption
        # order draws even at P_d = 0 (unlike SPI/RED's guarded form);
        # the kernel reproduces it draw-for-draw.
        if probability >= 1.0 or rng_random() < probability:
            dropped_in_n += 1
            dropped_in_b += size
            if has_router:
                window_packets[window_index] = window_packets.get(window_index, 0) + 1
                window_dropped[window_index] = window_dropped.get(window_index, 0) + 1
                if blocked is not None:
                    canon = canon_cache[pid]
                    if canon is None:
                        canon = canon_cache[pid] = pairs[pid].canonical
                    blocked[canon] = now
            append(DROP)
        else:
            passed_in_n += 1
            passed_in_b += size
            if has_router:
                window_packets[window_index] = window_packets.get(window_index, 0) + 1
                passed_in[series_bin] = passed_in.get(series_bin, 0) + size
            append(PASS)

    flush_counts()
    flt.deleted_on_close += deleted
    _flush_stats(flt.stats, passed_out_n, passed_in_n, dropped_out_n,
                 dropped_in_n, passed_out_b, passed_in_b, dropped_out_b,
                 dropped_in_b)
    if blocked is not None:
        blocklist._next_gc = bl_next_gc
        blocklist.suppressed_packets += supp_n
        blocklist.suppressed_bytes += supp_b
    return verdicts


@register_kernel(CountingBitmapFilter)
class CountingKernel(FilterKernel):
    """Rotating counting-Bloom columns with close-aware deletion, fused."""

    def run_table(self, router: "EdgeRouter", table) -> List[Verdict]:
        return _counting_replay(router.filter, table, router)

    def filter_table(self, flt: CountingBitmapFilter, table) -> List[Verdict]:
        return _counting_replay(flt, table, None)


# ----------------------------------------------------------------------
# Token bucket — three floats of state
# ----------------------------------------------------------------------


def _token_bucket_replay(flt: TokenBucketFilter, table, router) -> List[Verdict]:
    """Fused token-bucket replay; ``router=None`` = filter-level only."""
    total = len(table)
    verdicts: List[Verdict] = []
    if router is not None:
        router.packets += total
    if total == 0:
        return verdicts

    PASS, DROP = Verdict.PASS, Verdict.DROP
    pairs = table.pairs
    bucket = flt.bucket
    rate = bucket.rate
    burst = bucket.burst
    tokens = bucket._tokens
    last = bucket._last
    policed_out = 1 if flt.direction is Direction.OUTBOUND else 0

    passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
    passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
    append = verdicts.append

    has_router = router is not None
    blocked = None
    if has_router:
        offered_bins = router.offered._bins
        passed_bins = router.passed._bins
        offered_out = offered_bins[Direction.OUTBOUND]
        offered_in = offered_bins[Direction.INBOUND]
        passed_out = passed_bins[Direction.OUTBOUND]
        passed_in = passed_bins[Direction.INBOUND]
        window_packets = router.inbound_drops._packets
        window_dropped = router.inbound_drops._dropped
        series_bins, window_bins = _bin_columns(
            table.timestamps, total, router.offered.interval,
            router.inbound_drops.window,
        )
        blocklist = router.blocklist
        if blocklist is not None:
            blocked = blocklist._blocked
            retention = blocklist.retention
            bl_gc_interval = blocklist._gc_interval
            bl_next_gc = blocklist._next_gc
            canon_cache: List[Optional[object]] = [None] * len(pairs)
            supp_n = supp_b = 0
    else:
        series_bins = window_bins = repeat(0)

    for now, size, is_out, pid, series_bin, window_index in zip(
        table.timestamps, table.sizes, table.outbound, table.pair_ids,
        series_bins, window_bins,
    ):
        if has_router:
            if is_out:
                offered_out[series_bin] = offered_out.get(series_bin, 0) + size
            else:
                offered_in[series_bin] = offered_in.get(series_bin, 0) + size
            if blocked is not None:
                if retention is not None:
                    if bl_next_gc is None:
                        bl_next_gc = now + bl_gc_interval
                    elif now >= bl_next_gc:
                        bl_next_gc = now + bl_gc_interval
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

        if is_out != policed_out:
            ok = True
        else:
            # Inlined TokenBucket.consume.
            if last is None:
                last = now
            elif now > last:
                tokens = min(burst, tokens + (now - last) * rate)
                last = now
            if tokens >= size:
                tokens -= size
                ok = True
            else:
                ok = False

        if ok:
            if is_out:
                passed_out_n += 1
                passed_out_b += size
                if has_router:
                    passed_out[series_bin] = passed_out.get(series_bin, 0) + size
            else:
                passed_in_n += 1
                passed_in_b += size
                if has_router:
                    window_packets[window_index] = (
                        window_packets.get(window_index, 0) + 1
                    )
                    passed_in[series_bin] = passed_in.get(series_bin, 0) + size
            append(PASS)
        else:
            if is_out:
                dropped_out_n += 1
                dropped_out_b += size
            else:
                dropped_in_n += 1
                dropped_in_b += size
                if has_router:
                    window_packets[window_index] = (
                        window_packets.get(window_index, 0) + 1
                    )
                    window_dropped[window_index] = (
                        window_dropped.get(window_index, 0) + 1
                    )
                    if blocked is not None:
                        canon = canon_cache[pid]
                        if canon is None:
                            canon = canon_cache[pid] = pairs[pid].canonical
                        blocked[canon] = now
            append(DROP)

    bucket._tokens = tokens
    bucket._last = last
    _flush_stats(flt.stats, passed_out_n, passed_in_n, dropped_out_n,
                 dropped_in_n, passed_out_b, passed_in_b, dropped_out_b,
                 dropped_in_b)
    if blocked is not None:
        blocklist._next_gc = bl_next_gc
        blocklist.suppressed_packets += supp_n
        blocklist.suppressed_bytes += supp_b
    return verdicts


@register_kernel(TokenBucketFilter)
class TokenBucketKernel(FilterKernel):
    """One-direction token-bucket policing, fused."""

    def run_table(self, router: "EdgeRouter", table) -> List[Verdict]:
        return _token_bucket_replay(router.filter, table, router)

    def filter_table(self, flt: TokenBucketFilter, table) -> List[Verdict]:
        return _token_bucket_replay(flt, table, None)


# ----------------------------------------------------------------------
# RED policer — meter trajectory depends on drops, so the loop stays
# sequential; the Equation-1 ramp is inlined.
# ----------------------------------------------------------------------


def _red_replay(flt: RedPolicerFilter, table, router) -> List[Verdict]:
    """Fused RED-policer replay; ``router=None`` = filter-level only.

    ``P_d`` is read from the meter *before* the verdict and the meter is
    fed only by passed policed-direction packets, so the probability
    trajectory depends on earlier drop decisions — the loop must stay
    strictly sequential (no precomputed probability column, unlike the
    bitmap filter whose meter sees only outbound traffic).
    """
    total = len(table)
    verdicts: List[Verdict] = []
    if router is not None:
        router.packets += total
    if total == 0:
        return verdicts

    PASS, DROP = Verdict.PASS, Verdict.DROP
    pairs = table.pairs
    policy = flt.policy
    meter = flt.meter
    rate_bps = meter.rate_bps
    meter_record = meter.record
    rng_random = flt._rng.random
    policed_out = 1 if flt.direction is Direction.OUTBOUND else 0
    # A static policy ignores the measured rate; the lazy-evicting
    # ``rate_bps`` read is skipped (it never changes a later reading).
    static_p: Optional[float] = (
        policy.probability(0.0) if isinstance(policy, StaticDropPolicy) else None
    )
    if isinstance(policy, RedDropPolicy):
        red_low: Optional[float] = policy.low
        red_high = policy.high
    else:
        red_low = None
    probability_of = policy.probability

    passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
    passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
    append = verdicts.append

    has_router = router is not None
    blocked = None
    if has_router:
        offered_bins = router.offered._bins
        passed_bins = router.passed._bins
        offered_out = offered_bins[Direction.OUTBOUND]
        offered_in = offered_bins[Direction.INBOUND]
        passed_out = passed_bins[Direction.OUTBOUND]
        passed_in = passed_bins[Direction.INBOUND]
        window_packets = router.inbound_drops._packets
        window_dropped = router.inbound_drops._dropped
        series_bins, window_bins = _bin_columns(
            table.timestamps, total, router.offered.interval,
            router.inbound_drops.window,
        )
        blocklist = router.blocklist
        if blocklist is not None:
            blocked = blocklist._blocked
            retention = blocklist.retention
            bl_gc_interval = blocklist._gc_interval
            bl_next_gc = blocklist._next_gc
            canon_cache: List[Optional[object]] = [None] * len(pairs)
            supp_n = supp_b = 0
    else:
        series_bins = window_bins = repeat(0)

    for now, size, is_out, pid, series_bin, window_index in zip(
        table.timestamps, table.sizes, table.outbound, table.pair_ids,
        series_bins, window_bins,
    ):
        if has_router:
            if is_out:
                offered_out[series_bin] = offered_out.get(series_bin, 0) + size
            else:
                offered_in[series_bin] = offered_in.get(series_bin, 0) + size
            if blocked is not None:
                if retention is not None:
                    if bl_next_gc is None:
                        bl_next_gc = now + bl_gc_interval
                    elif now >= bl_next_gc:
                        bl_next_gc = now + bl_gc_interval
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

        if is_out != policed_out:
            ok = True
        else:
            if static_p is not None:
                probability = static_p
            else:
                throughput = rate_bps(now)
                if red_low is not None:
                    # Inlined RedDropPolicy.probability (Equation 1).
                    if throughput <= red_low:
                        probability = 0.0
                    elif throughput >= red_high:
                        probability = 1.0
                    else:
                        probability = (throughput - red_low) / (red_high - red_low)
                else:
                    probability = probability_of(throughput)
            if probability >= 1.0 or (
                probability > 0.0 and rng_random() < probability
            ):
                ok = False
            else:
                meter_record(now, size)
                ok = True

        if ok:
            if is_out:
                passed_out_n += 1
                passed_out_b += size
                if has_router:
                    passed_out[series_bin] = passed_out.get(series_bin, 0) + size
            else:
                passed_in_n += 1
                passed_in_b += size
                if has_router:
                    window_packets[window_index] = (
                        window_packets.get(window_index, 0) + 1
                    )
                    passed_in[series_bin] = passed_in.get(series_bin, 0) + size
            append(PASS)
        else:
            if is_out:
                dropped_out_n += 1
                dropped_out_b += size
            else:
                dropped_in_n += 1
                dropped_in_b += size
                if has_router:
                    window_packets[window_index] = (
                        window_packets.get(window_index, 0) + 1
                    )
                    window_dropped[window_index] = (
                        window_dropped.get(window_index, 0) + 1
                    )
                    if blocked is not None:
                        canon = canon_cache[pid]
                        if canon is None:
                            canon = canon_cache[pid] = pairs[pid].canonical
                        blocked[canon] = now
            append(DROP)

    _flush_stats(flt.stats, passed_out_n, passed_in_n, dropped_out_n,
                 dropped_in_n, passed_out_b, passed_in_b, dropped_out_b,
                 dropped_in_b)
    if blocked is not None:
        blocklist._next_gc = bl_next_gc
        blocklist.suppressed_packets += supp_n
        blocklist.suppressed_bytes += supp_b
    return verdicts


@register_kernel(RedPolicerFilter)
class RedPolicerKernel(FilterKernel):
    """Equation-1 policing of one direction, fused."""

    def run_table(self, router: "EdgeRouter", table) -> List[Verdict]:
        return _red_replay(router.filter, table, router)

    def filter_table(self, flt: RedPolicerFilter, table) -> List[Verdict]:
        return _red_replay(flt, table, None)


# ----------------------------------------------------------------------
# Chain — kernel composition over a shared verdict mask
# ----------------------------------------------------------------------


def _member_table(member: PacketFilter, sub) -> List[Verdict]:
    """One chain member over a sub-table, through its kernel if it has one."""
    kernel = KERNELS.get(type(member))
    if kernel is not None:
        return kernel.filter_table(member, sub)
    return member.process_batch(sub.to_packets())


@register_kernel(FilterChain)
class ChainKernel(FilterKernel):
    """First-DROP-wins composition as staged member kernels.

    Members keep independent state and RNG streams, and member *i* sees
    exactly the packets that survived members ``< i`` in timestamp order
    — so running member 1 over the whole table, member 2 over the
    survivors, and so on is bit-identical to the interleaved per-packet
    chain walk.  With a blocklist the staging breaks down (a member-drop
    inside the batch must suppress the connection's *later* packets
    before member 1 sees them), so :meth:`run_table` declines and the
    router falls back to its exact per-packet loop.
    """

    def run_table(self, router: "EdgeRouter", table) -> Optional[List[Verdict]]:
        if router.blocklist is not None:
            return None
        total = len(table)
        router.packets += total
        if total == 0:
            return []
        verdicts = self.filter_table(router.filter, table)

        PASS = Verdict.PASS
        offered_bins = router.offered._bins
        passed_bins = router.passed._bins
        offered_out = offered_bins[Direction.OUTBOUND]
        offered_in = offered_bins[Direction.INBOUND]
        passed_out = passed_bins[Direction.OUTBOUND]
        passed_in = passed_bins[Direction.INBOUND]
        window_packets = router.inbound_drops._packets
        window_dropped = router.inbound_drops._dropped
        series_bins, window_bins = _bin_columns(
            table.timestamps, total, router.offered.interval,
            router.inbound_drops.window,
        )
        for verdict, size, is_out, series_bin, window_index in zip(
            verdicts, table.sizes, table.outbound, series_bins, window_bins,
        ):
            if is_out:
                offered_out[series_bin] = offered_out.get(series_bin, 0) + size
                if verdict is PASS:
                    passed_out[series_bin] = passed_out.get(series_bin, 0) + size
            else:
                offered_in[series_bin] = offered_in.get(series_bin, 0) + size
                window_packets[window_index] = (
                    window_packets.get(window_index, 0) + 1
                )
                if verdict is PASS:
                    passed_in[series_bin] = passed_in.get(series_bin, 0) + size
                else:
                    window_dropped[window_index] = (
                        window_dropped.get(window_index, 0) + 1
                    )
        return verdicts

    def run_packets(
        self, router: "EdgeRouter", packets: Sequence[Packet]
    ) -> Optional[List[Verdict]]:
        if router.blocklist is not None:
            return None  # decline before paying the columnarization
        return self.run_table(router, PacketTable.from_packets(packets))

    def filter_table(self, flt: FilterChain, table) -> List[Verdict]:
        total = len(table)
        PASS, DROP = Verdict.PASS, Verdict.DROP
        verdicts: List[Verdict] = [PASS] * total
        live: Optional[List[int]] = None  # original positions still passing
        sub = table
        for member in flt.filters:
            member_verdicts = _member_table(member, sub)
            survivors: List[int] = []
            s_append = survivors.append
            if live is None:
                for position, verdict in enumerate(member_verdicts):
                    if verdict is DROP:
                        verdicts[position] = DROP
                    else:
                        s_append(position)
            else:
                for position, verdict in enumerate(member_verdicts):
                    original = live[position]
                    if verdict is DROP:
                        verdicts[original] = DROP
                    else:
                        s_append(original)
            if len(survivors) == len(member_verdicts):
                continue  # nothing dropped — reuse the same sub-table
            live = survivors
            if not survivors:
                break
            sub = table.select(survivors)

        # The chain's own aggregate accounting (members kept their own).
        passed_out_n = passed_in_n = dropped_out_n = dropped_in_n = 0
        passed_out_b = passed_in_b = dropped_out_b = dropped_in_b = 0
        for verdict, size, is_out in zip(verdicts, table.sizes, table.outbound):
            if verdict is PASS:
                if is_out:
                    passed_out_n += 1
                    passed_out_b += size
                else:
                    passed_in_n += 1
                    passed_in_b += size
            else:
                if is_out:
                    dropped_out_n += 1
                    dropped_out_b += size
                else:
                    dropped_in_n += 1
                    dropped_in_b += size
        _flush_stats(flt.stats, passed_out_n, passed_in_n, dropped_out_n,
                     dropped_in_n, passed_out_b, passed_in_b, dropped_out_b,
                     dropped_in_b)
        return verdicts

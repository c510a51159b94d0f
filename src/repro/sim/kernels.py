"""Filter-kernel registry: one fused batch function per filter type.

A batch function replays rows of one :class:`~repro.net.table.PacketTable`
through one filter with all hot state in locals.  It is the batched twin
of the filter's reference ``decide`` and nothing more:

* it walks every row of its table as ``(position, timestamp, size,
  outbound, pair_id, flags)`` tuples (:func:`table_rows`);
* it tests one flag per row first: a row whose ``pair_id`` is in the
  gate's ``flagged`` set goes to the gate's ``suppress(pair_id, now,
  size)``, and a suppressed row is skipped, its code left
  :data:`~repro.filters.base.CODE_UNSEEN`;
* it updates only that filter's state and its filter-specific counters
  (bitmap and counting core stats, SPI ``peak_flows``, counting
  ``added`` / ``saturations`` / ``deleted_on_close``);
* it writes one verdict code per row it does not suppress into ``out``
  — :data:`~repro.filters.base.CODE_PASS` (1) or
  :data:`~repro.filters.base.CODE_DROP` (0) — and calls the gate's
  ``block(pair_id, now)`` on an inbound drop when a blocklist is
  attached.

The gate is ``(flagged, suppress, block)`` from
:meth:`BlockedConnectionStore.gate
<repro.filters.blocklist.BlockedConnectionStore.gate>`, or
:data:`OPEN_GATE` without a blocklist.  No row but a flagged one touches
the store.  Per-flow caches (hash keys, canonical pairs) are dicts keyed
by the pair ids the table holds, filled from
:meth:`PacketTable.flow_slots <repro.net.table.PacketTable.flow_slots>`
or on a flow's first row, so a chunk's work never scales with the
stream's interned pool.

Outbound samples bound for a filter's uplink meter are staged in two
local lists and land through one :meth:`SlidingWindowMeter.record_many
<repro.core.throughput.SlidingWindowMeter.record_many>` call before every
rate read that decides a verdict, and at table end.  A rate read that
decides nothing — a static policy's, or the bitmap filter's on a hit
under a policy that only maps the rate — only evicts samples, so it is
skipped and its time noted; the meter is evicted to the latest such time
at table end (:func:`_settle_meter`), or as soon as a row's timestamp
goes back before it.  Every path therefore leaves the same meter.

Everything around the filter — the store's GC clock (the router splits
the table where it fires), the offered/passed series and drop windows
and the filter's :class:`~repro.filters.base.FilterStats`, all folded
from one :func:`repro.sim.metrics.tally_rows` — happens once, in
:meth:`repro.sim.router.EdgeRouter.process_table`.

:func:`kernel_for` is an **exact-type** lookup: a subclass of a
registered filter may override ``decide`` hooks a fused loop would
silently ignore, so it replays per row instead.  Every function is
bit-identical to ``[router.forward(p) for p in packets]`` — verdicts,
filter state and statistics, RNG consumption — which
``tests/sim/test_kernels.py`` and ``tests/sim/test_batch_driver.py``
hold it to.
"""

from __future__ import annotations

from math import inf
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.bitmap_filter import FieldMode, socket_key
from repro.core.dropper import RedDropPolicy, StaticDropPolicy
from repro.filters.base import CODE_PASS, PacketFilter, Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.chain import FilterChain
from repro.filters.counting import CountingBitmapFilter
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter, _FlowState
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Direction
from repro.net.table import PacketTable
from repro.sim.metrics import tally_rows

__all__ = [
    "KERNELS",
    "OPEN_GATE",
    "register_kernel",
    "kernel_for",
    "table_rows",
]

#: ``kernel(filter, table, out, gate)`` — see the module docstring.
Kernel = Callable[..., None]

#: The gate of a router without a blocklist, shaped like the ``(flagged,
#: suppress, block)`` that
#: :meth:`~repro.filters.blocklist.BlockedConnectionStore.gate` returns:
#: no flow is flagged and nothing is blocked.
OPEN_GATE = (frozenset(), None, None)

#: Exact filter type → batch function.  Keyed by ``type(flt)`` — never
#: by ``isinstance`` — so subclasses with overridden per-packet hooks
#: replay per row, which honors their overrides.
KERNELS: Dict[type, Kernel] = {}


def register_kernel(*filter_types: type):
    """Function decorator: the batch function for ``filter_types``."""

    def decorate(kernel: Kernel) -> Kernel:
        for filter_type in filter_types:
            KERNELS[filter_type] = kernel
        return kernel

    return decorate


def kernel_for(packet_filter: PacketFilter, gated: bool = False) -> Optional[Kernel]:
    """The batch function for this filter's **exact** type, or None.

    ``gated`` says the caller runs it behind the blocked-σ gate.  The
    chain declines then: member 1 finishes every row before member 2
    decides, so a later member's block could not reach an earlier
    member's view of the connection's later rows in time.
    """
    if gated and type(packet_filter) is FilterChain:
        return None
    return KERNELS.get(type(packet_filter))


def table_rows(table: PacketTable):
    """Every row of ``table`` as the row tuples a batch function walks."""
    return zip(range(len(table)), table.timestamps, table.sizes,
               table.outbound, table.pair_ids, table.flags)


def _flow_keys(table: PacketTable, hole_punching: bool):
    """One hash key per (flow, direction) present in ``table``, with its
    ``pair_id << 1 | outbound`` slot (:meth:`PacketTable.flow_slots`) — so
    each flow hashes at most once per direction per table instead of
    once per packet, and the pool is read once per slot."""
    pairs = table.pairs
    slots = table.flow_slots()
    keys = [
        socket_key(pairs[slot >> 1],
                   Direction.OUTBOUND if slot & 1 else Direction.INBOUND,
                   hole_punching)
        for slot in slots
    ]
    return keys, slots


def _static_probability(policy) -> Optional[float]:
    """A static policy's constant ``P_d``, else None.

    A static policy ignores the measured rate, so the per-packet
    ``rate_bps`` read is skipped (its eviction is deferred, see
    :func:`_settle_meter`) and the constant hoisted out of the loop.
    """
    return policy.probability(0.0) if isinstance(policy, StaticDropPolicy) else None


def _pure_policy(policy) -> bool:
    """True when ``P_d`` is a pure function of the rate, so a read whose
    value decides nothing may be skipped.  A stateful policy (the
    integrating :class:`~repro.core.autotune.TargetRateController`) must
    see every read its filter's ``decide`` makes."""
    return isinstance(policy, (StaticDropPolicy, RedDropPolicy))


def _land_uploads(meter, times: List[float], sizes: List[int]) -> None:
    """Record the staged outbound samples in one batch and empty the stage."""
    if times:
        meter.record_many(times, sizes)
        times.clear()
        sizes.clear()


def _settle_meter(meter, times: List[float], sizes: List[int], skipped: float) -> None:
    """Land the staged samples, then evict as the skipped rate read at
    ``skipped`` would have (``-inf``: none is pending).

    Eviction pops the oldest samples below a horizon, so while
    timestamps do not go back, one eviction at the latest skipped read
    leaves what evicting at each of them did; a kernel settles early
    when a row's timestamp goes back before ``skipped``.
    """
    _land_uploads(meter, times, sizes)
    if skipped > -inf:
        meter.rate_bps(skipped)


# ----------------------------------------------------------------------
# Bitmap — the paper's filter
# ----------------------------------------------------------------------


@register_kernel(BitmapPacketFilter)
def bitmap_kernel(flt: BitmapPacketFilter, table, out, gate) -> None:
    """Algorithm 2 on the vectors' byte buffers, with flow-level caches.

    * each flow is hashed at most **once per direction per table**
      (:func:`_flow_keys` + the core's :meth:`HashIndexMemo.get_many`), so
      on this path the memo's hit counter measures cross-chunk flow reuse,
      not per-packet repeats;
    * an outbound flow **marks once per rotation window** — marking is
      idempotent while no vector rotates (stats still count every packet);
    * an inbound flow that tested *hit* stays a hit until the next
      rotation — bits only accumulate within a window; misses always
      re-test (an intervening mark may flip them) and hits never consume
      RNG, keeping the draw order intact.

    Rotation wipes a vector in place, so the buffer references stay valid
    for the whole table.  ``decide`` reads the uplink rate on every
    inbound packet; only a miss under a non-static policy needs its value,
    and only a stateful policy needs the read on a hit.
    """
    core = flt.core
    keys, slots = _flow_keys(
        table, core.config.field_mode is FieldMode.HOLE_PUNCHING
    )
    idx_out: Dict[int, Tuple[int, ...]] = {}
    idx_in: Dict[int, Tuple[int, ...]] = {}
    for slot, indices in zip(slots, core.hash_memo.get_many(keys)):
        if slot & 1:
            idx_out[slot >> 1] = indices
        else:
            idx_in[slot >> 1] = indices

    flagged, suppress, block = gate
    bufs = [vector._buf for vector in core.vectors]
    rng_random = core._rng.random
    controller = flt.drop_controller
    meter = controller.meter
    static_p = _static_probability(controller.policy)
    read_on_hit = not _pure_policy(controller.policy)
    probability_at = controller.probability
    up_times: List[float] = []
    up_sizes: List[int] = []
    stage_time = up_times.append
    stage_size = up_sizes.append
    skipped = -inf  # time of the latest rate read not yet applied
    marked = hits = misses = dropped = 0
    next_rotation = core._next_rotation
    if next_rotation is None:
        next_rotation = -inf  # unanchored: the first row anchors the clock
    current = bufs[core.idx]

    # Rotation generation: flow caches are valid exactly while no vector
    # has rotated.
    generation = 0
    marked_gen: dict = {}
    hit_gen: dict = {}
    marked_get = marked_gen.get
    hit_get = hit_gen.get

    for i, now, size, is_out, pid, _ in table_rows(table):
        if pid in flagged and suppress(pid, now, size):
            continue
        if not skipped <= now < next_rotation:
            if now < skipped:
                _settle_meter(meter, up_times, up_sizes, skipped)
                skipped = -inf
            if now >= next_rotation:
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
            stage_time(now)
            stage_size(size)
            out[i] = 1
            continue

        if hit_get(pid) != generation:
            hit = True
            for index in idx_in[pid]:
                if not current[index >> 3] & (1 << (index & 7)):
                    hit = False
                    break
            if not hit:
                misses += 1
                if static_p is None:
                    if up_times:
                        _land_uploads(meter, up_times, up_sizes)
                    probability = probability_at(now)
                else:
                    probability = static_p
                    skipped = now
                if probability >= 1.0 or rng_random() < probability:
                    dropped += 1
                    out[i] = 0
                    if block is not None:
                        block(pid, now)
                else:
                    out[i] = 1
                continue
            hit_gen[pid] = generation
        hits += 1
        if read_on_hit:
            if up_times:
                _land_uploads(meter, up_times, up_sizes)
            probability_at(now)
        else:
            skipped = now
        out[i] = 1

    _settle_meter(meter, up_times, up_sizes, skipped)
    stats = core.stats
    stats.outbound_marked += marked
    stats.inbound_hits += hits
    stats.inbound_misses += misses
    stats.inbound_dropped += dropped


# ----------------------------------------------------------------------
# SPI — exact per-flow state table
# ----------------------------------------------------------------------


class _SpiFlows(dict):
    """Pair id → ``(canonical pair, is TCP)`` for one table's flows, each
    computed on the flow's first row (a subscript, not a ``get`` call,
    on every later one)."""

    __slots__ = ("pairs",)

    def __init__(self, pairs) -> None:
        super().__init__()
        self.pairs = pairs

    def __missing__(self, pid: int) -> Tuple[object, bool]:
        canonical = self.pairs[pid].canonical
        flow = self[pid] = (canonical, canonical[0] == IPPROTO_TCP)
        return flow


@register_kernel(SPIFilter)
def spi_kernel(flt: SPIFilter, table, out, gate) -> None:
    """Inlines :meth:`SPIFilter.decide`: GC clock, flow install/refresh,
    TCP close tracking and the guarded ``P_d`` draw.  The canonical pair
    (the flow key) is computed once per flow of the table; the uplink
    rate is read on a miss."""
    flows = _SpiFlows(table.pairs)

    flow_table = flt._table
    flow_get = flow_table.get
    flow_pop = flow_table.pop
    peak_flows = flt.peak_flows
    rng_random = flt._rng.random
    controller = flt.drop_controller
    meter = controller.meter
    static_p = _static_probability(controller.policy)
    probability_at = controller.probability
    up_times: List[float] = []
    up_sizes: List[int] = []
    stage_time = up_times.append
    stage_size = up_sizes.append
    skipped = -inf  # time of the latest rate read not yet applied
    idle = flt.idle_timeout
    time_wait = flt.time_wait
    gc_interval = flt._gc_interval
    next_gc = flt._next_gc
    if next_gc is None:
        next_gc = -inf  # unanchored: the first row anchors the GC clock
    flagged, suppress, block = gate

    for i, now, size, is_out, pid, fl in table_rows(table):
        if pid in flagged and suppress(pid, now, size):
            continue
        if not skipped <= now < next_gc:
            if now < skipped:
                _settle_meter(meter, up_times, up_sizes, skipped)
                skipped = -inf
            # Inlined SPIFilter._maybe_gc.
            if next_gc == -inf:
                next_gc = now + gc_interval
            elif now >= next_gc:
                next_gc = now + gc_interval
                for stale_key in [
                    key for key, state in flow_table.items()
                    if (now > state.expires_at if state.expires_at is not None
                        else now - state.last_seen > idle)
                ]:
                    del flow_table[stale_key]

        key, tcp = flows[pid]

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
            if tcp:
                if fl & 0x04:  # RST: abortive close
                    flow_pop(key, None)
                elif fl & 0x01:  # FIN
                    state.fin_fwd = True
                    if state.fin_rev:
                        state.expires_at = now + time_wait
            stage_time(now)
            stage_size(size)
            out[i] = 1
            continue

        state = flow_get(key)
        if state is not None:
            expires_at = state.expires_at
            if (now <= expires_at if expires_at is not None
                    else now - state.last_seen <= idle):
                state.last_seen = now
                if tcp:
                    if fl & 0x04:
                        flow_pop(key, None)
                    elif fl & 0x01:
                        state.fin_rev = True
                        if state.fin_fwd:
                            state.expires_at = now + time_wait
                out[i] = 1
                continue
            del flow_table[key]
        if static_p is None:
            if up_times:
                _land_uploads(meter, up_times, up_sizes)
            probability = probability_at(now)
        else:
            probability = static_p
            skipped = now
        if probability >= 1.0 or (probability > 0.0 and rng_random() < probability):
            out[i] = 0
            if block is not None:
                block(pid, now)
        else:
            out[i] = 1

    _settle_meter(meter, up_times, up_sizes, skipped)
    flt._next_gc = None if next_gc == -inf else next_gc
    flt.peak_flows = peak_flows


# ----------------------------------------------------------------------
# Counting — the rotating core over 4-bit cells, close-aware deletion
# ----------------------------------------------------------------------


@register_kernel(CountingBitmapFilter)
def counting_kernel(flt: CountingBitmapFilter, table, out, gate) -> None:
    """4-bit nibble arithmetic directly on the core's cell bytearrays.

    Each flow hashes at most once per direction per table through the
    core's hash memo (all columns share one hash geometry).

    An outbound packet whose m cells in the *current* column are all
    non-zero only counts one more deferred increment for its flow; any
    other applies its increments to all k columns at once.  Deferral is
    exact: saturating increments commute (n of them take a cell at c to
    min(c + n, 15) with max(0, c + n − 15) saturations), a lookup reads
    only whether a current cell is non-zero, which a deferred increment
    cannot change, and a deletion is the only reader of counts.  So the
    deferred increments land before a rotation clears a column, before a
    deletion for the flows sharing a cell with the deleted key, and at
    table end.  Per-column ``added`` / ``saturations`` are staged and land
    with them; the core's mark, hit, miss and drop counts land once per
    table.  Deletion (FIN/RST) runs inline, in closed form, reusing the
    flow's cached indices.
    """
    core = flt.core
    k = core.config.vectors
    keys, slots = _flow_keys(
        table, core.config.field_mode is FieldMode.HOLE_PUNCHING
    )
    key_out: Dict[int, Tuple[int, ...]] = {}
    key_in: Dict[int, Tuple[int, ...]] = {}
    idx_out: Dict[int, Tuple[int, ...]] = {}
    idx_in: Dict[int, Tuple[int, ...]] = {}
    for slot, key, indices in zip(slots, keys, core.hash_memo.get_many(keys)):
        if slot & 1:
            key_out[slot >> 1] = key
            idx_out[slot >> 1] = indices
        else:
            key_in[slot >> 1] = key
            idx_in[slot >> 1] = indices
    #: The table's TCP flows, the only ones a FIN or RST closes (a hash
    #: key starts with the protocol).
    tcp = {slot >> 1 for slot, key in zip(slots, keys) if key[0] == IPPROTO_TCP}
    flagged, suppress, block = gate

    columns = core.vectors
    cells_list = [column._cells for column in columns]
    half_closed = flt._half_closed
    rng_random = core._rng.random
    controller = flt.drop_controller
    meter = controller.meter
    static_p = _static_probability(controller.policy)
    probability_at = controller.probability
    up_times: List[float] = []
    up_sizes: List[int] = []
    stage_time = up_times.append
    stage_size = up_sizes.append
    skipped = -inf  # time of the latest rate read not yet applied
    next_rotation = core._next_rotation
    if next_rotation is None:
        next_rotation = -inf  # unanchored: the first row anchors the clock
    current_cells = cells_list[core.idx]

    #: Outbound flow → increments deferred since its current cells were
    #: all found non-zero.
    pending: Dict[int, int] = {}
    pending_get = pending.get
    #: Cell → flows that started deferring on it (some since landed), so
    #: a deletion finds the deferred flows sharing one of its cells.
    sharers: Dict[int, List[int]] = {}
    sharers_get = sharers.get
    saturations = [0] * k
    marked = landed = hits = misses = dropped = deleted = 0

    def increment(indices: Tuple[int, ...], count: int) -> None:
        for position in range(k):
            cells = cells_list[position]
            sat = 0
            for index in indices:
                byte_pos = index >> 1
                byte = cells[byte_pos]
                if index & 1:
                    total = (byte >> 4) + count
                    if total > 15:
                        sat += total - 15
                        total = 15
                    cells[byte_pos] = (byte & 0x0F) | (total << 4)
                else:
                    total = (byte & 0x0F) + count
                    if total > 15:
                        sat += total - 15
                        total = 15
                    cells[byte_pos] = (byte & 0xF0) | total
            if sat:
                saturations[position] += sat

    def land(added: int) -> None:
        # Every deferred increment and staged counter, before a rotation
        # clears a column and at table end.
        for pid, count in pending.items():
            increment(idx_out[pid], count)
        pending.clear()
        sharers.clear()
        for position, column in enumerate(columns):
            column.added += added
            column.saturations += saturations[position]
            saturations[position] = 0

    def delete_key(indices: Tuple[int, ...]) -> None:
        # CountingBitmapFilter._delete in closed form.  Its loop takes one
        # from each non-saturated cell per round until one reaches zero;
        # a key's cells are distinct (m <= N), so that is R rounds, R the
        # smallest non-saturated count (the loop's cap of 16 when every
        # cell is saturated).
        nonlocal deleted
        for index in indices:
            for pid in sharers.pop(index, ()):
                count = pending.pop(pid, 0)
                if count:
                    increment(idx_out[pid], count)
        for column, cells in zip(columns, cells_list):
            rounds = 16
            for index in indices:
                byte = cells[index >> 1]
                count = byte >> 4 if index & 1 else byte & 0x0F
                if count < rounds and count < 15:
                    rounds = count
            if not rounds:
                continue
            for index in indices:
                position = index >> 1
                byte = cells[position]
                if index & 1:
                    if byte >> 4 < 15:
                        cells[position] = byte - (rounds << 4)
                elif byte & 0x0F < 15:
                    cells[position] = byte - rounds
            column.removed += rounds
        deleted += 1

    def track_close(indices, key, fl, now) -> None:
        if fl & 0x04:  # RST
            delete_key(indices)
            half_closed.pop(key, None)
        elif fl & 0x01:  # FIN
            if key in half_closed:
                del half_closed[key]
                delete_key(indices)
            else:
                half_closed[key] = now

    for i, now, size, is_out, pid, fl in table_rows(table):
        if pid in flagged and suppress(pid, now, size):
            continue
        if not skipped <= now < next_rotation:
            if now < skipped:
                _settle_meter(meter, up_times, up_sizes, skipped)
                skipped = -inf
            if now >= next_rotation:
                # CountingBitmapFilter.advance_to: deferred increments and
                # staged counters land before rotate() clears a column.
                land(marked - landed)
                landed = marked
                flt.advance_to(now)
                next_rotation = core._next_rotation
                current_cells = cells_list[core.idx]

        if is_out:
            count = pending_get(pid)
            if count:
                pending[pid] = count + 1
            else:
                indices = idx_out[pid]
                for index in indices:
                    byte = current_cells[index >> 1]
                    if not (byte >> 4 if index & 1 else byte & 0x0F):
                        increment(indices, 1)
                        break
                else:
                    pending[pid] = 1
                    for index in indices:
                        flows = sharers_get(index)
                        if flows is None:
                            sharers[index] = [pid]
                        else:
                            flows.append(pid)
            marked += 1
            stage_time(now)
            stage_size(size)
            if fl & 0x05 and pid in tcp:
                track_close(idx_out[pid], key_out[pid], fl, now)
            out[i] = 1
            continue

        indices = idx_in[pid]
        hit = True
        for index in indices:
            byte = current_cells[index >> 1]
            if not (byte >> 4 if index & 1 else byte & 0x0F):
                hit = False
                break
        if hit:
            hits += 1
            if fl & 0x05 and pid in tcp:
                track_close(indices, key_in[pid], fl, now)
            out[i] = 1
            continue
        misses += 1
        if static_p is None:
            if up_times:
                _land_uploads(meter, up_times, up_sizes)
            probability = probability_at(now)
        else:
            probability = static_p
            skipped = now
        # The core's unguarded coin (BitmapFilter.drop): a draw even at
        # P_d = 0, unlike SPI/RED's guarded form.
        if probability >= 1.0 or rng_random() < probability:
            dropped += 1
            out[i] = 0
            if block is not None:
                block(pid, now)
        else:
            out[i] = 1

    land(marked - landed)
    _settle_meter(meter, up_times, up_sizes, skipped)
    flt.deleted_on_close += deleted
    stats = core.stats
    stats.outbound_marked += marked
    stats.inbound_hits += hits
    stats.inbound_misses += misses
    stats.inbound_dropped += dropped


# ----------------------------------------------------------------------
# Rate limiters — one policed direction
# ----------------------------------------------------------------------


@register_kernel(TokenBucketFilter)
def token_bucket_kernel(flt: TokenBucketFilter, table, out, gate) -> None:
    """Inlined :meth:`TokenBucket.consume` on the policed direction."""
    bucket = flt.bucket
    rate = bucket.rate
    burst = bucket.burst
    tokens = bucket._tokens
    last = bucket._last
    policed_out = 1 if flt.direction is Direction.OUTBOUND else 0
    flagged, suppress, block = gate

    for i, now, size, is_out, pid, _ in table_rows(table):
        if pid in flagged and suppress(pid, now, size):
            continue
        if is_out != policed_out:
            out[i] = 1
            continue
        if last is None:
            last = now
        elif now > last:
            tokens = min(burst, tokens + (now - last) * rate)
            last = now
        if tokens >= size:
            tokens -= size
            out[i] = 1
        else:
            out[i] = 0
            if block is not None and not is_out:
                block(pid, now)

    bucket._tokens = tokens
    bucket._last = last


@register_kernel(RedPolicerFilter)
def red_policer_kernel(flt: RedPolicerFilter, table, out, gate) -> None:
    """Equation-1 policing with the ramp inlined.

    ``P_d`` is read from the meter *before* the verdict and the meter is
    fed only by passed policed-direction packets, so the probability
    trajectory depends on earlier drops — the loop stays strictly
    sequential (no precomputed probability column).  A static policy's
    reads only evict, so they are deferred to table end.
    """
    policy = flt.policy
    meter = flt.meter
    rate_bps = meter.rate_bps
    meter_record = meter.record
    skipped = -inf  # time of the latest rate read not yet applied
    rng_random = flt._rng.random
    policed_out = 1 if flt.direction is Direction.OUTBOUND else 0
    static_p = _static_probability(policy)
    if isinstance(policy, RedDropPolicy):
        red_low: Optional[float] = policy.low
        red_high = policy.high
    else:
        red_low = None
    probability_of = policy.probability
    flagged, suppress, block = gate

    for i, now, size, is_out, pid, _ in table_rows(table):
        if pid in flagged and suppress(pid, now, size):
            continue
        if is_out != policed_out:
            out[i] = 1
            continue
        if static_p is not None:
            probability = static_p
            if now < skipped:
                rate_bps(skipped)
            skipped = now
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
        if probability >= 1.0 or (probability > 0.0 and rng_random() < probability):
            out[i] = 0
            if block is not None and not is_out:
                block(pid, now)
        else:
            meter_record(now, size)
            out[i] = 1

    if skipped > -inf:
        rate_bps(skipped)


# ----------------------------------------------------------------------
# Chain — member functions composed over surviving rows
# ----------------------------------------------------------------------


def _member_codes(member: PacketFilter, table: PacketTable) -> bytearray:
    """One chain member over every row of ``table``: its verdict codes,
    with its :class:`FilterStats` folded in.  Unregistered members run
    their reference :meth:`PacketFilter.process` per row."""
    codes = bytearray(len(table))
    kernel = KERNELS.get(type(member))
    if kernel is None:
        process, PASS = member.process, Verdict.PASS
        for position, view in enumerate(table.iter_views()):
            codes[position] = process(view) is PASS
        return codes
    kernel(member, table, codes, OPEN_GATE)
    member.stats.account_tally(
        tally_rows(table.timestamps, table.sizes, table.outbound, codes))
    return codes


@register_kernel(FilterChain)
def chain_kernel(flt: FilterChain, table, out, gate) -> None:
    """First-DROP-wins composition.

    Members keep independent state and RNG streams, and member *i* sees
    exactly the packets that survived members ``< i`` in timestamp order,
    so running member 1 over the whole table, member 2 over the
    survivors and so on is bit-identical to the interleaved per-packet
    chain walk.  The chain always runs ungated (:func:`kernel_for`
    declines it behind a blocklist), so ``gate`` is :data:`OPEN_GATE`.
    """
    live: List[int] = list(range(len(table)))  # positions still passing
    sub = table
    for member in flt.filters:
        codes = _member_codes(member, sub)
        survivors: List[int] = []
        keep = survivors.append
        for position, code in zip(live, codes):
            if code == CODE_PASS:
                keep(position)
            else:
                out[position] = 0
        if len(survivors) < len(live):
            if not survivors:
                return
            sub = table.select(survivors)
        live = survivors
    for position in live:
        out[position] = 1

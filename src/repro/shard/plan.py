"""Shard plans: one keying of the client-address space onto N lanes.

A :class:`ShardPlan` answers ``lane_of(inner_address)`` — which lane
owns a client address — and, from that one function, derives the
partition operations every shard-shaped mechanism in the codebase needs:

* :meth:`ShardPlan.partition_packets` splits an object-shaped packet
  stream into per-lane sub-streams plus a default lane of transit
  packets matching no lane;
* :meth:`ShardPlan.partition_table` is its columnar twin, routing by
  interned flow (one ``lane_of`` resolution per ``(pair, direction)``)
  and gathering pool-sharing sub-tables.

The routing invariant both rely on: a packet's lane is decided by its
*inner* address (source when outbound, destination when inbound), a
connection's packets all share one inner address, so every connection
lands wholly inside one lane — per-lane replay is therefore equivalent
to interleaved replay.

Two keyings ship:

* :class:`SubnetShardPlan` — an ordered ``(network, prefix)`` table with
  first-match semantics and a bounded FIFO route cache; the Figure 6
  core-router placement where each lane is one client network.
* :class:`HashShardPlan` — client /``subnet_prefix`` subnets consistent-
  hashed onto a replica ring; the ISP-scale fleet keying where adding a
  shard moves only ~1/N of the subnets.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Dict, Iterable, List, Tuple

from repro.core.hashing import derive_seed, splitmix64
from repro.net.inet import format_ipv4, in_network
from repro.net.packet import Direction, Packet


class ShardPlan(ABC):
    """Maps inner (client-side) IPv4 addresses onto lane indices."""

    #: Number of lanes the plan routes to.
    lanes: int

    @abstractmethod
    def lane_of(self, inner: int) -> int:
        """Index of the lane owning an inner address, or -1 for transit
        traffic no lane claims."""

    @abstractmethod
    def label(self, position: int) -> str:
        """Human-readable key of one lane (subnet CIDR, ring slot...)."""

    @abstractmethod
    def as_spec(self) -> dict:
        """JSON-safe description from which :func:`plan_from_spec`
        rebuilds an identical plan (fleet manifests, offline verify)."""

    # -- routing helpers -------------------------------------------------

    @staticmethod
    def inner_address(packet: Packet) -> int:
        """The client-side address that decides lane ownership: the
        source of an outbound packet, the destination of an inbound one."""
        return (
            packet.pair.src_addr
            if packet.direction is Direction.OUTBOUND
            else packet.pair.dst_addr
        )

    # -- partitioning ----------------------------------------------------

    def partition_packets(
        self, packets: Iterable[Packet]
    ) -> Tuple[List[List[Packet]], List[Packet]]:
        """Split a packet stream into per-lane sub-streams plus a default
        lane of transit packets matching no lane.  Each sub-stream
        preserves the input's relative order."""
        lanes: List[List[Packet]] = [[] for _ in range(self.lanes)]
        default_lane: List[Packet] = []
        lane_of = self.lane_of
        inner_address = self.inner_address
        for packet in packets:
            position = lane_of(inner_address(packet))
            if position < 0:
                default_lane.append(packet)
            else:
                lanes[position].append(packet)
        return lanes, default_lane

    def partition_table(self, table):
        """Columnar twin of :meth:`partition_packets`.

        Routes by interned flow instead of per packet: the owning lane
        of each ``(pair_id, direction)`` is resolved once against the
        table's pools, rows are grouped with
        :meth:`~repro.net.table.PacketTable.lane_positions` and gathered
        into pool-sharing sub-tables with
        :meth:`~repro.net.table.PacketTable.select`.  Returns
        ``(lane_tables, default_table)`` with every lane preserving row
        order — the same split :meth:`partition_packets` produces on
        ``table.to_packets()``.
        """
        pairs = table.pairs
        lane_of = self.lane_of
        out_lane: Dict[int, int] = {}
        in_lane: Dict[int, int] = {}
        lane_by_row: List[int] = []
        append = lane_by_row.append
        for pid, is_out in zip(table.pair_ids, table.outbound):
            if is_out:
                lane = out_lane.get(pid)
                if lane is None:
                    lane = out_lane[pid] = lane_of(pairs[pid].src_addr)
            else:
                lane = in_lane.get(pid)
                if lane is None:
                    lane = in_lane[pid] = lane_of(pairs[pid].dst_addr)
            append(lane)
        groups = table.lane_positions(lane_by_row, self.lanes)
        return (
            [table.select(group) for group in groups[:-1]],
            table.select(groups[-1]),
        )

    def __len__(self) -> int:
        return self.lanes


class SubnetShardPlan(ShardPlan):
    """An ordered subnet table: first match wins, like a routing table.

    Overlapping prefixes are allowed (put more-specific first).  The
    prefix scan is O(lanes) and sits on per-packet hot paths, so a small
    FIFO cache memoizes inner-address lookups; first-match semantics are
    preserved because the scan order is what populates it.
    """

    #: Routing-cache bound: distinct inner addresses resident at once.
    ROUTE_CACHE_SIZE = 1 << 16

    def __init__(
        self,
        subnets: List[Tuple[int, int]],
        route_cache_size: int = ROUTE_CACHE_SIZE,
    ) -> None:
        if not subnets:
            raise ValueError("need at least one subnet")
        for network, prefix_len in subnets:
            if not 0 <= prefix_len <= 32:
                raise ValueError(f"bad prefix length {prefix_len}")
            if not 0 <= network < 2 ** 32:
                raise ValueError(f"bad network {network}")
        if route_cache_size <= 0:
            raise ValueError(
                f"route_cache_size must be positive: {route_cache_size}"
            )
        self.subnets = [(network, prefix_len) for network, prefix_len in subnets]
        self.lanes = len(self.subnets)
        self._route_cache_size = route_cache_size
        self._route_cache: Dict[int, int] = {}

    @classmethod
    def from_cidr(
        cls, network: int, prefix_len: int, shard_bits: int, **kwargs
    ) -> "SubnetShardPlan":
        """Split one client CIDR into ``2**shard_bits`` equal subnets —
        the ``--shard-bits`` keying of ``repro filter`` and the default
        fleet layout."""
        shard_prefix = prefix_len + shard_bits
        if shard_bits < 1 or shard_prefix > 32:
            raise ValueError(
                f"shard_bits {shard_bits} does not fit inside /{prefix_len}"
            )
        step = 1 << (32 - shard_prefix)
        return cls(
            [(network + index * step, shard_prefix)
             for index in range(1 << shard_bits)],
            **kwargs,
        )

    def scan(self, inner: int) -> int:
        """Uncached first-match scan of the subnet table (-1 = unrouted)."""
        for position, (network, prefix_len) in enumerate(self.subnets):
            if in_network(inner, network, prefix_len):
                return position
        return -1

    def lane_of(self, inner: int) -> int:
        cache = self._route_cache
        position = cache.get(inner)
        if position is None:
            position = self.scan(inner)
            if len(cache) >= self._route_cache_size:
                # FIFO eviction: drop the oldest insertion, stay bounded.
                del cache[next(iter(cache))]
            cache[inner] = position
        return position

    def label(self, position: int) -> str:
        network, prefix_len = self.subnets[position]
        return f"{format_ipv4(network)}/{prefix_len}"

    def reset_cache(self) -> None:
        self._route_cache = {}

    def as_spec(self) -> dict:
        return {"keying": "subnet", "subnets": [list(s) for s in self.subnets]}


class HashShardPlan(ShardPlan):
    """Consistent-hashed client subnets on a replica ring.

    Every inner address collapses to its /``subnet_prefix`` subnet; the
    subnet hashes (splitmix64) onto a ring carrying ``replicas`` virtual
    points per lane, and the first point clockwise owns it.  Adding or
    removing one lane therefore remaps only ~1/``lanes`` of the subnets —
    the property that lets an ISP fleet grow without re-homing every
    client network.  Hash plans route *everything*: there is no transit
    lane (``lane_of`` never returns -1).
    """

    def __init__(
        self,
        lanes: int,
        subnet_prefix: int = 24,
        replicas: int = 64,
        seed: int = 0,
    ) -> None:
        if lanes < 1:
            raise ValueError(f"need at least one lane: {lanes}")
        if not 0 <= subnet_prefix <= 32:
            raise ValueError(f"bad subnet prefix {subnet_prefix}")
        if replicas < 1:
            raise ValueError(f"need at least one replica: {replicas}")
        self.lanes = lanes
        self.subnet_prefix = subnet_prefix
        self.replicas = replicas
        self.seed = seed
        points: List[Tuple[int, int]] = []
        for lane in range(lanes):
            base = derive_seed(seed, lane)
            for replica in range(replicas):
                points.append((derive_seed(base, replica), lane))
        points.sort()
        self._ring_points = [point for point, _ in points]
        self._ring_lanes = [lane for _, lane in points]
        self._shift = 32 - subnet_prefix

    def lane_of(self, inner: int) -> int:
        key = splitmix64((inner >> self._shift) ^ self.seed)
        position = bisect_right(self._ring_points, key)
        if position == len(self._ring_points):
            position = 0
        return self._ring_lanes[position]

    def label(self, position: int) -> str:
        return f"ring[{position}/{self.lanes}]"

    def as_spec(self) -> dict:
        return {
            "keying": "hash",
            "lanes": self.lanes,
            "subnet_prefix": self.subnet_prefix,
            "replicas": self.replicas,
            "seed": self.seed,
        }


def plan_from_spec(spec: dict) -> ShardPlan:
    """Rebuild a plan from :meth:`ShardPlan.as_spec` output."""
    keying = spec.get("keying")
    if keying == "subnet":
        return SubnetShardPlan(
            [tuple(subnet) for subnet in spec["subnets"]]
        )
    if keying == "hash":
        return HashShardPlan(
            spec["lanes"],
            subnet_prefix=spec["subnet_prefix"],
            replicas=spec["replicas"],
            seed=spec["seed"],
        )
    raise ValueError(f"unknown shard-plan keying: {keying!r}")

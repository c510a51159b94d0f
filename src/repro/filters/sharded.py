"""Per-subnet sharded bitmap filters — the Figure 6 core-router placement.

"The bitmap filter can be installed ... on a core router, which is an
aggregate of two or more client networks."  At an aggregation point an
operator can run one big filter, or one *shard* per client network.
Sharding buys:

* per-network policy — each shard gets its own drop controller, so one
  customer's P2P load cannot push another customer's P_d up;
* capacity isolation — a connection-heavy network cannot raise the
  utilization (and hence the penetration probability, Eq. 2) of its
  neighbours' vectors;
* parallelism — shards touch disjoint memory.

Which lane owns a packet is a :class:`~repro.shard.plan.ShardPlan`
question — the same keying layer the parallel backend and the fleet
supervisor partition with.  The classic constructor builds an ordered
:class:`~repro.shard.plan.SubnetShardPlan` from ``(network, prefix,
filter)`` triples; :meth:`ShardedFilter.from_plan` accepts any plan
(e.g. a consistent-hash ring) with one member filter per lane.  Packets
matching no lane (transit traffic) follow ``default_verdict``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.filters.base import PacketFilter, Verdict
from repro.net.packet import Packet
from repro.shard.plan import ShardPlan, SubnetShardPlan, plan_from_spec


class ShardedFilter(PacketFilter):
    """Route packets to per-lane member filters under a shard plan."""

    name = "sharded"

    #: Shard-routing cache bound: distinct inner addresses resident at once.
    ROUTE_CACHE_SIZE = SubnetShardPlan.ROUTE_CACHE_SIZE

    def __init__(
        self,
        shards: List[Tuple[int, int, PacketFilter]],
        default_verdict: Verdict = Verdict.PASS,
        route_cache_size: int = ROUTE_CACHE_SIZE,
    ) -> None:
        """``shards`` is ``[(network, prefix_len, filter), ...]``.

        Networks are matched in order; overlapping prefixes are allowed
        (put more-specific first, as in a routing table).
        """
        super().__init__()
        if not shards:
            raise ValueError("need at least one shard")
        plan = SubnetShardPlan(
            [(network, prefix_len) for network, prefix_len, _ in shards],
            route_cache_size=route_cache_size,
        )
        self._bind_plan(plan, [member for _, _, member in shards], default_verdict)

    def _bind_plan(
        self, plan: ShardPlan, members: List[PacketFilter], default_verdict: Verdict
    ) -> None:
        if len(members) != plan.lanes:
            raise ValueError(
                f"plan has {plan.lanes} lanes but {len(members)} members given"
            )
        self.plan = plan
        self.members = members
        self.default_verdict = default_verdict
        self.unrouted_packets = 0

    @classmethod
    def from_plan(
        cls,
        plan: ShardPlan,
        members: List[PacketFilter],
        default_verdict: Verdict = Verdict.PASS,
    ) -> "ShardedFilter":
        """Build a sharded filter over any plan, one member per lane."""
        filt = cls.__new__(cls)
        PacketFilter.__init__(filt)
        filt._bind_plan(plan, list(members), default_verdict)
        return filt

    # -- routing (delegated to the plan) --------------------------------

    #: The client-side address that decides shard ownership.
    inner_address = staticmethod(ShardPlan.inner_address)

    @property
    def shards(self) -> List[Tuple[Optional[int], Optional[int], PacketFilter]]:
        """``(network, prefix_len, filter)`` triples view.  Plans without
        subnet keys (hash rings) carry ``None`` in the address slots."""
        subnets = getattr(self.plan, "subnets", None)
        if subnets is None:
            return [(None, None, member) for member in self.members]
        return [
            (network, prefix_len, member)
            for (network, prefix_len), member in zip(subnets, self.members)
        ]

    def _shard_for(self, packet: Packet) -> Optional[PacketFilter]:
        position = self.plan.lane_of(self.inner_address(packet))
        if position < 0:
            return None
        return self.members[position]

    def shard_label(self, position: int) -> str:
        """Human-readable key of one shard (``network/prefix`` for subnet
        plans)."""
        return self.plan.label(position)

    def partition_table(self, table):
        """Split a table into per-shard sub-tables plus a default lane of
        transit rows (:meth:`ShardPlan.partition_table`)."""
        return self.plan.partition_table(table)

    # -- verdicts --------------------------------------------------------

    def decide(self, packet: Packet) -> Verdict:
        shard = self._shard_for(packet)
        if shard is None:
            self.unrouted_packets += 1
            return self.default_verdict
        return shard.process(packet)

    # -- housekeeping ----------------------------------------------------

    def shard_stats(self) -> Dict[str, dict]:
        """Per-shard pass/drop accounting, keyed by the plan's labels."""
        return {
            self.plan.label(position): member.stats.as_dict()
            for position, member in enumerate(self.members)
        }

    def snapshot(self) -> dict:
        """Full state: the plan spec plus every member's snapshot — the
        document the fleet's offline-verify path rebuilds from."""
        return {
            "kind": self.name,
            "plan": self.plan.as_spec(),
            "default_verdict": self.default_verdict.name,
            "unrouted_packets": self.unrouted_packets,
            "stats": self.stats.snapshot(),
            "members": [member.snapshot() for member in self.members],
        }

    @classmethod
    def restore(cls, snapshot: dict, clock: str = "resume") -> "ShardedFilter":
        from repro.filters import restore_filter
        from repro.filters.base import FilterStats

        filt = cls.from_plan(
            plan_from_spec(snapshot["plan"]),
            [restore_filter(member, clock=clock)
             for member in snapshot["members"]],
            default_verdict=Verdict[snapshot["default_verdict"]],
        )
        filt.unrouted_packets = snapshot["unrouted_packets"]
        filt.stats = FilterStats.restore(snapshot["stats"])
        return filt

    def reset(self) -> None:
        super().reset()
        self.unrouted_packets = 0
        reset_cache = getattr(self.plan, "reset_cache", None)
        if reset_cache is not None:
            reset_cache()
        for member in self.members:
            member.reset()

    def __len__(self) -> int:
        return self.plan.lanes

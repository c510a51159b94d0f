"""Network topology for the synthetic client network.

Models the Figure 1 setup: a client subnet (the paper's campus /24-ish
network) behind an edge link, with the rest of the Internet on the other
side.  Includes an ephemeral-port allocator with an OS-style port-reuse
timer, which is what produces the Figure 5 port-reuse peaks ("most of them
are in multiples of 60 seconds").
"""

from __future__ import annotations

import heapq
import random
from typing import Dict, List, Optional, Tuple

from repro.net.inet import in_network, parse_ipv4

#: Bounds of the public-looking space remote addresses are drawn from.
REMOTE_LOW = parse_ipv4("1.0.0.0")
REMOTE_HIGH = parse_ipv4("223.255.255.254")


class ClientNetwork:
    """The monitored client subnet."""

    def __init__(self, network: str = "10.1.0.0", prefix_len: int = 16, hosts: int = 200):
        if hosts <= 0:
            raise ValueError(f"hosts must be positive: {hosts}")
        self.network = parse_ipv4(network)
        self.prefix_len = prefix_len
        max_hosts = (1 << (32 - prefix_len)) - 2
        if hosts > max_hosts:
            raise ValueError(f"{hosts} hosts do not fit in a /{prefix_len}")
        #: Client addresses: network base + 1 ... + hosts.
        self.clients: List[int] = [self.network + offset for offset in range(1, hosts + 1)]

    def contains(self, addr: int) -> bool:
        return in_network(addr, self.network, self.prefix_len)

    def random_client(self, rng: random.Random) -> int:
        return rng.choice(self.clients)

    def __len__(self) -> int:
        return len(self.clients)


class AddressSpace:
    """The outside world: remote peers and servers.

    Remote addresses are drawn from public-looking space, never colliding
    with the client network.  ``sticky_peers`` returns a stable pool per
    category so e.g. repeated BitTorrent connections hit a realistic swarm
    of recurring peers rather than fresh addresses every time.
    """

    def __init__(self, client_network: ClientNetwork, seed: int = 0):
        self.client_network = client_network
        self._rng = random.Random(seed ^ 0x5EED)
        self._pools: Dict[str, List[int]] = {}

    def random_remote(self, rng: Optional[random.Random] = None) -> int:
        rng = rng or self._rng
        while True:
            addr = rng.randint(REMOTE_LOW, REMOTE_HIGH)
            first_octet = addr >> 24
            if first_octet in (10, 127):  # private/loopback
                continue
            if not self.client_network.contains(addr):
                return addr

    def sticky_peers(self, category: str, count: int) -> List[int]:
        """A stable pool of ``count`` remote addresses for a category."""
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        pool = self._pools.get(category)
        if pool is None or len(pool) < count:
            pool = [self.random_remote() for _ in range(count)]
            self._pools[category] = pool
        return pool[:count]


class PortAllocator:
    """Per-host ephemeral port allocation with an OS port-reuse timer.

    Freed ports return to circulation only after ``reuse_timeout`` seconds
    (real stacks hold closing ports in TIME_WAIT); when the fresh range is
    exhausted, the oldest eligible freed port is reused.  Reusing a source
    port toward the same destination within the analyzer's large expiry
    window (T_e = 600 s in section 3.3) is exactly what creates the
    out-in-delay measurement artifacts at multiples of the reuse timeout.
    """

    #: Common OS reuse timeouts ("most of them are in multiples of 60 s").
    COMMON_TIMEOUTS = (60.0, 120.0, 240.0)

    def __init__(
        self,
        low: int = 1024,
        high: int = 5000,
        reuse_timeout: float = 120.0,
    ) -> None:
        if not 1 <= low <= high <= 65535:
            raise ValueError(f"bad port range [{low}, {high}]")
        if reuse_timeout < 0:
            raise ValueError(f"negative reuse_timeout: {reuse_timeout}")
        self.low = low
        self.high = high
        self.reuse_timeout = reuse_timeout
        self._next_fresh = low
        #: Min-heap of (eligible_time, port) for released ports.
        self._released: List[Tuple[float, int]] = []

    def allocate(self, now: float) -> int:
        """Claim an ephemeral port at trace time ``now``."""
        if self._next_fresh <= self.high:
            port = self._next_fresh
            self._next_fresh += 1
            return port
        if self._released and self._released[0][0] <= now:
            return heapq.heappop(self._released)[1]
        if self._released:
            # Nothing eligible yet: real stacks block or fail; we model the
            # common fallback of grabbing the oldest TIME_WAIT port early.
            return heapq.heappop(self._released)[1]
        raise RuntimeError("port space exhausted with nothing released")

    def release(self, port: int, now: float) -> None:
        """Return a port to the pool; reusable after the reuse timeout."""
        if not self.low <= port <= self.high:
            raise ValueError(f"port {port} outside [{self.low}, {self.high}]")
        heapq.heappush(self._released, (now + self.reuse_timeout, port))

    @property
    def fresh_remaining(self) -> int:
        return max(0, self.high - self._next_fresh + 1)


class HostModel:
    """Per-client-host state: its address and ephemeral allocator.

    Each host gets a reuse timeout drawn from the common OS values so the
    aggregate port-reuse artifact shows several 60 s-multiple peaks.
    """

    def __init__(self, addr: int, rng: random.Random, port_range: Tuple[int, int] = (1024, 5000)):
        self.addr = addr
        self.ports = PortAllocator(
            low=port_range[0],
            high=port_range[1],
            reuse_timeout=rng.choice(PortAllocator.COMMON_TIMEOUTS),
        )
        #: Listen ports this host's P2P applications advertise.
        self.listen_ports: Dict[str, int] = {}

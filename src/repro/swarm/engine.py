"""The adversarial closed-loop swarm engine.

Runs on the :class:`~repro.sim.closedloop.AdmissionLoop` of the
connection-level closed loop: one heap interleaves packet deliveries
with swarm *events* — tracker announces, choker rechokes,
optimistic-unchoke rotations, upload bursts, evasion reactions,
hole-punch probes, retune probes — by ``(time, seq)``, and every packet
is adjudicated by the configured :class:`~repro.filters.base.PacketFilter`
through the same :class:`~repro.sim.pipeline.ReplayPipeline` stages as
open-loop replay.

The loop closes in both directions:

* **attack** — a refused admission triggers the
  :class:`~repro.swarm.evasion.EvasionPolicy` reaction chain (re-announce,
  port hop, PEX, hole punch, churn), so the traffic the filter sees is a
  function of its own verdicts;
* **defense** — an optional :class:`~repro.swarm.retune.RetuneLoop`
  probes the measured uplink at fixed trace-time intervals and steers
  ``P_d`` (in-process or through a live ``FilterService`` control
  socket), so the filter's parameters are a function of the swarm's
  success.

Determinism: every RNG stream is derived via
:func:`repro.core.hashing.derive_seed` from the run seed and a domain
constant (engine, tracker, per-client, per-peer, per-attempt, per-link,
background) — same seed, same :class:`SwarmResult`, bit for bit,
including the pipeline's verdict fingerprint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.hashing import derive_seed
from repro.filters.base import PacketFilter, Verdict
from repro.net.headers import TCPFlags
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Direction, Packet, SocketPair
from repro.sim.closedloop import AdmissionLoop, Connection
from repro.sim.pipeline import PipelineConfig, ReplayPipeline, ReplayResult
from repro.swarm.evasion import (
    ALL_TACTICS,
    EvasionPolicy,
    TACTIC_CHURN,
    TACTIC_HOLE_PUNCH,
    TACTIC_INITIAL,
    TACTIC_PEX,
    TACTIC_PORT_HOP,
    TACTIC_REANNOUNCE,
)
from repro.swarm.peers import ClientPeer, PeerLink, SwarmPeer
from repro.swarm.retune import RetuneLoop
from repro.swarm.tracker import Tracker, TrackerEntry
from repro.workload.apps import (
    APP_BITTORRENT,
    APP_FACTORIES,
    BITTORRENT_PORTS,
    ConnectionSpec,
    Initiator,
    bittorrent_handshake,
    connection_packets,
    _listen_port,
)
from repro.workload.distributions import out_in_delay, split_bytes
from repro.workload.topology import AddressSpace, ClientNetwork, HostModel

# Seed-derivation domains — one independent splitmix64 stream family per
# subsystem, all rooted at the run seed.
_D_TRACKER = 0x5452414B
_D_CLIENT = 0x434C4E54
_D_PEER = 0x50454552
_D_ADDRESSES = 0x41445253
_D_ATTEMPT = 0x41545054
_D_LINK = 0x4C494E4B
_D_BACKGROUND = 0x42474D58

_IP_TCP_HEADERS = 40  # bare IP + TCP header bytes


@dataclass
class SwarmConfig:
    """Everything that shapes one swarm run."""

    peers: int = 16
    clients: int = 4
    duration: float = 120.0
    seed: int = 0
    network: str = "10.1.0.0"
    prefix_len: int = 16
    # Choker (BUTorrent defaults scaled down).
    unchoke_slots: int = 3
    rechoke_interval: float = 10.0
    optimistic_rounds: int = 3
    # Tracker.
    announce_interval: float = 30.0
    tracker_min_interval: float = 10.0
    numwant: int = 8
    # Transfers.
    upload_rate: int = 24_000  # bytes/s per unchoked link
    burst_packet: int = 1200
    # Peer dialing.
    max_targets: int = 2
    reverse_connect_probability: float = 0.35
    max_reverse_links: int = 2
    #: Mean lifetime of an established inbound link before the peer
    #: churns away and must re-establish (0 = links persist forever).
    #: Churn is what closes the defense loop: once ``P_d`` rises, the
    #: redials get refused and the upload decays back under the bound.
    link_lifetime: float = 45.0
    # Non-P2P background mix (collateral-damage probe).
    background_rate: float = 1.0  # connections/s across the client net
    # Admission is the closed loop's AdmissionLoop rule: a drop inside a
    # connection's first ADMISSION_WINDOW (3) packets refuses it; upload
    # bursts use window 0 and are never refused.
    throughput_interval: float = 1.0
    use_blocklist: bool = False
    evasion: EvasionPolicy = field(default_factory=EvasionPolicy)

    def __post_init__(self) -> None:
        if self.peers < 1:
            raise ValueError(f"peers must be >= 1: {self.peers}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1: {self.clients}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.background_rate < 0:
            raise ValueError(
                f"background_rate must be >= 0: {self.background_rate}"
            )


@dataclass
class SwarmResult:
    """Everything one swarm run measured."""

    peers: int
    clients: int
    duration: float
    seed: int
    # Inbound swarm connection attempts (the filter's admission decisions).
    attempts_total: int = 0
    attempts_admitted: int = 0
    attempts_refused: int = 0
    #: Attempt / success counts per tactic label (includes reannounce
    #: credits for evasion-triggered reverse connections).
    tactic_attempts: Dict[str, int] = field(default_factory=dict)
    tactic_successes: Dict[str, int] = field(default_factory=dict)
    #: Peers with at least one established inbound connection.
    peers_penetrated: int = 0
    #: Client-initiated connections to swarm peers (upload that escapes
    #: on outbound-initiated connections — no inbound admission at all).
    reverse_connections: int = 0
    hole_punch_probes: int = 0
    # Upload actually delivered to the swarm (passed outbound bytes).
    burst_upload_bytes: int = 0
    reverse_upload_bytes: int = 0
    # Non-P2P background mix (collateral damage).
    background_total: int = 0
    background_admitted: int = 0
    background_refused: int = 0
    background_refused_by_initiator: Dict[str, int] = field(default_factory=dict)
    #: Timestamps of refused swarm admissions (evasion latency analysis).
    refusal_times: List[float] = field(default_factory=list)
    #: Timestamps of refused background admissions.
    background_refusal_times: List[float] = field(default_factory=list)
    #: First refused swarm admission — when the fight started.
    evasion_onset: Optional[float] = None
    #: (time, Mbps) of admitted outbound traffic per interval.
    uplink_mbps: List[Tuple[float, float]] = field(default_factory=list)
    #: (time, measured bps, applied P_d) per retune probe.
    retune_log: List[Tuple[float, float, float]] = field(default_factory=list)
    #: Seconds from evasion onset to the upload bound re-established.
    recovery_time: Optional[float] = None
    replay: Optional[ReplayResult] = None

    @property
    def penetration_probability(self) -> float:
        """Fraction of inbound swarm attempts the filter admitted."""
        if self.attempts_total == 0:
            return 0.0
        return self.attempts_admitted / self.attempts_total

    @property
    def peer_penetration_rate(self) -> float:
        """Fraction of peers that got at least one inbound connection in."""
        return self.peers_penetrated / self.peers if self.peers else 0.0

    @property
    def background_refusal_rate(self) -> float:
        """Collateral damage: fraction of non-P2P connections refused."""
        if self.background_total == 0:
            return 0.0
        return self.background_refused / self.background_total

    @property
    def swarm_upload_bytes(self) -> int:
        return self.burst_upload_bytes + self.reverse_upload_bytes

    def as_dict(self) -> dict:
        """JSON-ready, deterministic representation (the determinism tests
        and the CI double-run diff compare this verbatim, fingerprint
        included)."""
        replay = self.replay
        return {
            "peers": self.peers,
            "clients": self.clients,
            "duration": self.duration,
            "seed": self.seed,
            "attempts": {
                "total": self.attempts_total,
                "admitted": self.attempts_admitted,
                "refused": self.attempts_refused,
            },
            "penetration_probability": self.penetration_probability,
            "peer_penetration_rate": self.peer_penetration_rate,
            "tactic_attempts": {
                tactic: self.tactic_attempts.get(tactic, 0)
                for tactic in ALL_TACTICS
            },
            "tactic_successes": {
                tactic: self.tactic_successes.get(tactic, 0)
                for tactic in ALL_TACTICS
            },
            "reverse_connections": self.reverse_connections,
            "hole_punch_probes": self.hole_punch_probes,
            "burst_upload_bytes": self.burst_upload_bytes,
            "reverse_upload_bytes": self.reverse_upload_bytes,
            "background": {
                "total": self.background_total,
                "admitted": self.background_admitted,
                "refused": self.background_refused,
                "refused_by_initiator": dict(
                    sorted(self.background_refused_by_initiator.items())
                ),
                "refusal_rate": self.background_refusal_rate,
            },
            "refusal_times": [round(t, 6) for t in self.refusal_times],
            "evasion_onset": self.evasion_onset,
            "uplink_mbps": [
                (round(t, 6), round(mbps, 9)) for t, mbps in self.uplink_mbps
            ],
            "retune_log": [
                (round(t, 6), round(bps, 3), round(p, 9))
                for t, bps, p in self.retune_log
            ],
            "recovery_time": self.recovery_time,
            "packets": replay.packets if replay else 0,
            "inbound_dropped": replay.inbound_dropped if replay else 0,
            "fingerprint": replay.fingerprint if replay else None,
        }


class _Role:
    """What a swarm connection is: the tag of its loop ``Connection``."""

    __slots__ = ("kind", "peer", "client", "tactic", "link", "evasive")

    def __init__(self, kind, peer=None, client=None, tactic="", link=None,
                 evasive=False):
        self.kind = kind  # "attempt" | "background" | "reverse" | "burst"
        self.peer = peer
        self.client = client
        self.tactic = tactic
        self.link = link
        self.evasive = evasive


class SwarmSimulator:
    """Run one adversarial swarm against one packet filter."""

    def __init__(
        self,
        packet_filter: PacketFilter,
        config: Optional[SwarmConfig] = None,
        retune: Optional[RetuneLoop] = None,
    ) -> None:
        self.filter = packet_filter
        self.config = config or SwarmConfig()
        self.retune = retune

    # -- setup ----------------------------------------------------------

    def _build_world(self):
        config = self.config
        seed = config.seed
        network = ClientNetwork(
            config.network, config.prefix_len, hosts=config.clients
        )
        addresses = AddressSpace(network, seed=derive_seed(seed, _D_ADDRESSES))
        clients: List[ClientPeer] = []
        for index, addr in enumerate(network.clients):
            rng = random.Random(derive_seed(derive_seed(seed, _D_CLIENT), index))
            host = HostModel(addr, rng)
            listen = _listen_port(host, rng, APP_BITTORRENT, BITTORRENT_PORTS)
            clients.append(ClientPeer(
                index, host, listen, rng,
                unchoke_slots=config.unchoke_slots,
                optimistic_rounds=config.optimistic_rounds,
            ))
        peer_addrs = addresses.sticky_peers("swarm", config.peers)
        peers: List[SwarmPeer] = []
        for index, addr in enumerate(peer_addrs):
            rng = random.Random(derive_seed(derive_seed(seed, _D_PEER), index))
            listen = rng.choice(BITTORRENT_PORTS)
            peers.append(SwarmPeer(index, addr, listen, rng))
        tracker = Tracker(
            rng=random.Random(derive_seed(seed, _D_TRACKER)),
            min_interval=config.tracker_min_interval,
            announce_interval=config.announce_interval,
            numwant=config.numwant,
        )
        for client in clients:
            tracker.register(TrackerEntry(
                "client", client.index, client.addr, client.listen_port
            ))
        for peer in peers:
            tracker.register(TrackerEntry(
                "peer", peer.index, peer.addr, peer.listen_port
            ))
        return network, addresses, clients, peers, tracker

    def _background_specs(self, clients, addresses) -> List[ConnectionSpec]:
        """Poisson non-P2P arrivals across the inside hosts (the mix the
        collateral-damage metric watches)."""
        config = self.config
        if config.background_rate <= 0:
            return []
        rng = random.Random(derive_seed(config.seed, _D_BACKGROUND))
        apps = [("http", 0.50), ("dns", 0.25), ("other", 0.15), ("ftp", 0.10)]
        specs: List[ConnectionSpec] = []
        now = 0.0
        while True:
            now += rng.expovariate(config.background_rate)
            if now >= config.duration:
                break
            draw = rng.random()
            cumulative = 0.0
            app = apps[-1][0]
            for name, weight in apps:
                cumulative += weight
                if draw < cumulative:
                    app = name
                    break
            client = rng.choice(clients)
            specs.extend(APP_FACTORIES[app](rng, client.host, addresses, now))
        specs.sort(key=lambda spec: (spec.start, spec.client_port))
        return specs

    # -- the event loop -------------------------------------------------

    def run(self) -> SwarmResult:
        config = self.config
        seed = config.seed
        duration = config.duration
        pipeline = ReplayPipeline(PipelineConfig(
            packet_filter=self.filter,
            use_blocklist=config.use_blocklist,
            throughput_interval=config.throughput_interval,
            record_fingerprint=True,
        ))
        network, addresses, clients, peers, tracker = self._build_world()
        result = SwarmResult(
            peers=config.peers, clients=config.clients,
            duration=duration, seed=seed,
        )
        self._result = result
        self._pipeline = pipeline
        self._clients = clients
        self._peers = peers
        self._tracker = tracker

        self._attempt_id = 0
        self._link_id = 0
        self._window_bytes = 0
        loop = self._loop = AdmissionLoop(
            pipeline, self._on_admitted, self._on_refused, self._account_outbound
        )

        # Bootstrap: staggered first announces, choker ticks, background
        # arrivals, retune probes.
        for client in clients:
            loop.at(0.2 + 0.1 * client.index, self._announce_client, client)
            loop.at(config.rechoke_interval + 0.01 * client.index,
                    self._rechoke, client)
        for peer in peers:
            jitter = peer.rng.uniform(0.0, min(5.0, duration / 4))
            loop.at(jitter, self._announce_peer, peer, False)
        for spec in self._background_specs(clients, addresses):
            loop.at(spec.start, self._launch_background, spec)
        if self.retune is not None:
            loop.at(self.retune.interval, self._retune_probe)
        loop.run()

        result.replay = pipeline.finalize()
        result.uplink_mbps = pipeline.router.passed.series_mbps(Direction.OUTBOUND)
        result.peers_penetrated = sum(1 for peer in peers if peer.penetrated)
        if self.retune is not None:
            result.retune_log = list(self.retune.log)
            result.recovery_time = self.retune.recovery_time(
                result.evasion_onset
            )
        return result

    # -- packet accounting ----------------------------------------------

    def _account_outbound(self, connection: Connection, packet: Packet) -> None:
        self._window_bytes += packet.size
        now, size = packet.timestamp, packet.size
        role = connection.tag
        if role.kind == "burst":
            link = role.link
            link.measure.update(now, size)
            link.peer.measure.update(now, size)
            self._result.burst_upload_bytes += size
        elif role.kind == "reverse" and role.peer is not None:
            role.peer.measure.update(now, size)
            self._result.reverse_upload_bytes += size

    # -- admission outcomes ---------------------------------------------

    def _on_admitted(self, connection: Connection, now: float) -> None:
        result = self._result
        role = connection.tag
        if role.kind == "attempt":
            peer, client = role.peer, role.client
            result.attempts_admitted += 1
            result.tactic_successes[role.tactic] = (
                result.tactic_successes.get(role.tactic, 0) + 1
            )
            peer.in_flight.pop(client.index, None)
            first = connection.schedule[0]
            link = self._make_link(
                client, peer, role.tactic, now,
                outbound=False,
                client_port=client.listen_port,
                remote_port=first.pair.src_port
                if first.direction is Direction.INBOUND
                else first.pair.dst_port,
            )
            client.add_link(link)
            peer.links[client.index] = link
            peer.was_penetrated = True
            # Fresh link: the old refusal chain is forgiven — a later
            # churn-and-redial gets a full evasion budget again.
            peer.refusals.pop(client.index, None)
            if client.free_slots() > 0:
                link.unchoked = True
                self._loop.at(now + 0.1, self._launch_burst, link)
            lifetime = self.config.link_lifetime
            if lifetime > 0:
                churn_at = now + lifetime * link.rng.uniform(0.75, 1.25)
                if churn_at < self.config.duration:
                    self._loop.at(churn_at, self._disconnect, link)
        elif role.kind == "reverse":
            peer, client = role.peer, role.client
            result.reverse_connections += 1
            if role.evasive:
                result.tactic_successes[TACTIC_REANNOUNCE] = (
                    result.tactic_successes.get(TACTIC_REANNOUNCE, 0) + 1
                )
            link = self._make_link(client, peer, TACTIC_REANNOUNCE if
                                   role.evasive else TACTIC_INITIAL, now,
                                   outbound=True)
            peer.links.setdefault(client.index, link)
        elif role.kind == "background":
            result.background_admitted += 1

    def _on_refused(self, connection: Connection, now: float) -> None:
        result = self._result
        role = connection.tag
        if role.kind == "background":
            result.background_refused += 1
            initiator = role.tactic  # carries the initiator label
            result.background_refused_by_initiator[initiator] = (
                result.background_refused_by_initiator.get(initiator, 0) + 1
            )
            result.background_refusal_times.append(now)
            return
        if role.kind == "reverse":
            # Client-initiated dial refused (blocklist or chain member
            # dropping outbound) — rare; no evasion from the client side.
            return
        # Inbound swarm attempt.
        peer, client = role.peer, role.client
        result.attempts_refused += 1
        result.refusal_times.append(now)
        if result.evasion_onset is None:
            result.evasion_onset = now
        peer.in_flight.pop(client.index, None)
        refusals = peer.refusals.get(client.index, 0) + 1
        peer.refusals[client.index] = refusals
        policy = self.config.evasion
        if not policy.any_enabled or refusals > policy.max_attempts:
            peer.abandoned[client.index] = True
            return
        tactic = policy.tactic_for(refusals - 1)
        delay = policy.backoff_for(refusals - 1)
        when = now + delay
        if when >= self.config.duration:
            return
        at = self._loop.at
        if tactic == TACTIC_PORT_HOP:
            at(when, self._launch_attempt, peer, client, TACTIC_PORT_HOP, None)
        elif tactic == TACTIC_REANNOUNCE:
            earliest = self._tracker.earliest_announce("peer", peer.index)
            at(max(when, earliest), self._announce_peer, peer, True)
        elif tactic == TACTIC_HOLE_PUNCH:
            at(when, self._hole_punch, peer, client)
        elif tactic == TACTIC_PEX:
            at(when, self._pex_retry, peer, client)
        elif tactic == TACTIC_CHURN:
            at(when, self._churn, peer, client)

    def _make_link(self, client, peer, tactic, now, outbound,
                   client_port=0, remote_port=0) -> PeerLink:
        self._link_id += 1
        rng = random.Random(
            derive_seed(derive_seed(self.config.seed, _D_LINK), self._link_id)
        )
        return PeerLink(
            self._link_id, client, peer, tactic, now, rng,
            outbound=outbound, client_port=client_port,
            remote_port=remote_port,
        )

    # -- event handlers --------------------------------------------------

    # Tracker interactions.

    def _announce_peer(self, now: float, peer: SwarmPeer, evasive: bool) -> None:
        outcome = self._tracker.announce("peer", peer.index, now, evasive)
        if not outcome.accepted:
            if outcome.retry_at < self.config.duration:
                self._loop.at(outcome.retry_at, self._announce_peer, peer, evasive)
            return
        peer.evasive_announce = evasive
        for entry in outcome.sample:
            peer.learn(entry.index)
        tactic = TACTIC_REANNOUNCE if evasive else TACTIC_INITIAL
        self._loop.at(now + 0.2, self._connect, peer, tactic)
        if not evasive:
            next_announce = now + outcome.interval
            if next_announce < self.config.duration:
                self._loop.at(next_announce, self._announce_peer, peer, False)

    def _announce_client(self, now: float, client: ClientPeer) -> None:
        outcome = self._tracker.announce("client", client.index, now)
        if outcome.accepted:
            config = self.config
            reverse_links = sum(1 for flag in client.dialed.values() if flag)
            for position, entry in enumerate(outcome.sample):
                if entry.index in client.dialed:
                    continue
                if reverse_links >= config.max_reverse_links:
                    break
                if client.rng.random() < config.reverse_connect_probability:
                    client.dialed[entry.index] = True
                    reverse_links += 1
                    peer = self._peers[entry.index]
                    self._loop.at(
                        now + 0.3 * (position + 1), self._launch_reverse,
                        client, peer, peer.evasive_announce,
                    )
            next_announce = now + outcome.interval
        else:
            next_announce = outcome.retry_at
        if next_announce < self.config.duration:
            self._loop.at(next_announce, self._announce_client, client)

    # Peer dialing.

    def _connect(self, now: float, peer: SwarmPeer, tactic: str) -> None:
        if now >= self.config.duration:
            return
        if len(peer.in_flight) + len(peer.links) >= self.config.max_targets:
            return
        targets = peer.candidate_targets()
        if not targets:
            return
        target = peer.rng.choice(targets)
        self._loop.at(now, self._launch_attempt, peer, self._clients[target],
                      tactic, None)
        if len(targets) > 1:
            self._loop.at(now + 2.0, self._connect, peer, tactic)

    def _launch_attempt(
        self,
        now: float,
        peer: SwarmPeer,
        client: ClientPeer,
        tactic: str,
        remote_port: Optional[int],
    ) -> None:
        if now >= self.config.duration:
            return
        if (client.index in peer.in_flight or client.index in peer.links
                or client.index in peer.abandoned):
            return
        peer.in_flight[client.index] = True
        self._attempt_id += 1
        rng = random.Random(
            derive_seed(
                derive_seed(self.config.seed, _D_ATTEMPT), self._attempt_id
            )
        )
        if remote_port is None:
            remote_port = peer.next_port()
        spec = ConnectionSpec(
            app=APP_BITTORRENT,
            start=now,
            protocol=IPPROTO_TCP,
            client_addr=client.addr,
            client_port=client.listen_port,
            remote_addr=peer.addr,
            remote_port=remote_port,
            initiator=Initiator.REMOTE,
            request_payload=bittorrent_handshake(rng),
            response_payload=bittorrent_handshake(rng),
            bytes_client_to_remote=rng.randint(200, 1200),
            bytes_remote_to_client=rng.randint(800, 3000),
            duration=rng.uniform(2.0, 4.0),
            rtt=out_in_delay(rng) * 0.5 + 0.01,
        )
        schedule = connection_packets(spec, rng)
        if not schedule:
            peer.in_flight.pop(client.index, None)
            return
        result = self._result
        result.attempts_total += 1
        result.tactic_attempts[tactic] = (
            result.tactic_attempts.get(tactic, 0) + 1
        )
        self._loop.connect(
            schedule, _Role("attempt", peer=peer, client=client, tactic=tactic)
        )

    # Evasion tactics.

    def _hole_punch(self, now: float, peer: SwarmPeer, client: ClientPeer) -> None:
        """Tracker-coordinated rendezvous: the inside client probes
        outbound *from its listen port*, then the peer dials that port
        from a fresh (different) ephemeral port.  Under
        ``FieldMode.HOLE_PUNCHING`` the probe's mark omits the remote
        port, so the inbound SYN matches; under ``STRICT`` it cannot."""
        if now >= self.config.duration:
            return
        if (client.index in peer.in_flight or client.index in peer.links
                or client.index in peer.abandoned):
            return
        probe_port = peer.next_port()
        probe = Packet(
            now,
            SocketPair(
                IPPROTO_TCP, client.addr, client.listen_port,
                peer.addr, probe_port,
            ),
            size=_IP_TCP_HEADERS,
            flags=TCPFlags.SYN,
            direction=Direction.OUTBOUND,
        )
        verdict = self._pipeline.process(probe)
        if verdict is Verdict.PASS:
            self._window_bytes += probe.size
        self._result.hole_punch_probes += 1
        # NAT rewrites source ports: the inbound connect *must* come from
        # a different ephemeral port than the probe advertised.
        connect_port = peer.next_port()
        self._loop.at(
            now + self.config.evasion.hole_punch_delay, self._launch_attempt,
            peer, client, TACTIC_HOLE_PUNCH, connect_port,
        )

    def _pex_retry(self, now: float, peer: SwarmPeer, client: ClientPeer) -> None:
        """Gossip with a connected peer, learn fresh inside targets, and
        attempt one this peer never tried."""
        connected = [
            other for other in self._peers
            if other.index != peer.index and other.links
        ]
        if connected:
            neighbor = peer.rng.choice(connected)
            for index in neighbor.known_clients:
                peer.learn(index)
        targets = [
            index for index in peer.candidate_targets()
            if index not in peer.refusals
        ]
        if not targets:
            targets = peer.candidate_targets()
        if not targets:
            return
        target = peer.rng.choice(targets)
        self._loop.at(now, self._launch_attempt, peer, self._clients[target],
                      TACTIC_PEX, None)

    def _churn(self, now: float, peer: SwarmPeer, client: ClientPeer) -> None:
        """Rotate the peer's own optimistic slot: try a *different* known
        inside member than the one that just refused."""
        targets = [
            index for index in peer.candidate_targets()
            if index != client.index
        ]
        if not targets:
            targets = peer.candidate_targets()
        if not targets:
            return
        target = peer.rng.choice(targets)
        self._loop.at(now, self._launch_attempt, peer, self._clients[target],
                      TACTIC_CHURN, None)

    # Reverse connections (client dials a tracker-advertised peer).

    def _launch_reverse(
        self, now: float, client: ClientPeer, peer: SwarmPeer, evasive: bool
    ) -> None:
        if now >= self.config.duration:
            return
        config = self.config
        self._attempt_id += 1
        rng = random.Random(
            derive_seed(derive_seed(config.seed, _D_ATTEMPT), self._attempt_id)
        )
        remaining = max(5.0, config.duration - now)
        span = min(rng.uniform(20.0, 60.0), remaining)
        spec = ConnectionSpec(
            app=APP_BITTORRENT,
            start=now,
            protocol=IPPROTO_TCP,
            client_addr=client.addr,
            client_port=client.host.ports.allocate(now),
            remote_addr=peer.addr,
            remote_port=peer.listen_port,
            initiator=Initiator.CLIENT,
            request_payload=bittorrent_handshake(rng),
            response_payload=bittorrent_handshake(rng),
            # Tit-for-tat: the leeching client still uploads pieces.
            bytes_client_to_remote=int(config.upload_rate * 0.5 * span),
            bytes_remote_to_client=int(config.upload_rate * 1.5 * span),
            duration=span,
            rtt=out_in_delay(rng) * 0.5 + 0.01,
        )
        schedule = connection_packets(spec, rng)
        if not schedule:
            return
        if evasive:
            self._result.tactic_attempts[TACTIC_REANNOUNCE] = (
                self._result.tactic_attempts.get(TACTIC_REANNOUNCE, 0) + 1
            )
        self._loop.connect(
            schedule,
            _Role("reverse", peer=peer, client=client, evasive=evasive),
        )

    # Choker.

    def _rechoke(self, now: float, client: ClientPeer) -> None:
        for link in client.rechoke(now):
            self._loop.at(now + 0.05, self._launch_burst, link)
        next_tick = now + self.config.rechoke_interval
        if next_tick < self.config.duration:
            self._loop.at(next_tick, self._rechoke, client)

    def _launch_burst(self, now: float, link: PeerLink) -> None:
        """One upload burst on an unchoked link, paced over the rechoke
        window; the next burst chains while the link stays unchoked."""
        if not link.unchoked or now >= self.config.duration:
            return
        config = self.config
        span = min(config.rechoke_interval, config.duration - now)
        total = int(config.upload_rate * span)
        if total <= 0:
            return
        rng = link.rng
        chunks = split_bytes(rng, total, config.burst_packet)
        pair = SocketPair(
            IPPROTO_TCP, link.client.addr, link.client_port,
            link.peer.addr, link.remote_port,
        )
        inverse = pair.inverse
        psh_ack = TCPFlags.PSH | TCPFlags.ACK
        ack = TCPFlags.ACK
        gap = span / (len(chunks) + 1)
        packets: List[Packet] = []
        for index, chunk in enumerate(chunks, start=1):
            when = now + index * gap * (1.0 + 0.1 * (rng.random() - 0.5))
            packets.append(Packet(
                when, pair, size=_IP_TCP_HEADERS + chunk,
                flags=psh_ack, direction=Direction.OUTBOUND,
            ))
            if index % 2 == 0:
                ack_delay = min(out_in_delay(rng), gap * 1.8, 1.0)
                packets.append(Packet(
                    when + ack_delay, inverse, size=_IP_TCP_HEADERS,
                    flags=ack, direction=Direction.INBOUND,
                ))
        packets.sort(key=lambda packet: packet.timestamp)
        self._loop.connect(
            packets,
            _Role("burst", peer=link.peer, client=link.client, link=link),
            window=0,
        )
        self._loop.at(now + span, self._launch_burst, link)

    def _disconnect(self, now: float, link: PeerLink) -> None:
        """Swarm churn: the peer drops an established inbound link and,
        unless it has given up on the client, redials shortly after —
        which is a *new* admission the filter's current ``P_d`` judges."""
        client, peer = link.client, link.peer
        link.unchoked = False
        client.links.pop(link.link_id, None)
        if peer.links.get(client.index) is link:
            del peer.links[client.index]
        redial_at = now + 1.0 + peer.rng.uniform(0.0, 2.0)
        if client.index not in peer.abandoned and redial_at < self.config.duration:
            self._loop.at(redial_at, self._connect, peer, TACTIC_INITIAL)

    # Background mix.

    def _launch_background(self, now: float, spec: ConnectionSpec) -> None:
        self._attempt_id += 1
        rng = random.Random(
            derive_seed(
                derive_seed(self.config.seed, _D_ATTEMPT), self._attempt_id
            )
        )
        schedule = connection_packets(spec, rng)
        if not schedule:
            return
        self._result.background_total += 1
        self._loop.connect(
            schedule, _Role("background", tactic=spec.initiator.value)
        )

    # Defense.

    def _retune_probe(self, now: float) -> None:
        retune = self.retune
        measured_bps = self._window_bytes * 8.0 / retune.interval
        self._window_bytes = 0
        retune.probe(now, measured_bps)
        next_probe = now + retune.interval
        if next_probe <= self.config.duration:
            self._loop.at(next_probe, self._retune_probe)

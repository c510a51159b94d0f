"""The trace synthesiser: connection arrivals → merged packet stream.

Connections arrive as a Poisson process over the trace duration; each
arrival picks a client host and an application model (Table 2 mix by
default).  A small fraction of client-initiated P2P transfers schedule a
*reconnect* to the same remote endpoint reusing the same source port after
the host's OS port-reuse timeout — the mechanism behind the Figure 5
port-reuse peaks at multiples of 60 seconds.

Packet streams are produced by a lazy merge so memory stays
proportional to the number of *concurrent* connections, not trace length.

The synthesiser is split in two phases with a determinism contract
between them:

* **spec synthesis** (:meth:`TraceGenerator.specs`) walks one shared RNG
  through the Poisson arrival loop — cheap, inherently serial, and the
  single source of truth for connection count and ordering;
* **materialization** expands each spec to packet rows with a *private*
  RNG seeded by ``derive_seed(config.seed, spec_index)`` — no spec's
  rows depend on any other spec's draws, which is what lets the batch
  materializer (:mod:`repro.workload.parallel`) expand specs a batch at
  a time, in columns, and still produce the rows of a spec-by-spec
  expansion.  :meth:`TraceGenerator.packets` keeps its own heap merge
  over per-connection ``Packet`` schedules.
"""

from __future__ import annotations

import heapq
import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.hashing import derive_seed
from repro.net.headers import encode_packet
from repro.net.inet import IPPROTO_TCP
from repro.net.packet import Packet
from repro.net.pcap import PcapWriter
from repro.net.table import PacketTable
from repro.workload.apps import (
    APP_FACTORIES,
    ConnectionSpec,
    Initiator,
    connection_packets,
)
from repro.workload.calibrate import DEFAULT_APP_MIX
from repro.workload.parallel import materialize_tables
from repro.workload.topology import AddressSpace, ClientNetwork, HostModel

#: :meth:`TraceGenerator.packet_list` warns once past this many ``Packet``
#: objects — at that size the columnar stream (:meth:`TraceGenerator.table`
#: / :meth:`TraceGenerator.iter_tables`) is the right representation.
MATERIALIZE_WARNING_THRESHOLD = 5_000_000


@dataclass
class TraceConfig:
    """Knobs of a synthetic trace.

    The defaults produce a small-but-representative client network; the
    benchmark harness scales ``duration`` and ``connection_rate`` per
    experiment.  ``connection_rate`` is arrivals per second; with the
    default application mix one arrival averages roughly 70 kB and 50
    packets, so aggregate offered load ≈ ``connection_rate × 0.56`` Mbps.
    """

    duration: float = 120.0
    connection_rate: float = 20.0
    hosts: int = 120
    seed: int = 7
    network: str = "10.1.0.0"
    prefix_len: int = 16
    app_mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_APP_MIX))
    #: Fraction of client-initiated P2P TCP transfers that later reconnect
    #: to the same endpoint with the same source port (port-reuse artifact).
    port_reuse_fraction: float = 0.02

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.connection_rate <= 0:
            raise ValueError(f"connection_rate must be positive: {self.connection_rate}")
        if self.hosts <= 0:
            raise ValueError(f"hosts must be positive: {self.hosts}")
        if not self.app_mix:
            raise ValueError("app_mix must not be empty")
        unknown = set(self.app_mix) - set(APP_FACTORIES)
        if unknown:
            raise ValueError(f"unknown apps in mix: {sorted(unknown)}")
        if not 0.0 <= self.port_reuse_fraction <= 1.0:
            raise ValueError(f"port_reuse_fraction out of [0,1]: {self.port_reuse_fraction}")


class TraceGenerator:
    """Deterministic synthetic-trace factory for a :class:`TraceConfig`."""

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        self.network = ClientNetwork(
            self.config.network, self.config.prefix_len, hosts=self.config.hosts
        )
        self.addresses = AddressSpace(self.network, seed=self.config.seed)
        self._rng = random.Random(self.config.seed)
        self._hosts: Dict[int, HostModel] = {}
        self._specs: Optional[List[ConnectionSpec]] = None

    def _host(self, addr: int) -> HostModel:
        host = self._hosts.get(addr)
        if host is None:
            host = HostModel(addr, self._rng)
            self._hosts[addr] = host
        return host

    # ------------------------------------------------------------------
    # Connection specs
    # ------------------------------------------------------------------

    def specs(self) -> List[ConnectionSpec]:
        """All connection specifications of the trace (ground truth)."""
        if self._specs is not None:
            return self._specs
        rng = self._rng
        config = self.config
        apps = list(config.app_mix.keys())
        weights = list(config.app_mix.values())
        specs: List[ConnectionSpec] = []

        now = 0.0
        while True:
            now += rng.expovariate(config.connection_rate)
            if now >= config.duration:
                break
            app = rng.choices(apps, weights=weights, k=1)[0]
            host = self._host(self.network.random_client(rng))
            new_specs = APP_FACTORIES[app](rng, host, self.addresses, now)
            specs.extend(new_specs)
            for spec in new_specs:
                reconnect = self._maybe_port_reuse_reconnect(rng, host, spec)
                if reconnect is not None:
                    specs.append(reconnect)

        specs.sort(key=lambda spec: spec.start)
        self._specs = specs
        return specs

    def _maybe_port_reuse_reconnect(
        self, rng: random.Random, host: HostModel, spec: ConnectionSpec
    ) -> Optional[ConnectionSpec]:
        """Re-establish a P2P session on the same five-tuple after the
        peer's retry timer (drawn from the 60 s-multiple OS timeouts).

        The reconnect is *remote-initiated* — a peer calling back on an
        endpoint it remembers (hole-punched mapping / retry) — so its
        first packet is inbound and hits the stale σ entry in the out-in
        delay measurement, producing the Figure 5-a artifact peaks the
        paper attributes to port reuse within its T_e = 600 s window.
        """
        if (
            spec.protocol != IPPROTO_TCP
            or spec.initiator is not Initiator.CLIENT
            or not spec.is_p2p
            or rng.random() >= self.config.port_reuse_fraction
        ):
            return None
        gap = host.ports.reuse_timeout * rng.choice((1, 2)) + rng.uniform(0.0, 1.5)
        restart = spec.end + gap
        if restart >= self.config.duration:
            return None
        return ConnectionSpec(
            app=spec.app,
            start=restart,
            protocol=spec.protocol,
            client_addr=spec.client_addr,
            client_port=spec.client_port,  # the remembered endpoint
            remote_addr=spec.remote_addr,
            remote_port=spec.remote_port,
            initiator=Initiator.REMOTE,
            request_payload=spec.response_payload,
            response_payload=spec.request_payload,
            bytes_client_to_remote=spec.bytes_client_to_remote // 2,
            bytes_remote_to_client=spec.bytes_remote_to_client // 2,
            duration=max(1.0, spec.duration / 2),
            rtt=spec.rtt,
        )

    # ------------------------------------------------------------------
    # Packet stream
    # ------------------------------------------------------------------

    def packets(self) -> Iterator[Packet]:
        """Lazily merged, timestamp-ordered packet stream of the trace."""
        specs = self.specs()
        heap: List[Tuple[float, int, int, List[Packet]]] = []
        admit_index = 0
        counter = 0

        while heap or admit_index < len(specs):
            while admit_index < len(specs) and (
                not heap or specs[admit_index].start <= heap[0][0]
            ):
                spec = specs[admit_index]
                rng = random.Random(derive_seed(self.config.seed, admit_index))
                schedule = connection_packets(spec, rng)
                if schedule:
                    heapq.heappush(
                        heap, (schedule[0].timestamp, counter, 0, schedule)
                    )
                    counter += 1
                admit_index += 1
            timestamp, ident, position, schedule = heapq.heappop(heap)
            yield schedule[position]
            if position + 1 < len(schedule):
                heapq.heappush(
                    heap,
                    (schedule[position + 1].timestamp, ident, position + 1, schedule),
                )

    def packet_list(self) -> List[Packet]:
        """The whole trace in memory (convenient for repeated replays).

        Warns once past :data:`MATERIALIZE_WARNING_THRESHOLD` packets —
        ``Packet`` objects cost two orders of magnitude more memory than
        columnar rows, so 10M+-packet traces belong in :meth:`table` /
        :meth:`iter_tables`.
        """
        packets: List[Packet] = []
        threshold: Optional[int] = MATERIALIZE_WARNING_THRESHOLD
        for packet in self.packets():
            packets.append(packet)
            if threshold is not None and len(packets) >= threshold:
                threshold = None
                warnings.warn(
                    f"packet_list() is materializing more than {len(packets):,} "
                    f"Packet objects; use TraceGenerator.table() or "
                    f"iter_tables() for traces this large",
                    stacklevel=2,
                )
        return packets

    # ------------------------------------------------------------------
    # Columnar packet stream
    # ------------------------------------------------------------------

    def iter_tables(
        self, chunk_size: Optional[int] = 65536
    ) -> Iterator[PacketTable]:
        """The trace as a stream of :class:`PacketTable` chunks.

        Emits the *same packets in the same order* as :meth:`packets`
        (``tests/workload/test_table_generation.py`` holds the two
        representations field-identical), but never builds a
        ``List[Packet]``: batches of connections expand straight to
        columns, rows are merged by sorting — valid because every packet
        of a connection is timestamped at or after its spec's start, so a
        row is final once the next unexpanded spec starts later than it —
        and chunks of at most ``chunk_size`` rows are emitted as they
        fill.  Memory stays bounded by the rows of *concurrent*
        connections plus a batch and one chunk.

        All chunks share one growing interned-flow pool
        (:meth:`PacketTable.spawn`), so ``pair_ids`` are stable across the
        whole stream and consumers can carry per-flow state between
        chunks.  ``chunk_size=None`` emits a single table at the end —
        that is :meth:`table`.  The batches run through one materializer,
        :func:`repro.workload.parallel.materialize_tables`.
        """
        yield from materialize_tables(self, chunk_size)

    def table(self) -> PacketTable:
        """The whole trace as one :class:`PacketTable`."""
        result: Optional[PacketTable] = None
        for chunk in self.iter_tables(chunk_size=None):
            result = chunk
        return result if result is not None else PacketTable()

    def write_pcap(self, path: str, snaplen: int = 65535, progress=None) -> int:
        """Serialize the trace to a pcap file in wire format.

        Bulk data packets carry zero padding up to their declared size so
        the file is structurally faithful; identification payloads are real.
        Returns the number of packets written.  ``progress``, if given, is
        called as ``progress(packets_written, trace_time)`` after every
        chunk (see :class:`repro.workload.progress.ProgressReporter`).
        """
        written = 0
        with open(path, "wb") as fileobj:
            writer = PcapWriter(fileobj, snaplen=snaplen)
            # Stream columnar chunks and read rows through the reused
            # view cursor: bounded memory, no per-packet objects.
            last_timestamp = 0.0
            for chunk in self.iter_tables():
                for view in chunk.iter_views():
                    pair = view.pair
                    transport = 20 if pair.protocol == IPPROTO_TCP else 8
                    payload_room = max(0, view.size - 20 - transport)
                    data = encode_packet(
                        pair,
                        payload=view.payload[:payload_room],
                        flags=view.flags,
                        pad_to=payload_room,
                    )
                    writer.write(view.timestamp, data)
                    written += 1
                    last_timestamp = view.timestamp
                if progress is not None:
                    progress(written, last_timestamp)
        return written


def generate_trace(config: Optional[TraceConfig] = None) -> List[Packet]:
    """One-call convenience: a full in-memory synthetic trace.

    The full object list is built — see :meth:`TraceGenerator.packet_list`
    for the size warning; tables are the representation for 10M+-packet
    traces.
    """
    return TraceGenerator(config).packet_list()

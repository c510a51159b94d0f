"""Closed-loop simulation: filtering with traffic feedback.

Section 5.3's caveat: "Since the simulation is done with replayed packet
trace, as the simulation is unable to block the outbound connections that
may [be] triggered by previously blocked inbound requests, the effect of
the traffic filtering is limited.  We believe that the filter can perform
better in a real network environment."

This module tests that belief.  Instead of replaying a fixed packet
stream, it simulates at the *connection* level: when a connection's
opening packets are refused by the filter, the connection never happens —
no handshake completion, no upload triggered, exactly as in a live
deployment.  Mid-stream losses of established connections are treated as
recoverable (TCP retransmission), so only admission is gated.  The heap
and that rule are :class:`AdmissionLoop`, which the swarm plane
(:mod:`repro.swarm.engine`) runs too.

The result recovers the clean monotone relationship between the
Equation 1 thresholds and the bounded uplink throughput that open-loop
replay obscures.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hashing import derive_seed
from repro.filters.base import PacketFilter, Verdict
from repro.net.packet import Direction, Packet
from repro.sim.metrics import ThroughputSeries
from repro.sim.pipeline import PipelineConfig, ReplayPipeline, ReplayResult
from repro.workload.apps import ConnectionSpec, connection_packets

#: How many packets into a connection a drop still refuses it (the
#: handshake and first request); a later drop is a recoverable loss.
ADMISSION_WINDOW = 3


def retry_stream_seed(seed: int, ident: int, attempt: int) -> int:
    """RNG stream for retry ``attempt`` of the connection refused with
    heap ``seq`` ``ident`` (its 0-based admission ordinal, not a spec index).

    A nested :func:`derive_seed` chain keeps retry streams in their own
    splitmix64 domain.  (The previous ``ident + 1_000_000`` additive
    offset collided with the primary per-spec streams once a workload
    carried a million connections.)
    """
    return derive_seed(derive_seed(seed, ident), attempt)


@dataclass
class ClosedLoopResult:
    """Outcome of a closed-loop run."""

    #: Traffic that actually traversed the link (admitted connections).
    passed: ThroughputSeries
    #: Traffic the workload *would* have offered with no filter at all.
    offered: ThroughputSeries
    connections_total: int = 0
    #: Admitted and refused count attempts: a refused connection may
    #: retry, so ``connections_admitted + connections_refused ==
    #: connections_total + connections_retried``.
    connections_admitted: int = 0
    connections_refused: int = 0
    #: Retry attempts that met the filter.
    connections_retried: int = 0
    #: Refused connections by initiator ("client"/"remote").
    refused_by_initiator: Dict[str, int] = field(default_factory=dict)
    #: Trace timestamp of every refusal, in refusal order — when the
    #: filter pushed back, not just how often (reaction-latency input
    #: for closed-loop consumers like the swarm plane).
    refusal_times: List[float] = field(default_factory=list)
    packets_sent: int = 0
    #: The underlying engine result — same shape as open-loop replay
    #: (router with offered/passed series, drop windows, blocklist).
    replay: Optional[ReplayResult] = None

    @property
    def admission_rate(self) -> float:
        """Fraction of offered connections that established."""
        if self.connections_total == 0:
            return 0.0
        return self.connections_admitted / self.connections_total


class Connection:
    """One connection in an :class:`AdmissionLoop`: its packet schedule,
    the next packet's position, the heap ``seq`` it keeps for every
    re-push, its admission window and the caller's ``tag``."""

    __slots__ = ("schedule", "position", "window", "seq", "admitted", "tag")

    def __init__(self, schedule: List[Packet], seq: int, tag, window: int) -> None:
        self.schedule = schedule
        self.position = 0
        self.window = window
        self.seq = seq
        self.admitted = False
        self.tag = tag


class AdmissionLoop:
    """One heap of connection schedules and timed events, and the
    admission rule of every closed loop.

    Heap entries are ``(time, seq, item)``: ``seq`` is a 0-based counter
    taken at push time, and a connection keeps its ``seq`` when it is
    re-pushed for its next packet.  An item is a :class:`Connection` or
    an event ``(handler, args)``, fired as ``handler(time, *args)``.

    A popped connection sends its next packet through
    ``pipeline.process`` (looked up when :meth:`run` starts), then:

    * a drop at a position below its ``window`` refuses it —
      ``refused(connection, now)`` runs and its later packets never exist;
    * a pass that takes it past ``window`` packets admits it, and so does
      its last packet, passed or lost — ``admitted(connection, now)``
      runs once, so every connection ends admitted or refused;
    * any other drop is a recoverable loss (TCP retransmission).

    ``outbound(connection, packet)`` sees every passed outbound packet.
    ``before(next_time)`` runs ahead of every pop with the heap's next
    time (``inf`` when empty) and may add connections; the loop ends
    when the heap is still empty after it.
    """

    def __init__(
        self,
        pipeline: ReplayPipeline,
        admitted: Callable[[Connection, float], None],
        refused: Callable[[Connection, float], None],
        outbound: Optional[Callable[[Connection, Packet], None]] = None,
        before: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.pipeline = pipeline
        self.admitted = admitted
        self.refused = refused
        self.outbound = outbound
        self.before = before
        self._heap: List[Tuple[float, int, object]] = []
        self._seq = 0

    @property
    def next_time(self) -> float:
        """Time of the earliest entry (``inf`` when the heap is empty)."""
        return self._heap[0][0] if self._heap else _INF

    def connect(self, schedule: List[Packet], tag=None,
                window: int = ADMISSION_WINDOW) -> None:
        """Schedule a connection's first packet (``schedule`` non-empty)."""
        heapq.heappush(self._heap, (
            schedule[0].timestamp, self._seq,
            Connection(schedule, self._seq, tag, window),
        ))
        self._seq += 1

    def at(self, when: float, handler: Callable[..., None], *args) -> None:
        """Fire ``handler(when, *args)`` at trace time ``when``."""
        heapq.heappush(self._heap, (when, self._seq, (handler, args)))
        self._seq += 1

    def run(self) -> None:
        heap = self._heap
        heappush, heappop = heapq.heappush, heapq.heappop
        process = self.pipeline.process
        admitted, refused = self.admitted, self.refused
        outbound, before = self.outbound, self.before
        PASS, OUTBOUND, CONNECTION = Verdict.PASS, Direction.OUTBOUND, Connection
        while True:
            if before is not None:
                before(heap[0][0] if heap else _INF)
            if not heap:
                return
            when, seq, item = heappop(heap)
            if item.__class__ is not CONNECTION:
                handler, args = item
                handler(when, *args)
                continue
            connection = item
            schedule = connection.schedule
            position = connection.position
            packet = schedule[position]
            passed = process(packet) is PASS
            if not passed and position < connection.window:
                refused(connection, packet.timestamp)
                continue
            if passed and outbound is not None and packet.direction is OUTBOUND:
                outbound(connection, packet)
            position += 1
            connection.position = position
            more = position < len(schedule)
            if not connection.admitted and (
                not more or passed and position > connection.window
            ):
                connection.admitted = True
                admitted(connection, packet.timestamp)
            if more:
                heappush(heap, (schedule[position].timestamp, seq, connection))


_INF = float("inf")


class ClosedLoopSimulator:
    """Connection-level simulation with admission feedback.

    A drop inside a connection's first :data:`ADMISSION_WINDOW` packets
    kills it (the handshake / first request); beyond that the connection
    is established and a drop is a recoverable packet loss.  A refused
    connection may retry after ``retry_after`` seconds with probability
    ``retry_probability``, at most ``max_retries`` times (P2P software
    retries aggressively; the retry meets the filter again and usually
    dies again under load).
    """

    def __init__(
        self,
        packet_filter: PacketFilter,
        retry_probability: float = 0.0,
        retry_after: float = 30.0,
        max_retries: int = 2,
        throughput_interval: float = 1.0,
        seed: int = 0,
        use_blocklist: bool = False,
    ) -> None:
        if not 0.0 <= retry_probability <= 1.0:
            raise ValueError(f"retry_probability out of [0,1]: {retry_probability}")
        if retry_after <= 0:
            raise ValueError(f"retry_after must be positive: {retry_after}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be non-negative: {max_retries}")
        self.filter = packet_filter
        self.retry_probability = retry_probability
        self.retry_after = retry_after
        self.max_retries = max_retries
        self.throughput_interval = throughput_interval
        self.use_blocklist = use_blocklist
        self._rng = random.Random(seed)

    def run(self, specs: List[ConnectionSpec], seed: int = 0) -> ClosedLoopResult:
        """Simulate all connections, returning throughput accounting.

        Packet schedules are expanded deterministically per spec (seeded
        from ``seed`` and the spec's index) so runs are reproducible; a
        retry's stream is :func:`retry_stream_seed` of the refused
        connection's heap ``seq``.

        Packets flow through the same :class:`~repro.sim.pipeline.ReplayPipeline`
        stages as open-loop replay — the closed loop is just a different
        packet *source*, feeding the engine one packet at a time because
        each verdict feeds back into which packets exist at all.  (That
        feedback is also why this simulator is inherently sequential: a
        batch's later packets cannot be known until its earlier verdicts
        are, so no batched or parallel backend applies.)  The blocklist
        stage is off by default — admission feedback already kills refused
        connections, which is the job blocked-σ persistence approximates
        in open-loop replay.

        Before each pop the loop admits, in start order, the arrivals that
        start at or before the heap's next time (re-read after each
        admission), then the retries that are due, ordered by time and
        the refused connection's ``seq`` — the same merge as
        :meth:`~repro.workload.generator.TraceGenerator.packets`.
        """
        pipeline = ReplayPipeline(PipelineConfig(
            packet_filter=self.filter,
            use_blocklist=self.use_blocklist,
            throughput_interval=self.throughput_interval,
        ))
        result = ClosedLoopResult(
            passed=pipeline.router.passed,
            offered=pipeline.router.offered,
        )
        ordered = sorted(specs, key=lambda spec: spec.start)
        result.connections_total = len(ordered)
        arrival = 0
        # (due time, refused connection's seq, shifted spec, attempts).
        retries: List[Tuple[float, int, ConnectionSpec, int]] = []

        def admit(spec: ConnectionSpec, ident: int, attempts: int = 0) -> None:
            stream = (
                derive_seed(seed, ident)
                if attempts == 0
                else retry_stream_seed(seed, ident, attempts)
            )
            schedule = connection_packets(spec, random.Random(stream))
            if schedule:
                loop.connect(schedule, (spec, attempts))
                if attempts:
                    result.connections_retried += 1

        def before(next_time: float) -> None:
            nonlocal arrival
            while arrival < len(ordered) and ordered[arrival].start <= next_time:
                admit(ordered[arrival], arrival)
                arrival += 1
                next_time = loop.next_time
            while retries and retries[0][0] <= next_time:
                _, ident, spec, attempts = heapq.heappop(retries)
                admit(spec, ident, attempts)
                next_time = loop.next_time

        def admitted(connection: Connection, now: float) -> None:
            result.connections_admitted += 1

        def refused(connection: Connection, now: float) -> None:
            spec, attempts = connection.tag
            result.connections_refused += 1
            result.refusal_times.append(now)
            initiator = spec.initiator.value
            result.refused_by_initiator[initiator] = (
                result.refused_by_initiator.get(initiator, 0) + 1
            )
            if attempts < self.max_retries and self._rng.random() < self.retry_probability:
                when = now + self.retry_after
                heapq.heappush(
                    retries,
                    (when, connection.seq, replace(spec, start=when), attempts + 1),
                )

        loop = AdmissionLoop(pipeline, admitted, refused, before=before)
        loop.run()
        result.replay = pipeline.finalize()
        result.packets_sent = result.replay.packets
        return result

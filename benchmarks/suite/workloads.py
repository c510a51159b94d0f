"""The four benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup`, runs one
unit of timed work in :meth:`run_unit` (the worker repeats units for the
run's length) and checks outputs against an oracle in :meth:`verify`,
untimed.  Every unit of one seed must return the same digest.

Why these four (see README.md for the per-layer map):

* ``fig8-stream`` -- the Fig. 8 campaign as a batch job: trace generation
  streams into two fused kernels, so generation is a large share of it.
* ``table-kernels`` -- pure columnar replay of a ready table through five
  kernels with blocklist and fingerprint on; no generation in the timed
  phase.
* ``swarm-closedloop`` -- peers react to every refusal, so every packet
  goes through the per-packet ``ReplayPipeline.process`` path.
* ``live-feed`` -- an open loop over a unix socket into a live
  ``FilterService``: decode, queue and small chunks under a rate.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.filters.ratelimit import RedPolicerFilter, TokenBucketFilter
from repro.filters.spi import SPIFilter
from repro.net.packet import Direction
from repro.service.sources import SocketSource
from repro.swarm import EvasionPolicy, SwarmConfig, SwarmSimulator
from repro.workload.generator import TraceConfig, TraceGenerator

# Modules, not names: a traced run patches their attributes, and the
# package ``repro.sim`` re-exports a function called ``replay``.
net_stream = importlib.import_module("repro.net.stream")
service_mod = importlib.import_module("repro.service.service")
sim_pipeline = importlib.import_module("repro.sim.pipeline")
sim_replay = importlib.import_module("repro.sim.replay")

FEEDER = Path(__file__).resolve().parent / "feeder.py"

#: Connection arrivals per second of every generated trace.
CONNECTION_RATE = 16.0
#: A RED band around the ~6 Mbps uplink such traces carry, so the
#: fractional-P_d draw paths run.
RED_LOW_MBPS = 3.0
RED_HIGH_MBPS = 9.0
#: Token bucket below that uplink, so it drops.
TOKEN_BUCKET_MBPS = 5.0
#: Packets of the sequential-oracle prefix each fast path is checked on.
ORACLE_PREFIX = 16384
QUICK_ORACLE_PREFIX = 2000


def bitmap_config() -> BitmapFilterConfig:
    """The paper's Fig. 8 bitmap: {4 x 2^20} bits, m = 3, dt = 5 s."""
    return BitmapFilterConfig(size=2 ** 20, vectors=4, hashes=3, rotate_interval=5.0)


def red() -> DropController:
    return DropController.red_mbps(RED_LOW_MBPS, RED_HIGH_MBPS)


def trace_rows(seed: int, rows: int, chunk: int):
    """The first ``rows`` packets of the seed's trace, in ``chunk``-row
    tables: every seed gives the same input size."""
    # Enough trace time for ``rows``: seeds give 940-1,320 packets per second.
    duration = 10.0 + rows / 900.0
    left = rows
    for table in TraceGenerator(TraceConfig(
            duration=duration, connection_rate=CONNECTION_RATE, seed=seed)
    ).iter_tables(chunk):
        if len(table) > left:
            table = table.slice(0, left)
        left -= len(table)
        yield table
        if not left:
            return


def digest_of(document) -> str:
    return hashlib.sha256(
        json.dumps(document, sort_keys=True, default=str).encode()
    ).hexdigest()


def result_digest(result) -> dict:
    """The outputs of one replay that every run of one seed must repeat."""
    router = result.router
    return {
        "packets": result.packets,
        "inbound": result.inbound_packets,
        "dropped": result.inbound_dropped,
        "fingerprint": result.fingerprint,
        "stats": router.filter.stats.as_dict(),
        "suppressed": (router.blocklist.suppressed_packets
                       if router.blocklist is not None else None),
    }


class Ledger:
    """Output checks: how many were made and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def count(self, checked: int, failed: int, what: str) -> None:
        """Record ``checked`` outputs of which ``failed`` were wrong."""
        self.attempted += checked
        if failed:
            self.failed += failed
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.count(1, 0 if ok else 1, what)


@dataclass
class Unit:
    """One unit of timed work."""

    #: Packet verdicts produced (a packet through two filters counts twice).
    packets: int
    #: Verdicts per wall second (live-feed: its flat-out capacity).  None
    #: for a unit that only times latencies (live-feed's paced phase);
    #: throughput and CPU per packet come from the other units.
    throughput_pps: Optional[float]
    latencies_ms: List[float]
    digest: str
    counters: Dict[str, float] = field(default_factory=dict)
    #: Set by the worker: the unit's wall and process CPU seconds, and how
    #: much slower than the reference speed the host ran meanwhile.
    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    slowdown: float = 1.0


def core_counters(*filters) -> Dict[str, float]:
    """Hash-memo and rotation counters of the bitmap filters given."""
    counters = {"core.memo_hits": 0, "core.memo_lookups": 0, "core.rotations": 0}
    for flt in filters:
        if isinstance(flt, BitmapPacketFilter):
            memo = flt.hash_memo
            counters["core.memo_hits"] += memo.hits
            counters["core.memo_lookups"] += memo.hits + memo.misses
            counters["core.rotations"] += flt.core.stats.rotations
    return counters


def oracle_check(ledger: Ledger, prefix, make_filter, label: str,
                 use_blocklist: bool) -> None:
    """The fast path against the sequential per-packet oracle."""
    results = [
        sim_replay.replay(prefix, make_filter(), use_blocklist=use_blocklist,
                          batched=batched, record_fingerprint=True)
        for batched in (False, True)
    ]
    sequential, batched = (result_digest(result) for result in results)
    ledger.check(sequential["fingerprint"] == batched["fingerprint"],
                 f"{label}: batched verdicts differ from the sequential oracle")
    ledger.check(sequential == batched,
                 f"{label}: batched stats differ from the sequential oracle")


class Workload:
    name = ""
    #: The fewest units a run measures.
    min_units = 1
    #: The work waits for input between bursts, so the worker scales it by
    #: the reference loop timed after a sleep (``reference_seconds``).
    starts_idle = False

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.prefix = QUICK_ORACLE_PREFIX if quick else ORACLE_PREFIX

    def setup(self) -> Optional[str]:
        """Build the inputs; returns their digest (None: nothing built)."""
        return None

    def run_unit(self, ledger: Ledger) -> Unit:
        raise NotImplementedError

    def verify(self, ledger: Ledger, units: List[Unit]) -> None:
        """Untimed output checks beyond the per-unit digest."""

    def trace_metrics(self, spans) -> Dict[str, float]:
        """Per-layer metrics only this workload can derive from its spans."""
        return {}


class Fig8Stream(Workload):
    """SPI against bitmap-20 over a streamed trace, generation included.

    A unit is one campaign over the first ``rows`` packets of each of
    sixteen traces derived from the seed; each campaign's wall time is a
    latency sample.  So few packets hold few connections, and the cost
    per packet differs from trace to trace: spanning several traces keeps
    one seed's trace from deciding the result, and a run holds enough
    campaigns for its 90th percentile.
    """

    name = "fig8-stream"
    chunk = 4096
    rows = 2 * chunk

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.seeds = [1000 * seed + index for index in range(1 if quick else 16)]

    @staticmethod
    def filters() -> dict:
        return {"spi": SPIFilter(idle_timeout=240.0),
                "bitmap-20": BitmapPacketFilter(bitmap_config())}

    def campaign(self, seed: int, rows: int, generated: List[int]):
        def chunks():
            for table in trace_rows(seed, rows, self.chunk):
                generated[0] += len(table)
                yield table

        filters = self.filters()
        comparison = sim_replay.compare_drop_rates(
            chunks, filters, use_blocklist=False, batched=True)
        return comparison, filters

    def setup(self) -> Optional[str]:
        # A short campaign finishes lazy set-up before timing.
        self.campaign(self.seeds[0], 4096, [0])
        return None

    def run_unit(self, ledger: Ledger) -> Unit:
        generated = [0]
        latencies, outputs, filters = [], [], []
        packets = 0
        for seed in self.seeds:
            start = time.perf_counter()
            comparison, used = self.campaign(seed, self.rows, generated)
            latencies.append((time.perf_counter() - start) * 1e3)
            results = comparison.results
            packets += sum(result.packets for result in results.values())
            outputs.append({name: result_digest(result) for name, result in results.items()})
            filters += used.values()
        counters = core_counters(*filters)
        counters["workload.packets"] = generated[0]
        return Unit(packets=packets, throughput_pps=packets / (sum(latencies) / 1e3),
                    latencies_ms=latencies, digest=digest_of(outputs), counters=counters)

    def verify(self, ledger: Ledger, units: List[Unit]) -> None:
        prefix = next(trace_rows(self.seeds[0], self.prefix, self.prefix))
        for name in self.filters():
            oracle_check(ledger, prefix, lambda: self.filters()[name], name,
                         use_blocklist=False)


class TableKernels(Workload):
    """Five fused kernels over one ready table, blocklist and fingerprint on.

    A unit is ``rounds`` replays per filter; each replay's wall time is a
    latency sample.
    """

    name = "table-kernels"
    filter_names = ("bitmap-20", "spi", "counting", "token-bucket", "red")

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.rows = 16384 if quick else 65536
        self.rounds = 1 if quick else 2
        self.table = None

    def make_filter(self, name: str):
        rng = random.Random(self.seed)
        if name == "bitmap-20":
            return BitmapPacketFilter(bitmap_config(), red(), rng=rng)
        if name == "spi":
            return SPIFilter(idle_timeout=240.0, drop_controller=red(), rng=rng)
        if name == "counting":
            return CountingBitmapFilter(bitmap_config(), red(), rng=rng)
        if name == "token-bucket":
            return TokenBucketFilter(rate_mbps=TOKEN_BUCKET_MBPS)
        return RedPolicerFilter.mbps(RED_LOW_MBPS, RED_HIGH_MBPS, rng=rng)

    def replay(self, table, name: str):
        return sim_replay.replay(table, self.make_filter(name), use_blocklist=True,
                                 batched=True, record_fingerprint=True)

    def setup(self) -> Optional[str]:
        self.table = None
        table = next(trace_rows(self.seed, self.rows, self.rows))
        for name in self.filter_names:
            self.replay(table.slice(0, 1000), name)
        self.table = table
        digest = hashlib.sha256()
        for column in (table.timestamps, table.sizes, table.flags,
                       table.payload_ids, table.outbound, table.pair_ids):
            digest.update(column.tobytes())
        return digest.hexdigest()

    def run_unit(self, ledger: Ledger) -> Unit:
        latencies = []
        outputs = {}
        counters = {"filters.blocklist_suppressed": 0, "filters.blocklist_checked": 0}
        filters = []
        packets = 0
        start = time.perf_counter()
        for name in self.filter_names * self.rounds:
            began = time.perf_counter()
            result = self.replay(self.table, name)
            latencies.append((time.perf_counter() - began) * 1e3)
            outputs[name] = result_digest(result)
            packets += result.packets
            counters["filters.blocklist_suppressed"] += result.router.blocklist.suppressed_packets
            counters["filters.blocklist_checked"] += result.packets
            filters.append(result.router.filter)
        wall = time.perf_counter() - start
        counters.update(core_counters(*filters))
        return Unit(packets=packets, throughput_pps=packets / wall,
                    latencies_ms=latencies, digest=digest_of(outputs),
                    counters=counters)

    def verify(self, ledger: Ledger, units: List[Unit]) -> None:
        prefix = self.table.slice(0, self.prefix)
        for name in self.filter_names:
            oracle_check(ledger, prefix, lambda: self.make_filter(name), name,
                         use_blocklist=True)


class SwarmClosedLoop(Workload):
    """Bitmap-20 at static P_d = 0.9 against 32 evading peers."""

    name = "swarm-closedloop"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.duration = 5.0 if quick else 20.0

    def simulate(self, duration: float):
        flt = BitmapPacketFilter(bitmap_config(), DropController(StaticDropPolicy(0.9)))
        config = SwarmConfig(peers=32, clients=4, duration=duration, seed=self.seed,
                             evasion=EvasionPolicy())
        return SwarmSimulator(flt, config).run(), flt

    def setup(self) -> Optional[str]:
        self.simulate(5.0)
        return None

    def run_unit(self, ledger: Ledger) -> Unit:
        # Admission latency: the ReplayPipeline.process call of each
        # inbound packet.  Outbound packets (about half, each marking four
        # vectors) cost twice as much; mixing both modes would put the
        # median on the boundary between them.
        latencies: List[float] = []
        pipeline_cls = sim_pipeline.ReplayPipeline
        process = pipeline_cls.process
        clock = time.perf_counter
        inbound = Direction.INBOUND

        def timed_process(pipeline, packet):
            began = clock()
            verdict = process(pipeline, packet)
            if packet.direction is inbound:
                latencies.append((clock() - began) * 1e3)
            return verdict

        pipeline_cls.process = timed_process
        try:
            start = clock()
            result, flt = self.simulate(self.duration)
            wall = clock() - start
        finally:
            pipeline_cls.process = process
        ledger.check(
            result.attempts_total == result.attempts_admitted + result.attempts_refused
            and result.replay.inbound_packets == len(latencies),
            "swarm: attempts or inbound packets do not add up")
        counters = core_counters(flt)
        counters["swarm.attempts"] = result.attempts_total
        counters["swarm.admitted"] = result.attempts_admitted
        return Unit(packets=result.replay.packets,
                    throughput_pps=result.replay.packets / wall,
                    latencies_ms=latencies, digest=digest_of(result.as_dict()),
                    counters=counters)


class LiveFeed(Workload):
    """An open-loop feeder process into a socket-fed ``FilterService``.

    Units alternate between two phases, each with a fresh service and
    feeder.  Phase A (paced) sends frame *i* at ``t0 + i * frame / rate``
    and times each frame from that due time to the return of
    ``stepper.feed``; phase B (flat) sends the same frames flat out for
    the service's capacity.  Short phases let the worker measure the
    host's speed close to each of them.
    """

    name = "live-feed"
    min_units = 2
    starts_idle = True
    frame = 4096
    rate_pps = 200_000.0
    #: Seconds between starting the feeder and its first due time.
    lead_s = 0.2
    socket_name = "feed.sock"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        # 40 frames: about 0.8 s of phase A at rate_pps.
        self.rows = self.frame * (10 if quick else 40)
        self.frames_path = Path("frames.bin").resolve()
        self.chunks = []
        self.frame_sizes: List[int] = []
        self.paced_next = True
        #: perf_counter windows of the paced phases, for the traced run.
        self.paced_windows: List[Tuple[float, float]] = []
        #: How late the feeder sent each phase-A frame, over the whole run.
        self.lags_ms: List[float] = []
        #: The feeder runs on the last CPU the worker may use (the worker
        #: pins itself to the first).
        self.feeder_cpu = max(os.sched_getaffinity(0))

    @property
    def interval(self) -> float:
        return self.frame / self.rate_pps

    def make_filter(self):
        return BitmapPacketFilter(bitmap_config(), red(), rng=random.Random(self.seed))

    def setup(self) -> Optional[str]:
        self.chunks = []
        encoder = net_stream.TableEncoder()
        chunks, sizes = [], []
        with open(self.frames_path, "wb") as frames:
            for chunk in trace_rows(self.seed, self.rows, self.frame):
                net_stream.write_frame(frames, encoder.encode(chunk))
                chunks.append(chunk)
                sizes.append(len(chunk))
        self.chunks, self.frame_sizes = chunks, sizes
        digest = hashlib.sha256()
        with open(self.frames_path, "rb") as frames:
            for block in iter(lambda: frames.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()

    def phase(self, interval: float, ledger: Ledger, label: str):
        """Serve one feeder run; returns (result, first due time, feed
        return times, feeder report)."""
        source = SocketSource.unix(self.socket_name)
        # A feeder that never connects must end the phase, not hang it.
        source.listener.settimeout(30.0)
        service = service_mod.FilterService(
            source, self.make_filter(), sim_pipeline.BatchedBackend(), use_blocklist=True)
        returns: List[float] = []
        feed = service.stepper.feed

        def timed_feed(chunk):
            verdicts = feed(chunk)
            returns.append(time.monotonic())
            return verdicts

        service.stepper.feed = timed_feed
        t0 = time.monotonic() + self.lead_s
        feeder = subprocess.Popen(
            [sys.executable, str(FEEDER), "--socket", self.socket_name,
             "--frames", str(self.frames_path), "--t0", repr(t0),
             "--interval", repr(interval), "--cpu", str(self.feeder_cpu)],
            stdout=subprocess.PIPE, text=True)
        try:
            result = service.run_forever()
            out, _ = feeder.communicate(timeout=60)
        finally:
            if feeder.poll() is None:
                feeder.kill()
                feeder.wait()
        report = json.loads(out.strip().splitlines()[-1]) if feeder.returncode == 0 else {}
        frames = len(self.frame_sizes)
        ledger.check(feeder.returncode == 0, f"{label}: feeder failed")
        ledger.check(service.ingest_error is None,
                     f"{label}: ingest error {service.ingest_error}")
        ledger.count(frames, max(0, frames - service.chunks_done), f"{label}: frames lost")
        ledger.check(result.packets == sum(self.frame_sizes),
                     f"{label}: packets adjudicated differ from packets sent")
        return result, t0, returns, report

    def run_unit(self, ledger: Ledger) -> Unit:
        # Both phases adjudicate the same frames, so the worker's check
        # that every unit gives the same digest also compares A with B.
        paced = self.paced_next
        self.paced_next = not paced
        began = time.perf_counter()
        result, t0, returns, report = self.phase(
            self.interval if paced else 0.0, ledger, "phase A" if paced else "phase B")
        counters = core_counters(result.router.filter)
        counters["service.chunks_done"] = len(returns)
        unit = Unit(packets=result.packets, throughput_pps=None, latencies_ms=[],
                    digest=digest_of(result_digest(result)), counters=counters)
        if paced:
            self.paced_windows.append((began, time.perf_counter()))
            self.lags_ms += report.get("lags_ms", [])
            unit.latencies_ms = [(done - t0 - index * self.interval) * 1e3
                                 for index, done in enumerate(returns)]
        else:
            # Capacity: the packets after the first frame over the time
            # from its return to the last one.
            unit.throughput_pps = sum(self.frame_sizes[1:]) / (returns[-1] - returns[0])
        return unit

    def verify(self, ledger: Ledger, units: List[Unit]) -> None:
        offline = sim_replay.replay(iter(self.chunks), self.make_filter(),
                                    use_blocklist=True, batched=True,
                                    record_fingerprint=True)
        ledger.check(digest_of(result_digest(offline)) == units[0].digest,
                     "live-feed: service outputs differ from an offline replay")

    def trace_metrics(self, spans) -> Dict[str, float]:
        """Queue wait and depth of phase A, from decode end (the source
        yields the chunk) to ``stepper.feed`` entry, in frame periods."""
        paced = {span[0] for span in spans if span[1] == "service.run"
                 and any(start <= span[2] <= end for start, end in self.paced_windows)}
        decoded = sorted(span[3] for span in spans
                         if span[1] == "net.decode" and span[4] in paced)
        fed = sorted(span[2] for span in spans
                     if span[1] == "sim.feed" and span[4] in paced)
        waits = [(start - ready) / self.interval for ready, start in zip(decoded, fed)]
        depth = deepest = 0
        for _, step in sorted([(when, 1) for when in decoded] + [(when, -1) for when in fed]):
            depth += step
            deepest = max(deepest, depth)
        return {
            "service.queue_wait_p50_frames": percentile(waits, 50),
            "service.queue_wait_p90_frames": percentile(waits, 90),
            "service.queue_depth_max": deepest,
            "feeder.lag_p99_frames": percentile(self.lags_ms, 99) / (self.interval * 1e3),
            "net.wire_bytes_per_packet": os.path.getsize(self.frames_path)
            / sum(self.frame_sizes),
        }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


WORKLOADS = {cls.name: cls for cls in (Fig8Stream, TableKernels, SwarmClosedLoop, LiveFeed)}

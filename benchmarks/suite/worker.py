"""One workload in one process: set up, time, trace, verify, report.

``run.py`` starts this once per workload run, in a fresh process whose
working directory is a scratch directory; it prints one JSON object as
the last line of its standard output.

    python3 worker.py --workload table-kernels --seed 7 --seconds 20 [--trace 1] [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Set-up runs per run (``--quick``: two); set-up time is their median.
SETUP_REPEATS = 5
#: Seconds :func:`reference_seconds` takes on the benchmark host (2-vCPU
#: Xeon VM, 2.1 GHz, Python 3.11) when nothing else runs on it, keyed by
#: its ``after_sleep`` argument.
REFERENCE_S = {False: 0.0045, True: 0.0011}


def reference_seconds(after_sleep: bool = False) -> float:
    """The host's current speed: the median wall time of a fixed loop that
    executes none of the program's code.

    Busy work is compared with three back-to-back runs of 20,000 steps.
    Work that starts on an idle CPU, as live-feed's frames do, follows
    the host's speed differently; with ``after_sleep`` the loop runs
    nine times for 5,000 steps, each after an 8 ms sleep.
    """
    def loop(steps: int) -> float:
        if after_sleep:
            time.sleep(0.008)
        start = time.perf_counter()
        values, counts = [], {}
        for index in range(steps):
            value = (index * 2654435761) & 0xFFFFF
            values.append(value)
            counts[value & 1023] = counts.get(value & 1023, 0) + 1
        values.sort()
        return time.perf_counter() - start

    if after_sleep:
        return statistics.median(loop(5000) for _ in range(9))
    return statistics.median(loop(20000) for _ in range(3))


def timed(action):
    """``(result, seconds, slowdown)`` of one call; ``slowdown`` is how much
    slower than the reference speed the host ran around it."""
    before = reference_seconds()
    start = time.perf_counter()
    result = action()
    seconds = time.perf_counter() - start
    return result, seconds, (before + reference_seconds()) / (2 * REFERENCE_S[False])


def import_seconds(repeats: int) -> float:
    """Median time a fresh interpreter takes to import the program,
    scaled to the reference host speed."""
    code = ("import sys, time; start = time.perf_counter(); "
            f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
            "import workloads; print(time.perf_counter() - start)")
    runs = [timed(lambda: float(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True).stdout))
        for _ in range(repeats)]
    return statistics.median(seconds / slowdown for seconds, _, slowdown in runs)


def run_units(workload, seconds: float, ledger, tracer=None):
    """Repeat units until ``seconds`` have passed (at least
    ``workload.min_units``)."""
    units, elapsed = [], 0.0
    if tracer is not None:
        tracer.install()
    try:
        after_sleep = workload.starts_idle
        reference = reference_seconds(after_sleep)
        while len(units) < workload.min_units or elapsed < seconds:
            cpu = time.process_time()
            start = time.perf_counter()
            unit = workload.run_unit(ledger)
            unit.elapsed_s = time.perf_counter() - start
            unit.cpu_s = time.process_time() - cpu
            after = reference_seconds(after_sleep)
            unit.slowdown = (reference + after) / (2 * REFERENCE_S[after_sleep])
            reference = after
            elapsed += unit.elapsed_s
            units.append(unit)
    finally:
        if tracer is not None:
            tracer.uninstall()
    first = units[0].digest
    ledger.count(len(units), sum(unit.digest != first for unit in units),
                 f"{workload.name}: units of one seed gave different outputs")
    return units


def scaled_throughput(units) -> float:
    return statistics.median(unit.throughput_pps * unit.slowdown for unit in units
                             if unit.throughput_pps is not None)


def end_to_end(units, setup_s: float) -> dict:
    """Every time is scaled to the reference host speed, unit by unit."""
    from workloads import percentile

    # Percentiles within each unit, then the median over units: a unit the
    # reference loop scaled badly moves one value, not the tail of a
    # pooled sample.
    def latency(q: float) -> float:
        return statistics.median(percentile(unit.latencies_ms, q) / unit.slowdown
                                 for unit in units if unit.latencies_ms)

    return {
        "throughput_pps": (scaled_throughput(units), "pkt/s"),
        "latency_p50_ms": (latency(50), "ms"),
        "latency_p90_ms": (latency(90), "ms"),
        "cpu_us_per_packet": (statistics.median(
            unit.cpu_s / unit.packets * 1e6 / unit.slowdown for unit in units
            if unit.throughput_pps is not None), "us"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


#: Self-time shares reported per span name (metric -> span name).
SPAN_SHARES = {
    "workload.specs_pct": "workload.specs",
    "workload.materialize_pct": "workload.materialize",
    "net.decode_pct": "net.decode",
    "sim.router_table_pct": "sim.router_table",
    "sim.pipeline_self_pct": "sim.process_table",
    "sim.fingerprint_pct": "sim.fingerprint",
    "sim.process_pct": "sim.process",
    "sim.feed_pct": "sim.feed",
    "filters.process_pct": "filters.process",
    "core.mark_outbound_pct": "core.mark_outbound",
    "core.lookup_inbound_pct": "core.lookup_inbound",
    "core.set_many_pct": "core.set_many",
    "core.test_all_pct": "core.test_all",
    "core.hash_indices_pct": "core.hash_indices",
    "core.indices_many_pct": "core.indices_many",
}
#: Filters of the replay spans (``PacketFilter.name``).
REPLAY_FILTERS = ("bitmap", "spi", "counting-bitmap", "token-bucket", "red-policer")


def per_layer(workload, units, spans, setup_spans, setup_wall: float,
              untraced_pps: float) -> dict:
    from tracing import LAYERS, attribute, layer_of, span_durations
    from workloads import percentile

    wall = sum(unit.elapsed_s for unit in units)
    self_time = attribute(spans)
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in self_time.items():
        layers[layer_of(name)] += seconds

    def pct(seconds: float, over: float = wall) -> float:
        return 100.0 * seconds / over if over > 0 else 0.0

    metrics = {
        "trace.wall_s": (wall, "s"),
        "trace.spans": (len(spans), "count"),
        "trace.overhead_ratio": (untraced_pps / scaled_throughput(units) - 1.0, "ratio"),
        "harness.self_pct": (pct(wall - sum(layers.values())), "%"),
    }
    for layer, seconds in layers.items():
        metrics[f"{layer}.self_pct"] = (pct(seconds), "%")
    for metric, name in SPAN_SHARES.items():
        metrics[metric] = (pct(self_time.get(name, 0.0)), "%")
    for name in REPLAY_FILTERS:
        metrics[f"sim.replay_total_pct.{name}"] = (
            pct(sum(span_durations(spans, f"sim.replay.{name}"))), "%")

    setup_self = attribute(setup_spans)
    for layer in ("workload", "net"):
        metrics[f"setup.{layer}_pct"] = (pct(sum(
            seconds for name, seconds in setup_self.items() if layer_of(name) == layer),
            setup_wall), "%")

    counters = {}
    for unit in units:
        for key, value in unit.counters.items():
            counters[key] = counters.get(key, 0) + value

    def ratio(numerator: str, denominator: str) -> float:
        return counters[numerator] / counters[denominator] if counters.get(denominator) else 0.0

    steps = span_durations(spans, "sim.process_table") + span_durations(spans, "sim.process")
    metrics.update({
        "workload.packets": (counters.get("workload.packets", 0), "count"),
        "net.decode_calls": (len(span_durations(spans, "net.decode")), "count"),
        "net.wire_bytes_per_packet": (0.0, "B/pkt"),
        "sim.process_calls": (len(span_durations(spans, "sim.process")), "count"),
        "sim.step_ms_p50": (percentile(steps, 50) * 1e3, "ms"),
        "filters.blocklist_suppressed": (counters.get("filters.blocklist_suppressed", 0), "count"),
        "filters.blocklist_suppressed_ratio": (
            ratio("filters.blocklist_suppressed", "filters.blocklist_checked"), "ratio"),
        "core.rotations": (counters.get("core.rotations", 0), "count"),
        "core.memo_hit_ratio": (ratio("core.memo_hits", "core.memo_lookups"), "ratio"),
        "service.chunks_done": (counters.get("service.chunks_done", 0), "count"),
        "service.queue_wait_p50_frames": (0.0, "frames"),
        "service.queue_wait_p90_frames": (0.0, "frames"),
        "service.queue_depth_max": (0, "count"),
        "swarm.attempts": (counters.get("swarm.attempts", 0), "count"),
        "swarm.admitted_ratio": (ratio("swarm.admitted", "swarm.attempts"), "ratio"),
        "feeder.lag_p99_frames": (0.0, "frames"),
    })
    for name, value in workload.trace_metrics(spans).items():
        metrics[name] = (value, metrics[name][1])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload](args.seed, args.quick)
    # One CPU for the workload and the reference loop alike, so the loop
    # measures the speed of the CPU the work ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ledger = Ledger()
    repeats = 2 if args.quick else SETUP_REPEATS
    setup_times, digests = [], []
    setup_spans, setup_wall = [], 0.0
    for repeat in range(repeats):
        # The traced run traces its last set-up for the set-up shares.
        tracer = Tracer().install() if args.trace and repeat == repeats - 1 else None
        digest, seconds, slowdown = timed(workload.setup)
        digests.append(digest)
        setup_times.append(seconds / slowdown)
        if tracer is not None:
            tracer.uninstall()
            setup_spans, setup_wall = tracer.spans(), seconds
    ledger.check(len(set(digests)) == 1,
                 f"{workload.name}: set-up inputs differ between repeats")

    if args.trace:
        plain = run_units(workload, args.seconds / 2, ledger)
        tracer = Tracer()
        units = run_units(workload, args.seconds / 2, ledger, tracer)
        metrics = per_layer(workload, units, tracer.spans(), setup_spans, setup_wall,
                            scaled_throughput(plain))
    else:
        units = run_units(workload, args.seconds, ledger)
        metrics = end_to_end(units, import_seconds(repeats) + statistics.median(setup_times))
    workload.verify(ledger, units)

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "digest": units[0].digest,
        "host_slowdown": statistics.median(unit.slowdown for unit in units),
        "units": len(units),
        "latency_samples": sum(len(unit.latencies_ms) for unit in units),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

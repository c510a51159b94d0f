#!/usr/bin/env python
"""Figure 8 at scale: the SPI-vs-bitmap state/accuracy frontier, 10–100M packets.

The paper's Figure 8 compares per-window inbound drop rates of the exact
per-flow SPI baseline against the {4 × 2^20} bitmap filter on a 7.5-hour
campus trace.  This campaign reproduces that comparison at modern scale
and extends it into a *frontier*: one SPI baseline (unbounded state,
tracked via its flow-table high-water mark) against a ladder of bitmap
sizes {4 × 2^14 … 2^20}, all replayed over the same 10M-packet synthetic
trace through the fused columnar kernels.  Each bitmap contributes one
frontier point — exact ``memory_bytes`` of state versus accuracy against
the SPI reference (overall-rate delta, per-window scatter slope and RMS
error) — showing how much state buys how much precision.

Modes::

    PYTHONPATH=src python benchmarks/bench_fig8_scale.py           # 10M, writes BENCH_fig8_scale.json
    PYTHONPATH=src python benchmarks/bench_fig8_scale.py --quick   # CI smoke, ~60k packets, no write
    PYTHONPATH=src python benchmarks/bench_fig8_scale.py \\
        --packets 100000000 --stream                               # documented 100M opt-in

``--stream`` never materializes the trace: ``compare_drop_rates`` gets a
trace *factory*, calls it once, and feeds each bounded-memory
``iter_tables`` chunk to every filter in lockstep before generating the
next, so the campaign generates its trace once.  It is forced
automatically above ``STREAM_THRESHOLD`` packets — at 100M rows one
merged table would not fit comfortably.
``--workers`` parallelizes trace materialization (byte-identical output;
speedup scales with physical cores).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

DEFAULT_PACKETS = 10_000_000
QUICK_PACKETS = 60_000
#: Above this the trace streams chunk by chunk through every filter in
#: lockstep instead of materializing one table.
STREAM_THRESHOLD = 20_000_000
SCALE_FLOOR_PACKETS = 10_000_000
PROBE_DURATION = 30.0
#: Bitmap ladder: {4 × 2^n} bits, m = 3, Δt = 5 s.  2^20 is the paper's
#: Figure-8 configuration.
BITMAP_BITS = (14, 16, 18, 20)
PAPER_SPI_RATE = 0.0156
PAPER_BITMAP_RATE = 0.0151


def build_filters(counting: bool = False):
    from repro.core.bitmap_filter import BitmapFilterConfig
    from repro.filters.bitmap import BitmapPacketFilter
    from repro.filters.counting import CountingBitmapFilter
    from repro.filters.spi import SPIFilter

    filters = {"spi": SPIFilter(idle_timeout=240.0)}
    for bits in BITMAP_BITS:
        filters[f"bitmap-{bits}"] = BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** bits, vectors=4, hashes=3,
                               rotate_interval=5.0)
        )
    if counting:
        # Counting-Bloom ladder: same {4 × 2^n} geometry, 4-bit counters
        # (4× the bitmap's state) plus close-aware entry deletion.
        for bits in BITMAP_BITS:
            filters[f"counting-{bits}"] = CountingBitmapFilter(
                BitmapFilterConfig(size=2 ** bits, vectors=4, hashes=3,
                                   rotate_interval=5.0)
            )
    return filters


def estimate_duration(target_packets: int, rate: float, seed: int) -> float:
    """First-guess trace seconds from a short probe's packet density.

    Short probes *overestimate* long-run density — connections arriving
    near the probe horizon still emit their full row schedule past it —
    so the guess runs short on long traces; :func:`main` corrects it
    with up to two cheap regeneration passes against the measured count.
    """
    from repro.workload.generator import TraceConfig, TraceGenerator

    probe = TraceGenerator(
        TraceConfig(duration=PROBE_DURATION, connection_rate=rate, seed=seed)
    ).table()
    density = max(len(probe) / PROBE_DURATION, 1.0)
    return 1.05 * target_packets / density


def window_rms(points) -> float:
    """RMS of per-window rate disagreement — 0 means the bitmap replays
    SPI's windows exactly."""
    if not points:
        return float("nan")
    return math.sqrt(sum((y - x) ** 2 for x, y in points) / len(points))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=DEFAULT_PACKETS,
                        help=f"target trace length (default: {DEFAULT_PACKETS:,}; "
                             "100M is the documented opt-in)")
    parser.add_argument("--rate", type=float, default=16.0,
                        help="connection arrivals per second")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)),
                        help="trace-generation worker processes "
                             "(default: min(4, cores))")
    parser.add_argument("--chunk-size", type=int, default=262144,
                        help="rows per chunk in --stream mode")
    parser.add_argument("--stream", action="store_true",
                        help="bounded-memory mode: generate the chunk "
                             "stream once and feed each chunk to every "
                             "filter instead of materializing one table "
                             "(automatic above "
                             f"{STREAM_THRESHOLD:,} packets)")
    parser.add_argument("--min-window-packets", type=int, default=20,
                        help="discard scatter windows with fewer inbound "
                             "packets")
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_fig8_scale.json")
    parser.add_argument("--counting", action="store_true",
                        help="add a counting-Bloom ladder (same geometry, "
                             "4-bit counters, close-aware deletion) to the "
                             "frontier")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: ~60k packets, no file write; only "
                             "sanity checks gate the exit code")
    args = parser.parse_args(argv)

    from repro.sim.metrics import least_squares_slope
    from repro.sim.replay import compare_drop_rates
    from repro.workload.generator import TraceConfig, TraceGenerator
    from repro.workload.parallel import GenerationStats

    target = min(args.packets, QUICK_PACKETS) if args.quick else args.packets
    stream = args.stream or target > STREAM_THRESHOLD

    started = time.perf_counter()
    duration = estimate_duration(target, args.rate, args.seed)
    calibrate_s = time.perf_counter() - started
    print(f"target ~{target:,} packets -> {duration:.0f}s of trace time "
          f"(rate {args.rate:g}/s, seed {args.seed}, "
          f"{'stream' if stream else 'materialized'}, "
          f"{args.workers} generation worker(s))")

    # Generate, then correct: the probe's first guess runs short on long
    # traces, so up to two regeneration passes scale the duration by the
    # measured shortfall (plus 2 % pad).  Stream mode counts with a
    # bounded-memory chunk pass; materialized mode keeps the table of
    # the passing attempt.
    generation = GenerationStats()
    generate_s = None
    table = None
    attempts = 0
    gen_started = time.perf_counter()
    while True:
        attempts += 1
        config = TraceConfig(duration=duration, connection_rate=args.rate,
                             seed=args.seed)
        if stream:
            count = sum(
                len(chunk)
                for chunk in TraceGenerator(config).iter_tables(
                    chunk_size=args.chunk_size, workers=args.workers
                )
            )
        else:
            table = TraceGenerator(config).table(workers=args.workers,
                                                 stats=generation)
            count = len(table)
        if count >= target or attempts >= 3:
            break
        duration *= 1.02 * target / count
        print(f"  attempt {attempts}: {count:,} packets, short of "
              f"{target:,} -> retrying with {duration:.0f}s")
    generate_s = time.perf_counter() - gen_started
    print(f"generated {count:,} packets in {generate_s:.1f}s "
          f"({attempts} calibration attempt(s))"
          + (f" (utilization {generation.utilization():.0%})"
             if args.workers > 1 and not stream else ""))

    if stream:
        # compare_drop_rates calls the factory once and feeds each
        # bounded-memory chunk to every filter before generating the next.
        def trace():
            return TraceGenerator(config).iter_tables(
                chunk_size=args.chunk_size, workers=args.workers,
                stats=generation,
            )
    else:
        trace = table

    filters = build_filters(counting=args.counting)
    comparison = compare_drop_rates(
        trace, filters,
        use_blocklist=False,
        min_window_packets=args.min_window_packets,
        batched=True,
    )
    results = comparison.results
    packets = results["spi"].packets

    spi = filters["spi"]
    spi_rate = comparison.overall("spi")
    spi_sampler = results["spi"].router.inbound_drops
    frontier = [{
        "filter": "spi",
        "state_bytes": spi.peak_memory_bytes,
        "peak_flows": spi.peak_flows,
        "drop_rate": round(spi_rate, 6),
        "role": "unbounded-state reference",
    }]
    from repro.sim.metrics import scatter_points

    ladder = [name for name in filters if name != "spi"]
    for name in ladder:
        flt = filters[name]
        rate = comparison.overall(name)
        points = scatter_points(
            spi_sampler, results[name].router.inbound_drops,
            min_packets=args.min_window_packets,
        )
        try:
            slope = least_squares_slope(points)
        except ValueError:
            slope = float("nan")
        frontier.append({
            "filter": name,
            "state_bytes": flt.memory_bytes,
            "drop_rate": round(rate, 6),
            "delta_vs_spi": round(rate - spi_rate, 6),
            "scatter_slope_vs_spi": round(slope, 4),
            "rms_window_error_vs_spi": round(window_rms(points), 6),
            "scatter_windows": len(points),
        })

    print(f"\n{'filter':>10} {'state':>12} {'drop rate':>10} "
          f"{'Δ vs spi':>10} {'slope':>7} {'RMS':>8}")
    for row in frontier:
        state = f"{row['state_bytes'] / 1024:,.0f} KiB"
        delta = (f"{row['delta_vs_spi']:+.4%}"
                 if "delta_vs_spi" in row else "—")
        slope = (f"{row['scatter_slope_vs_spi']:.3f}"
                 if "scatter_slope_vs_spi" in row else "—")
        rms = (f"{row['rms_window_error_vs_spi']:.4f}"
               if "rms_window_error_vs_spi" in row else "—")
        print(f"{row['filter']:>10} {state:>12} {row['drop_rate']:>10.4%} "
              f"{delta:>10} {slope:>7} {rms:>8}")

    replay_s = comparison.timings["replay_s"]
    total_replay = sum(replay_s.values())
    print(f"\nreplayed {packets:,} packets x {len(filters)} filters in "
          f"{total_replay:.1f}s "
          f"({packets * len(filters) / max(total_replay, 1e-9):,.0f} pkts/s "
          "aggregate, fused kernels)"
          + (f"; one generation pass {comparison.timings['trace_s']:.1f}s"
             if stream else ""))

    # More state must not make a filter *less* SPI-like: within each
    # ladder family the RMS window error is non-increasing (tiny jitter
    # tolerated).
    families = {}
    for row in frontier[1:]:
        families.setdefault(row["filter"].rsplit("-", 1)[0], []).append(row)
    sane = (
        packets > 0
        and all(0.0 <= row["drop_rate"] < 0.5 for row in frontier)
        and frontier[-1]["scatter_windows"] > 0
        and all(
            rows[i + 1]["rms_window_error_vs_spi"]
            <= rows[i]["rms_window_error_vs_spi"] + 0.01
            for rows in families.values()
            for i in range(len(rows) - 1)
        )
    )
    if not sane:
        print("FAIL: frontier failed sanity checks", file=sys.stderr)
        print(json.dumps(frontier, indent=2), file=sys.stderr)
        return 1

    if args.quick:
        print("fig8-scale frontier sane (quick mode, no file written)")
        return 0

    report = {
        "trace": {
            "packets": packets,
            "trace_duration_s": round(duration, 1),
            "connection_rate": args.rate,
            "seed": args.seed,
            "mode": "stream" if stream else "materialized",
            "generation_workers": args.workers,
            "host_cpu_cores": os.cpu_count(),
        },
        "paper": {
            "figure": "Figure 8 (DSN 2007), extended to a state ladder",
            "spi_rate": PAPER_SPI_RATE,
            "bitmap_rate": PAPER_BITMAP_RATE,
            "bitmap_config": "{4 x 2^20} bits, m=3, dt=5s; SPI idle 240s",
        },
        "phases": {
            "calibrate_s": round(calibrate_s, 3),
            "calibration_attempts": attempts,
            "generate_s": round(generate_s, 3),
            "generation_utilization": (round(generation.utilization(), 3)
                                       if args.workers > 1 else 1.0),
            "trace_s": round(comparison.timings["trace_s"], 3),
            "replay_s": {name: round(value, 3)
                         for name, value in replay_s.items()},
        },
        "frontier": frontier,
        "scale_floor_packets": SCALE_FLOOR_PACKETS,
        "meets_scale_floor": packets >= SCALE_FLOOR_PACKETS,
        "notes": [
            "state_bytes: exact filter footprint for bitmaps; peak_flows x "
            "200 B/flow (measured CPython footprint) for the SPI baseline",
            "stream mode generates the chunk stream once and feeds each "
            "chunk to every filter in lockstep: bounded memory, one chunk "
            "held at a time",
        ],
    }
    if stream:
        report["notes"].append(
            "stream-mode generate_s measures the counting calibration "
            "pass(es); the comparison's own generation pass is trace_s, "
            "outside every filter's replay_s"
        )

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"frontier written -> {args.output}")
    if packets < SCALE_FLOOR_PACKETS:
        print(f"FAIL: {packets:,} packets is below the "
              f"{SCALE_FLOOR_PACKETS:,}-packet scale floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

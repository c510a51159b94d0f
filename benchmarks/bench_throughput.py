#!/usr/bin/env python
"""Replay-throughput benchmark: legacy per-packet path vs batched fast path,
plus the multiprocess sharded engine's scaling curve.

Generates a calibrated ~1M-packet synthetic trace, replays it through the
paper-parameter bitmap filter with both engines, verifies the batched path
reproduced the legacy verdicts and statistics *exactly*, and writes the
measured packets/second plus speedup to ``BENCH_replay_throughput.json``.

A second stage shards the client network (Figure 6's core-router
placement), replays the same trace through ``parallel_replay`` at 1/2/4/8
workers, verifies every merged result is identical to the single-process
sharded run, and writes the scaling curve to ``BENCH_parallel_replay.json``.

Also times the three popcount strategies (``bin().count``, ``int.bit_count``
and the per-byte table 3.9 fallback) over a realistic vector's bytes, since
the utilization probe runs popcount on 2^20-bit vectors.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_throughput.py            # full
    PYTHONPATH=src python benchmarks/bench_throughput.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.bitvector import BitVector, _popcount_fallback, popcount_bytes
from repro.filters.base import Verdict
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.sharded import ShardedFilter
from repro.net.inet import parse_ipv4
from repro.net.packet import Direction
from repro.net.table import _numpy
from repro.sim.parallel import parallel_replay
from repro.sim.replay import replay
from repro.workload.generator import TraceConfig, TraceGenerator

TARGET_SPEEDUP = 3.0
#: Rows per table of the batched run, as the fig8-stream and live-feed
#: workloads feed them.  A table looks each flow's keys up once, so the
#: memo's hits come from flows spanning chunks (and from two-way flows
#: whose inbound key equals their outbound key, as in strict mode).
BATCH_CHUNK = 4096
PROBE_DURATION = 30.0
WORKER_CURVE = (1, 2, 4, 8)


def build_trace(target_packets: int, rate: float, seed: int):
    """Generate roughly ``target_packets`` packets by calibrating duration.

    A short probe trace measures packets per trace-second at the requested
    connection rate; the full trace scales duration to hit the target.
    """
    probe = TraceGenerator(
        TraceConfig(duration=PROBE_DURATION, connection_rate=rate, seed=seed)
    ).packet_list()
    pkts_per_sec = max(len(probe) / PROBE_DURATION, 1.0)
    duration = target_packets / pkts_per_sec
    start = time.perf_counter()
    packets = TraceGenerator(
        TraceConfig(duration=duration, connection_rate=rate, seed=seed)
    ).packet_list()
    if abs(len(packets) - target_packets) > 0.05 * target_packets:
        # The short probe mis-estimates long-trace density (reconnects,
        # long-lived flows); one proportional correction lands within ~1%.
        duration *= target_packets / len(packets)
        packets = TraceGenerator(
            TraceConfig(duration=duration, connection_rate=rate, seed=seed)
        ).packet_list()
    elapsed = time.perf_counter() - start
    print(
        f"trace: {len(packets)} packets over {duration:.0f}s of trace time "
        f"(generated in {elapsed:.1f}s)"
    )
    return packets


def run_replay(packets, batched: bool):
    flt = BitmapPacketFilter(BitmapFilterConfig())
    start = time.perf_counter()
    result = replay(packets, flt, use_blocklist=True, batched=batched,
                    chunk_size=BATCH_CHUNK if batched else None)
    elapsed = time.perf_counter() - start
    return result, elapsed


def summarize(result):
    """The equivalence fingerprint: every counter both engines must agree on."""
    router = result.router
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "filter_stats": router.filter.stats.as_dict(),
        "core_stats": router.filter.core.stats.as_dict(),
        "blocklist_size": len(router.blocklist),
        "suppressed": router.blocklist.suppressed_packets,
        "offered_bins": len(router.offered._bins),
        "passed_bins": len(router.passed._bins),
    }


def make_sharded(shard_count: int, size_bits: int = 20) -> ShardedFilter:
    """Shard the generator's client /24 into ``shard_count`` equal subnets.

    Hosts live in 10.1.0.1-10.1.0.<hosts>, so consecutive sub-prefixes of
    10.1.0.0/24 spread them across shards; remote/transit addresses fall
    to the default lane (there are none in the synthetic trace).
    """
    if shard_count & (shard_count - 1):
        raise ValueError(f"shard_count must be a power of two: {shard_count}")
    base = parse_ipv4("10.1.0.0")
    prefix = 24 + shard_count.bit_length() - 1
    step = 1 << (32 - prefix)
    return ShardedFilter([
        (base + index * step, prefix, BitmapPacketFilter(
            BitmapFilterConfig(size=2 ** size_bits)))
        for index in range(shard_count)
    ])


def sharded_fingerprint(result) -> dict:
    """Every merged counter and bin a sharded replay must agree on."""
    router = result.router
    sharded = router.filter
    return {
        "packets": result.packets,
        "inbound_packets": result.inbound_packets,
        "inbound_dropped": result.inbound_dropped,
        "filter_stats": sharded.stats.as_dict(),
        "shard_stats": sharded.shard_stats(),
        "unrouted": sharded.unrouted_packets,
        "offered_bins": {d.value: dict(b) for d, b in router.offered._bins.items()},
        "passed_bins": {d.value: dict(b) for d, b in router.passed._bins.items()},
        "drop_windows": (dict(router.inbound_drops._packets),
                         dict(router.inbound_drops._dropped)),
        "blocklist_size": len(router.blocklist),
        "suppressed": router.blocklist.suppressed_packets,
    }


def bench_parallel(packets, shard_count: int, output: Path, quick: bool) -> bool:
    """The scaling curve: single-process sharded replay vs 1/2/4/8 workers.

    Returns True when every engine produced identical merged results.
    """
    print(f"\n-- parallel sharded replay ({shard_count} shards) --")
    start = time.perf_counter()
    legacy = replay(packets, make_sharded(shard_count), use_blocklist=True)
    legacy_s = time.perf_counter() - start
    reference = sharded_fingerprint(legacy)
    print(f"single-process sharded: {len(packets) / legacy_s:,.0f} pkts/s "
          f"({legacy_s:.1f}s)")

    curve = {}
    identical = True
    for workers in WORKER_CURVE:
        start = time.perf_counter()
        result = parallel_replay(packets, make_sharded(shard_count),
                                 workers=workers)
        elapsed = time.perf_counter() - start
        matches = sharded_fingerprint(result) == reference
        identical = identical and matches
        curve[workers] = {
            "wall_s": round(elapsed, 2),
            "pkts_per_sec": round(len(packets) / elapsed),
            "identical_to_single_process": matches,
        }
        print(f"workers={workers}: {len(packets) / elapsed:,.0f} pkts/s "
              f"({elapsed:.1f}s) identical={matches}")
    if not identical:
        print("FAIL: a parallel run diverged from the single-process "
              "sharded replay", file=sys.stderr)

    base_wall = curve[1]["wall_s"]
    report = {
        "trace": {"packets": len(packets)},
        "host_cpu_cores": os.cpu_count(),
        "shards": shard_count,
        "single_process_sharded": {
            "wall_s": round(legacy_s, 2),
            "pkts_per_sec": round(len(packets) / legacy_s),
        },
        "workers": curve,
        "speedup_vs_workers_1": {
            workers: round(base_wall / entry["wall_s"], 2)
            for workers, entry in curve.items()
        },
        "identical_results": identical,
        "note": "speedup scales with physical cores; a 1-core host shows "
                "multiprocessing overhead instead of gains",
    }
    if not quick:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"parallel scaling curve -> {output}")
    return identical


def bench_popcount(size: int = 1 << 20, fill: float = 0.3, repeat: int = 200):
    """Time the popcount strategies on a realistically-loaded vector."""
    rng = random.Random(0)
    vector = BitVector(size)
    vector.set_many([rng.randrange(size) for _ in range(int(size * fill))])
    data = vector.to_bytes()

    def timeit(fn):
        start = time.perf_counter()
        for _ in range(repeat):
            fn(data)
        return (time.perf_counter() - start) / repeat

    results = {
        "bits": size,
        "popcount": popcount_bytes(data),
        "bin_count_us": timeit(
            lambda d: bin(int.from_bytes(d, "little")).count("1")) * 1e6,
        "bit_count_us": timeit(popcount_bytes) * 1e6,
        "table_fallback_us": timeit(_popcount_fallback) * 1e6,
    }
    results["bin_count_vs_bit_count"] = (
        results["bin_count_us"] / results["bit_count_us"]
    )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--packets", type=int, default=1_000_000,
                        help="target trace length (default: 1M)")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="connection arrivals per second (default: 20)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_replay_throughput.json")
    parser.add_argument("--parallel-output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_parallel_replay.json")
    parser.add_argument("--skip-popcount", action="store_true",
                        help="skip the popcount micro-benchmark")
    parser.add_argument("--shards", type=int, default=8,
                        help="shard count for the parallel stage (power of 2)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: ~50k packets, no file writes, "
                             "no speedup-target enforcement — only the "
                             "equivalence checks gate the exit code")
    args = parser.parse_args(argv)
    if args.quick:
        args.packets = min(args.packets, 50_000)
        args.skip_popcount = True

    # numpy (when installed) loads on first use; load it here, outside
    # the timed replays.
    _numpy()
    packets = build_trace(args.packets, args.rate, args.seed)
    outbound = sum(1 for p in packets if p.direction is Direction.OUTBOUND)

    legacy, legacy_s = run_replay(packets, batched=False)
    print(f"legacy:  {len(packets) / legacy_s:,.0f} pkts/s ({legacy_s:.1f}s)")
    batched, batched_s = run_replay(packets, batched=True)
    print(f"batched: {len(packets) / batched_s:,.0f} pkts/s ({batched_s:.1f}s)")

    legacy_summary = summarize(legacy)
    batched_summary = summarize(batched)
    if legacy_summary != batched_summary:
        print("FAIL: batched path diverged from legacy path", file=sys.stderr)
        print(f"legacy:  {legacy_summary}", file=sys.stderr)
        print(f"batched: {batched_summary}", file=sys.stderr)
        return 1
    print("verdicts/stats identical across engines")

    speedup = legacy_s / batched_s
    memo = legacy.router.filter.hash_memo, batched.router.filter.hash_memo
    # Regression gate: flows spanning the batched run's chunks must
    # produce more memo hits than misses.  A memo recreated per chunk
    # still records some hits — a strict-mode two-way flow hits its own
    # outbound key within each chunk — but misses every flow again in
    # each new chunk, so its hits stay below its misses.
    if memo[1].hits <= memo[1].misses:
        print(f"FAIL: hash-index memo recorded no more hits than misses "
              f"(hits={memo[1].hits}, misses={memo[1].misses})",
              file=sys.stderr)
        return 1
    print(f"hash-index memo: {memo[1].hits:,} hits / {memo[1].misses:,} misses")
    report = {
        "trace": {
            "packets": len(packets),
            "outbound_packets": outbound,
            "inbound_packets": legacy.inbound_packets,
            "connection_rate": args.rate,
            "seed": args.seed,
            "duration_s": round(legacy.duration, 1),
        },
        "legacy": {
            "wall_s": round(legacy_s, 2),
            "pkts_per_sec": round(len(packets) / legacy_s),
        },
        "batched": {
            "wall_s": round(batched_s, 2),
            "pkts_per_sec": round(len(packets) / batched_s),
            "memo_hits": memo[1].hits,
            "memo_misses": memo[1].misses,
        },
        "speedup": round(speedup, 2),
        "target_speedup": TARGET_SPEEDUP,
        "identical_results": {
            "inbound_dropped": legacy.inbound_dropped,
            "blocked_connections": legacy_summary["blocklist_size"],
            "filter_stats": legacy_summary["filter_stats"],
        },
    }
    if not args.skip_popcount:
        report["popcount_bench"] = bench_popcount()
        print(
            "popcount (2^20 bits): "
            f"bin().count {report['popcount_bench']['bin_count_us']:.0f}us, "
            f"bit_count {report['popcount_bench']['bit_count_us']:.1f}us, "
            f"table fallback {report['popcount_bench']['table_fallback_us']:.0f}us"
        )

    if not args.quick:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"speedup: {speedup:.2f}x (target >= {TARGET_SPEEDUP}x) -> {args.output}")
    else:
        print(f"speedup: {speedup:.2f}x (quick mode, target not enforced)")

    parallel_ok = bench_parallel(packets, args.shards, args.parallel_output,
                                 quick=args.quick)
    if not parallel_ok:
        return 1
    if not args.quick and speedup < TARGET_SPEEDUP:
        print("FAIL: speedup below target", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

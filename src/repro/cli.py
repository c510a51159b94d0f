"""Command-line interface: ten subcommands.

Four mirror the library's workflow::

    repro trace   --out trace.pcap --duration 60 --rate 10   # synthesize
    repro analyze trace.pcap                                  # section 3 study
    repro filter  trace.pcap --filter bitmap --auto-red       # section 5 replay
    repro plan    --connections 15000 --target-p 0.05         # section 4.3 sizing

The other six: ``figures`` redraws the paper's figures, ``serve`` runs
the live filter daemon, ``feed`` streams a trace into it, ``ctl`` talks
to its control socket, ``fleet`` supervises a fleet of daemons and
``swarm`` runs the adversarial closed-loop swarm.  Every command that
builds a filter builds it through one
:class:`~repro.filters.spec.FilterSpec`.

Every command prints plain text; nothing writes outside the paths given.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.filters.spec import FilterSpec, add_filter_flags, red_band_error


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point: parse arguments, dispatch to a command handler."""
    parser = build_parser()
    args = parser.parse_args(argv)
    path = getattr(args, "pcap", None)
    if path is not None:
        try:
            open(path, "rb").close()
        except OSError as exc:
            parser.error(f"cannot read {path}: {exc.strerror or exc}")
    if getattr(args, "handler", None) in (cmd_filter, cmd_serve, cmd_fleet_serve):
        error = red_band_error(args)
        if error is not None:
            parser.error(error)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    return args.handler(args)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bitmap-filter reproduction toolkit (Huang & Lei, DSN 2007)",
    )
    sub = parser.add_subparsers(title="commands")

    trace = sub.add_parser("trace", help="synthesize a client-network pcap trace")
    trace.add_argument("--out", required=True, help="output pcap path")
    trace.add_argument("--duration", type=float, default=60.0, help="trace seconds")
    trace.add_argument("--rate", type=float, default=10.0, help="connection arrivals/sec")
    trace.add_argument("--hosts", type=int, default=120, help="client hosts")
    trace.add_argument("--seed", type=int, default=7, help="random seed")
    trace.add_argument("--snaplen", type=int, default=65535,
                       help="bytes captured per packet (64 = headers only)")
    trace.set_defaults(handler=cmd_trace)

    analyze = sub.add_parser("analyze", help="run the section-3 traffic analysis")
    analyze.add_argument("pcap", help="input pcap path")
    analyze.add_argument("--network", default="10.1.0.0/16",
                         help="client network CIDR (decides packet direction)")
    analyze.set_defaults(handler=cmd_analyze)

    filt = sub.add_parser(
        "filter", help="replay a pcap (or synthetic trace) through a filter"
    )
    filt.add_argument("pcap", nargs="?", default=None,
                      help="input pcap (omit to synthesize a trace)")
    filt.add_argument("--network", default="10.1.0.0/16")
    filt.add_argument("--duration", type=float, default=60.0,
                      help="synthetic trace seconds (no pcap given)")
    filt.add_argument("--rate", type=float, default=10.0,
                      help="synthetic connection arrivals/sec")
    filt.add_argument("--hosts", type=int, default=120)
    filt.add_argument("--seed", type=int, default=7)
    add_filter_flags(filt, size_bits=20,
                     kinds=("bitmap", "spi", "naive", "counting", "none"),
                     auto_red=True)
    filt.add_argument("--batched", action="store_true",
                      help="use the columnar batched replay engine "
                           "(identical results, much faster)")
    filt.add_argument("--workers", type=int, default=1,
                      help="worker processes for the multiprocess sharded "
                           "replay engine (>1 shards the client network; "
                           "identical merged results)")
    filt.add_argument("--shard-bits", type=int, default=2,
                      help="with --workers > 1: split the client network "
                           "into 2^bits per-subnet shards (default: 4 shards)")
    filt.set_defaults(handler=cmd_filter)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures from a pcap (or synthetic)"
    )
    figures.add_argument("pcap", nargs="?", default=None,
                         help="input pcap (omit to synthesize a trace)")
    figures.add_argument("--network", default="10.1.0.0/16")
    figures.add_argument("--duration", type=float, default=90.0,
                         help="synthetic trace seconds (no pcap given)")
    figures.add_argument("--rate", type=float, default=12.0)
    figures.add_argument("--seed", type=int, default=7)
    figures.set_defaults(handler=cmd_figures)

    serve = sub.add_parser(
        "serve", help="run the live filter daemon over a packet source"
    )
    serve.add_argument("--source", default="generator",
                       choices=("generator", "pcap", "socket", "idle"),
                       help="where packets come from")
    serve.add_argument("--pcap", default=None, help="capture path (--source pcap)")
    serve.add_argument("--network", default="10.1.0.0/16",
                       help="client network CIDR (directions, sharding)")
    serve.add_argument("--feed", default=None,
                       help="listen address for the packet feed "
                            "(--source socket): unix:/path or tcp:host:port")
    serve.add_argument("--duration", type=float, default=60.0,
                       help="generator trace seconds (--source generator)")
    serve.add_argument("--rate", type=float, default=10.0,
                       help="generator connection arrivals/sec")
    serve.add_argument("--hosts", type=int, default=120)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--chunk-size", type=int, default=4096,
                       help="packets per source chunk")
    serve.add_argument("--speed", type=float, default=None,
                       help="trace-time pacing multiplier (1.0 = real time; "
                            "omit to replay flat out)")
    serve.add_argument("--control", default=None,
                       help="control socket: unix:/path or tcp:host:port")
    serve.add_argument("--snapshot-dir", default=None,
                       help="directory for warm-restart snapshots")
    serve.add_argument("--snapshot-interval", type=float, default=None,
                       help="seconds between periodic snapshots")
    serve.add_argument("--restore", default=None,
                       help="warm-restart from a snapshot file (or the "
                            "latest snapshot in a directory)")
    serve.add_argument("--queue-depth", type=int, default=8,
                       help="ingest backpressure bound (chunks)")
    add_filter_flags(serve, size_bits=20)
    serve.add_argument("--sequential", action="store_true",
                       help="per-packet stepping instead of the columnar "
                            "batched engine (identical verdicts)")
    serve.set_defaults(handler=cmd_serve)

    feed = sub.add_parser(
        "feed", help="stream packet chunks into a daemon's socket source"
    )
    feed.add_argument("address",
                      help="feed address of the daemon: unix:/path or "
                           "tcp:host:port (the daemon's --feed)")
    feed.add_argument("--pcap", default=None,
                      help="capture to stream (omit to synthesize a trace)")
    feed.add_argument("--network", default="10.1.0.0/16",
                      help="client network CIDR (packet directions)")
    feed.add_argument("--duration", type=float, default=60.0,
                      help="synthetic trace seconds (no --pcap)")
    feed.add_argument("--rate", type=float, default=10.0,
                      help="synthetic connection arrivals/sec")
    feed.add_argument("--hosts", type=int, default=120)
    feed.add_argument("--seed", type=int, default=7)
    feed.add_argument("--chunk-size", type=int, default=4096,
                      help="packets per frame")
    feed.set_defaults(handler=cmd_feed)

    fleet = sub.add_parser(
        "fleet", help="supervise a fleet of shard daemons (one plan, N serves)"
    )
    fleet_sub = fleet.add_subparsers(title="fleet commands")

    fserve = fleet_sub.add_parser(
        "serve", help="spawn shard daemons, pump a trace through them, "
                      "merge the fleet verdict"
    )
    fserve.add_argument("--workdir", default=None,
                        help="fleet state directory: sockets, snapshots, "
                             "manifest (default: a fresh temp dir)")
    fserve.add_argument("--keying", default="subnet",
                        choices=("subnet", "hash"),
                        help="shard plan: per-subnet split of --network, or "
                             "a consistent-hash ring over client subnets")
    fserve.add_argument("--shards", type=int, default=None,
                        help="lane count for --keying hash")
    fserve.add_argument("--shard-bits", type=int, default=2,
                        help="with --keying subnet: split the client "
                             "network into 2^bits shards")
    fserve.add_argument("--network", default="10.1.0.0/16")
    fserve.add_argument("--pcap", default=None,
                        help="trace to pump (omit to synthesize)")
    fserve.add_argument("--duration", type=float, default=30.0)
    fserve.add_argument("--rate", type=float, default=8.0)
    fserve.add_argument("--hosts", type=int, default=120)
    fserve.add_argument("--seed", type=int, default=7)
    fserve.add_argument("--chunk-size", type=int, default=1024)
    fserve.add_argument("--snapshot-every", type=int, default=8,
                        help="checkpoint every N chunks (0 = off; crashed "
                             "shards then restart cold)")
    add_filter_flags(fserve, size_bits=16)
    fserve.add_argument("--rolling-restart", action="store_true",
                        help="roll every shard through a warm restart at "
                             "mid-trace (exactness drill)")
    fserve.add_argument("--kill-shard", type=int, default=None,
                        help="SIGKILL this shard at mid-trace (crash-"
                             "recovery drill)")
    fserve.add_argument("--verify-offline", action="store_true",
                        help="replay the same trace offline "
                             "(parallel_replay, workers=1) and require a "
                             "bit-identical fingerprint and blocklist")
    fserve.set_defaults(handler=cmd_fleet_serve)

    fstatus = fleet_sub.add_parser(
        "status", help="per-shard liveness for a running fleet"
    )
    fstatus.add_argument("workdir", help="the fleet's --workdir (manifest)")
    fstatus.set_defaults(handler=cmd_fleet_status)

    fctl = fleet_sub.add_parser(
        "ctl", help="fan one control command out to every shard daemon"
    )
    fctl.add_argument("workdir", help="the fleet's --workdir (manifest)")
    fctl.add_argument("command",
                      choices=("stats", "health", "config", "snapshot",
                               "drain", "shutdown"))
    fctl.add_argument("--low-mbps", type=float, default=None)
    fctl.add_argument("--high-mbps", type=float, default=None)
    fctl.add_argument("--probability", type=float, default=None)
    fctl.add_argument("--rotate", type=float, default=None)
    fctl.set_defaults(handler=cmd_fleet_ctl)

    ctl = sub.add_parser(
        "ctl", help="talk to a running filter daemon's control socket"
    )
    ctl.add_argument("address", help="control socket: unix:/path or tcp:host:port")
    ctl.add_argument("command",
                     choices=("stats", "health", "config", "snapshot",
                              "drain", "shutdown"))
    ctl.add_argument("--low-mbps", type=float, default=None,
                     help="config: new Equation 1 L")
    ctl.add_argument("--high-mbps", type=float, default=None,
                     help="config: new Equation 1 H")
    ctl.add_argument("--probability", type=float, default=None,
                     help="config: new static drop probability")
    ctl.add_argument("--rotate", type=float, default=None,
                     help="config: new Δt (rotation phase re-anchors)")
    ctl.set_defaults(handler=cmd_ctl)

    swarm = sub.add_parser(
        "swarm",
        help="run the adversarial closed-loop swarm against a filter",
    )
    swarm.add_argument("--peers", type=int, default=16, help="outside swarm peers")
    swarm.add_argument("--clients", type=int, default=4, help="inside client hosts")
    swarm.add_argument("--duration", type=float, default=120.0, help="trace seconds")
    swarm.add_argument("--seed", type=int, default=7, help="run seed")
    add_filter_flags(swarm, size_bits=14,
                     kinds=("bitmap", "counting", "spi", "chain"),
                     static_pd=True)
    swarm.add_argument("--no-evasion", action="store_true",
                       help="peers never react to refusals (baseline)")
    swarm.add_argument("--background-rate", type=float, default=1.0,
                       help="non-P2P connections/sec (collateral probe)")
    swarm.add_argument("--link-lifetime", type=float, default=45.0,
                       help="mean seconds before a link churns (0 = forever)")
    swarm.add_argument("--retune-mbps", type=float, default=None,
                       help="close the defense loop: steer P_d toward this "
                            "uplink target (starts from --pd)")
    swarm.add_argument("--retune-via", default="direct",
                       choices=("direct", "control"),
                       help="apply retuned P_d in-process or through a live "
                            "FilterService control socket")
    swarm.add_argument("--retune-interval", type=float, default=5.0,
                       help="seconds between retune probes")
    swarm.add_argument("--retune-gain", type=float, default=0.4,
                       help="TargetRateController integral gain")
    swarm.add_argument("--json", dest="json_out", default=None,
                       help="write the full SwarmResult as JSON (use '-' "
                            "for stdout)")
    swarm.set_defaults(handler=cmd_swarm)

    plan = sub.add_parser("plan", help="size a bitmap filter (section 4.3)")
    plan.add_argument("--connections", type=int, required=True,
                      help="active connections per T_e window")
    plan.add_argument("--target-p", type=float, default=0.05,
                      help="tolerated penetration probability")
    plan.add_argument("--expiry", type=float, default=20.0, help="T_e seconds")
    plan.add_argument("--rotate", type=float, default=5.0, help="Δt seconds")
    plan.set_defaults(handler=cmd_plan)

    return parser


# ---------------------------------------------------------------------------


def _parse_cidr(text: str):
    from repro.net.inet import parse_ipv4

    if "/" in text:
        network, prefix = text.split("/", 1)
        return parse_ipv4(network), int(prefix)
    return parse_ipv4(text), 16


def _load_pcap(path: str, network_cidr: str):
    from repro.net.headers import HeaderError, decode_packet
    from repro.net.inet import in_network
    from repro.net.packet import Direction
    from repro.net.pcap import iter_pcap

    network, prefix = _parse_cidr(network_cidr)
    packets = []
    for record in iter_pcap(path):
        try:
            packet = decode_packet(record.data, record.timestamp)
        except HeaderError:
            continue
        inside = in_network(packet.pair.src_addr, network, prefix)
        packet.direction = Direction.OUTBOUND if inside else Direction.INBOUND
        packets.append(packet)
    return packets


def _load_table(path: str, network_cidr: str):
    """Stream a pcap straight into a columnar PacketTable (never holds
    the capture twice: records decode one at a time into columns)."""
    from repro.net.table import PacketTable

    network, prefix = _parse_cidr(network_cidr)
    return PacketTable.from_pcap(path, network, prefix)


def _trace_generator(args):
    """The synthetic trace a command's --duration, --rate, --hosts and
    --seed describe."""
    from repro.workload.generator import TraceConfig, TraceGenerator

    return TraceGenerator(TraceConfig(
        duration=args.duration,
        connection_rate=args.rate,
        hosts=args.hosts,
        seed=args.seed,
    ))


def cmd_trace(args) -> int:
    """Synthesize a client-network trace and write it as a pcap."""
    from repro.workload.progress import ProgressReporter

    generator = _trace_generator(args)
    reporter = ProgressReporter("trace", duration=args.duration)
    count = generator.write_pcap(args.out, snaplen=args.snaplen,
                                 progress=reporter.update)
    reporter.finish()
    print(f"wrote {count:,} packets ({len(generator.specs()):,} connections) "
          f"to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    """Run the section-3 measurement study over a pcap."""
    from repro.analyzer.classifier import TrafficAnalyzer
    from repro.analyzer.report import lifetime_report, protocol_distribution
    from repro.net.packet import Direction

    packets = _load_pcap(args.pcap, args.network)
    if not packets:
        print("no parseable packets", file=sys.stderr)
        return 1
    analyzer = TrafficAnalyzer().analyze(packets)

    print(f"{len(packets):,} packets, {len(analyzer.flows):,} connections\n")
    print(f"{'protocol':<12} {'connections':>12} {'bytes':>8}")
    for row in protocol_distribution(analyzer.flows):
        print(f"{row.protocol:<12} {row.connection_share:>11.1%} {row.byte_share:>7.1%}")

    try:
        report = lifetime_report(analyzer.flows)
        print(f"\nTCP lifetimes: mean {report.mean:.1f}s, "
              f"90% < {report.quantiles[0.9]:.1f}s, "
              f"95% < {report.quantiles[0.95]:.1f}s")
    except ValueError:
        pass
    if analyzer.outin is not None and len(analyzer.outin):
        print(f"out-in delay: median {analyzer.outin.quantile(0.5) * 1000:.0f} ms, "
              f"99% < {analyzer.outin.quantile(0.99):.2f}s")
    upload = sum(p.size for p in packets if p.direction is Direction.OUTBOUND)
    total = sum(p.size for p in packets)
    print(f"upload share: {upload / total:.1%} of {total:,} bytes")
    return 0


def _build_sharded_filter(args, spec: FilterSpec):
    """Split the client network into 2^shard_bits per-subnet shards, each
    hosting its own filter instance (per-network policy isolation)."""
    from repro.filters.sharded import ShardedFilter

    network, prefix = _parse_cidr(args.network)
    shard_prefix = prefix + args.shard_bits
    if args.shard_bits < 1 or shard_prefix > 32:
        raise SystemExit(
            f"--shard-bits {args.shard_bits} does not fit inside /{prefix}"
        )
    step = 1 << (32 - shard_prefix)
    return ShardedFilter([
        (network + index * step, shard_prefix, spec.build()[0])
        for index in range(1 << args.shard_bits)
    ])


def cmd_filter(args) -> int:
    """Replay a pcap through a chosen filter and report the outcome."""
    from repro.filters.base import AcceptAllFilter
    from repro.net.packet import Direction
    from repro.sim.pipeline import select_backend
    from repro.sim.replay import replay

    if args.pcap is not None:
        packets = _load_table(args.pcap, args.network)
    else:
        print(f"synthesizing trace ({args.duration:g}s at {args.rate:g} "
              f"conn/s, seed {args.seed})...")
        packets = _trace_generator(args).table()
    if not len(packets):
        print("no parseable packets", file=sys.stderr)
        return 1

    baseline = replay(packets, AcceptAllFilter(), use_blocklist=False)
    offered_up = baseline.passed.mean_mbps(Direction.OUTBOUND)

    spec = FilterSpec.from_args(args, uplink_mbps=offered_up)
    if args.workers > 1:
        packet_filter = _build_sharded_filter(args, spec)
    else:
        packet_filter, _ = spec.build()
    # batched=None lets each backend keep its default lane engine (the
    # parallel backend batches its lanes even without --batched).
    backend = select_backend(batched=True if args.batched else None,
                             workers=args.workers)
    start = time.perf_counter()
    result = replay(packets, packet_filter,
                    use_blocklist=spec.use_blocklist, backend=backend)
    elapsed = time.perf_counter() - start

    print(f"filter: {packet_filter.name}  ({spec.describe()})")
    engine = backend.describe()
    busy = [lane for lane in result.lanes if lane.lane >= 0]
    if args.workers > 1:
        engine += f" ({len(busy)} of {len(packet_filter)} shards carried packets)"
    print(f"engine: {engine}  ({result.packets / elapsed:,.0f} pkts/s)")
    if args.workers > 1 and len(busy) == 1:
        print(f"hint: every client packet landed in shard "
              f"{packet_filter.shard_label(busy[0].lane)}; narrow --network to "
              f"the hosts' subnet (or raise --shard-bits) to spread them")
    print(f"packets: {result.packets:,}  inbound: {result.inbound_packets:,}")
    print(f"inbound drop rate: {result.inbound_drop_rate:.2%}")
    print(f"uplink: {offered_up:.2f} -> "
          f"{result.passed.mean_mbps(Direction.OUTBOUND):.2f} Mbps")
    print(f"downlink: {baseline.passed.mean_mbps(Direction.INBOUND):.2f} -> "
          f"{result.passed.mean_mbps(Direction.INBOUND):.2f} Mbps")
    if result.router.blocklist is not None:
        print(f"blocked connections: {len(result.router.blocklist):,}")
    if hasattr(packet_filter, "memory_bytes"):
        print(f"filter memory: {packet_filter.memory_bytes // 1024} KiB")
    if args.workers > 1:
        for label, stats in packet_filter.shard_stats().items():
            seen = (stats["passed_inbound"] + stats["dropped_inbound"]
                    + stats["passed_outbound"] + stats["dropped_outbound"])
            print(f"  shard {label}: {seen:,} packets, "
                  f"inbound drop rate {stats['inbound_drop_rate']:.2%}")
        if packet_filter.unrouted_packets:
            print(f"  transit (default lane): {packet_filter.unrouted_packets:,} packets")
    return 0


def cmd_figures(args) -> int:
    """Regenerate every figure of the paper's evaluation as ASCII plots."""
    from repro.analyzer.classifier import TrafficAnalyzer
    from repro.analyzer.report import (
        CLASS_NON_P2P,
        CLASS_P2P,
        CLASS_UNKNOWN,
        lifetime_report,
        port_cdf,
        protocol_distribution,
    )
    from repro.filters.base import AcceptAllFilter
    from repro.filters.spec import auto_red_thresholds
    from repro.net.inet import IPPROTO_TCP, IPPROTO_UDP
    from repro.net.packet import Direction
    from repro.report.figures import (
        render_cdf,
        render_histogram,
        render_scatter,
        render_series,
    )
    from repro.sim.replay import compare_drop_rates, replay

    if args.pcap is not None:
        packets = _load_table(args.pcap, args.network)
    else:
        from repro.workload.generator import TraceConfig, TraceGenerator

        print(f"synthesizing trace ({args.duration:g}s at {args.rate:g} conn/s, "
              f"seed {args.seed})...")
        packets = TraceGenerator(
            TraceConfig(duration=args.duration, connection_rate=args.rate,
                        seed=args.seed)
        ).table()
    if not len(packets):
        print("no parseable packets", file=sys.stderr)
        return 1
    print(f"{len(packets):,} packets\n")

    # PacketTable iteration materializes one Packet at a time, so the
    # object-based analyzer streams over the columnar trace.
    analyzer = TrafficAnalyzer().analyze(packets)

    print("== Table 2: protocol distribution ==")
    for row in protocol_distribution(analyzer.flows):
        print(f"  {row.protocol:<12} {row.connection_share:>7.1%} of connections, "
              f"{row.byte_share:>6.1%} of bytes")

    tcp_cdf = port_cdf(analyzer.flows, protocol=IPPROTO_TCP)
    print("\n" + render_cdf(
        {klass: [(float(p), f) for p, f in tcp_cdf[klass]]
         for klass in (CLASS_P2P, CLASS_NON_P2P, CLASS_UNKNOWN) if klass in tcp_cdf},
        title="Figure 2: TCP service-port CDF",
    ))

    udp_cdf = port_cdf(analyzer.flows, protocol=IPPROTO_UDP)
    if udp_cdf:
        print("\n" + render_cdf(
            {"ALL": [(float(p), f) for p, f in udp_cdf["ALL"]]},
            title="Figure 3: UDP port CDF",
        ))

    report = lifetime_report(analyzer.flows)
    print("\n" + render_histogram(report.histogram[:18],
                                  title=f"Figure 4: lifetimes (mean {report.mean:.1f}s)"))

    if analyzer.outin is not None and len(analyzer.outin):
        print("\n" + render_histogram(
            analyzer.outin.histogram(bin_width=0.25, max_delay=3.0),
            title=f"Figure 5: out-in delays (99% < "
                  f"{analyzer.outin.quantile(0.99):.2f}s)",
        ))

    comparison = compare_drop_rates(
        packets,
        {kind: FilterSpec(kind=kind).build()[0] for kind in ("spi", "bitmap")},
        batched=True,
    )
    print("\n" + render_scatter(
        comparison.points,
        title=f"Figure 8: drop rates (SPI {comparison.overall('spi'):.2%} vs "
              f"bitmap {comparison.overall('bitmap'):.2%})",
    ))

    baseline = replay(packets, AcceptAllFilter(), use_blocklist=False, batched=True)
    low, high = auto_red_thresholds(baseline.passed.mean_mbps(Direction.OUTBOUND))
    limited = replay(
        packets,
        FilterSpec(low_mbps=low, high_mbps=high).build()[0],
        use_blocklist=True,
        batched=True,
    )
    horizon = packets.last_timestamp * 0.6
    for title, result in (("Figure 9-a: uplink before", baseline),
                          ("Figure 9-b: uplink after (H marked)", limited)):
        series = [(t, v) for t, v in result.passed.series_mbps(Direction.OUTBOUND)
                  if t <= horizon]
        print("\n" + render_series(series, title=title, y_label="Mbps", hline=high))
    return 0


def _build_source(args):
    from repro.service import (
        GeneratorSource,
        IdleSource,
        PcapSource,
        SocketSource,
    )

    if args.source == "generator":
        return GeneratorSource(_trace_generator(args), chunk_size=args.chunk_size)
    if args.source == "pcap":
        if args.pcap is None:
            raise SystemExit("--source pcap needs --pcap PATH")
        network, prefix = _parse_cidr(args.network)
        return PcapSource(args.pcap, network, prefix,
                          chunk_size=args.chunk_size)
    if args.source == "socket":
        if args.feed is None:
            raise SystemExit("--source socket needs --feed ADDRESS")
        from repro.service.control import parse_control_address

        kind, address = parse_control_address(args.feed)
        if kind == "unix":
            return SocketSource.unix(address)
        host, port = address
        return SocketSource.tcp(host, port)
    return IdleSource()


def cmd_serve(args) -> int:
    """Run the streaming filter daemon until its source ends or a
    control-plane drain/shutdown finalizes it."""
    from repro.net.packet import Direction
    from repro.service import FilterService
    from repro.sim.pipeline import BatchedBackend, SequentialBackend

    source = _build_source(args)
    backend = SequentialBackend() if args.sequential else BatchedBackend()
    common = dict(
        backend=backend,
        speed=args.speed,
        queue_depth=args.queue_depth,
        snapshot_dir=args.snapshot_dir,
        snapshot_interval=args.snapshot_interval,
        control=args.control,
        handle_signals=True,
    )
    if args.restore is not None:
        service = FilterService.restore(args.restore, source, **common)
        note = f"restored from {args.restore}"
    else:
        spec = FilterSpec.from_args(args)
        note = spec.describe()
        service = FilterService(
            source, spec.build()[0],
            use_blocklist=spec.use_blocklist,
            **common,
        )
    print(f"serving {source.describe()} via {backend.describe()}  ({note})")
    if args.control:
        print(f"control socket: {args.control}")
    try:
        result = service.run_forever()
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    print(f"packets: {result.packets:,}  inbound: {result.inbound_packets:,}  "
          f"drop rate: {result.inbound_drop_rate:.2%}")
    print(f"uplink passed: {result.passed.mean_mbps(Direction.OUTBOUND):.2f} Mbps")
    if result.router.blocklist is not None:
        print(f"blocked connections: {len(result.router.blocklist):,}")
    if result.fingerprint is not None:
        print(f"verdict fingerprint: {result.fingerprint:#018x}")
    return 0


def cmd_feed(args) -> int:
    """Stream a trace into a running daemon's socket source, one
    length-prefixed binary columnar frame per chunk."""
    import socket as socket_module

    from repro.net.stream import FrameWriter
    from repro.service.control import parse_control_address

    if args.chunk_size < 1:
        raise SystemExit(f"--chunk-size must be >= 1: {args.chunk_size}")
    if args.pcap is not None:
        from repro.net.table import PacketTable

        network, prefix = _parse_cidr(args.network)
        table = PacketTable.from_pcap(args.pcap, network, prefix)
        chunks = (table.slice(start, start + args.chunk_size)
                  for start in range(0, len(table), args.chunk_size))
        label = f"pcap {args.pcap}"
    else:
        chunks = _trace_generator(args).iter_tables(args.chunk_size)
        label = (f"synthetic trace ({args.duration:g}s at "
                 f"{args.rate:g} conn/s, seed {args.seed})")

    kind, address = parse_control_address(args.address)
    connection = socket_module.socket(
        socket_module.AF_UNIX if kind == "unix" else socket_module.AF_INET
    )
    try:
        connection.connect(address)
    except OSError as error:
        print(f"cannot connect to {args.address}: {error}", file=sys.stderr)
        connection.close()
        return 1
    stream = connection.makefile("wb")
    writer = FrameWriter(stream)
    from repro.workload.progress import ProgressReporter

    reporter = ProgressReporter(
        "feed", duration=args.duration if args.pcap is None else None
    )
    packets = 0
    try:
        for chunk in chunks:
            writer.send(chunk)
            packets += len(chunk)
            reporter.update(
                packets, chunk.timestamps[-1] if len(chunk) else None
            )
        reporter.finish()
    except (BrokenPipeError, ConnectionResetError):
        print("daemon closed the feed", file=sys.stderr)
        return 1
    finally:
        try:
            stream.close()
        except OSError:
            pass
        connection.close()
    print(f"fed {label}: {packets:,} packets in {writer.frames_sent} "
          f"binary frames ({writer.bytes_sent:,} payload bytes)")
    return 0


def _build_fleet_plan(args):
    from repro.shard.plan import HashShardPlan, SubnetShardPlan

    if args.keying == "hash":
        return HashShardPlan(args.shards or 4, seed=args.seed)
    if args.shards is not None:
        raise SystemExit("--shards needs --keying hash "
                         "(subnet keying uses --shard-bits)")
    network, prefix = _parse_cidr(args.network)
    try:
        return SubnetShardPlan.from_cidr(network, prefix, args.shard_bits)
    except ValueError as error:
        raise SystemExit(str(error))


def _fleet_table(args):
    if args.pcap is not None:
        table = _load_table(args.pcap, args.network)
        label = f"pcap {args.pcap}"
    else:
        table = _trace_generator(args).table()
        label = (f"synthetic trace ({args.duration:g}s at "
                 f"{args.rate:g} conn/s, seed {args.seed})")
    return table, label


def cmd_fleet_serve(args) -> int:
    """Spawn one filter daemon per shard lane, pump a trace through the
    fleet, and merge the per-shard verdicts into one result — optionally
    drilling a mid-trace crash or rolling restart on the way."""
    import tempfile

    from repro.fleet import FleetError, FleetSupervisor, offline_reference

    if args.chunk_size < 1:
        raise SystemExit(f"--chunk-size must be >= 1: {args.chunk_size}")
    plan = _build_fleet_plan(args)
    if args.kill_shard is not None and not 0 <= args.kill_shard < plan.lanes:
        raise SystemExit(
            f"--kill-shard {args.kill_shard} out of range (plan has "
            f"{plan.lanes} lanes)"
        )
    spec = FilterSpec.from_args(args)
    table, label = _fleet_table(args)
    if not len(table):
        print("no parseable packets", file=sys.stderr)
        return 1
    chunks = [table.slice(start, min(start + args.chunk_size, len(table)))
              for start in range(0, len(table), args.chunk_size)]
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-fleet-")

    supervisor = FleetSupervisor(
        plan, workdir, spec=spec, snapshot_every=args.snapshot_every
    )
    print(f"fleet: {plan.lanes} shards ({args.keying} keying) in {workdir}")
    print(f"pumping {label}: {len(table):,} packets in {len(chunks)} chunks")
    try:
        supervisor.launch()
        midpoint = len(chunks) // 2
        supervisor.feed(chunks[:midpoint])
        if args.kill_shard is not None:
            print(f"killing shard {plan.label(args.kill_shard)} mid-trace")
            supervisor.daemons[args.kill_shard].kill()
        if args.rolling_restart:
            print("rolling restart across the fleet")
            supervisor.rolling_restart()
        supervisor.feed(chunks[midpoint:])
        result = supervisor.drain()
    except FleetError as error:
        print(f"fleet error: {error}", file=sys.stderr)
        return 1
    finally:
        supervisor.stop()

    print(f"packets: {result.packets:,}  inbound: {result.inbound_packets:,}  "
          f"drop rate: {result.inbound_drop_rate:.2%}")
    if result.blocked is not None:
        print(f"blocked connections: {len(result.blocked):,}")
    print(f"shard restarts: {result.restarts}")
    print(f"fleet fingerprint: {result.fingerprint:#018x}")

    if args.verify_offline:
        reference = offline_reference(table, plan, spec)
        mismatches = []
        if reference.fingerprint != result.fingerprint:
            mismatches.append(
                f"fingerprint {result.fingerprint:#018x} != offline "
                f"{reference.fingerprint:#018x}"
            )
        offline_blocked = (
            reference.router.blocklist.entries()
            if reference.router.blocklist is not None else None
        )
        if (result.blocked or None) != (offline_blocked or None):
            mismatches.append("merged blocklist differs from offline replay")
        if mismatches:
            for mismatch in mismatches:
                print(f"OFFLINE MISMATCH: {mismatch}", file=sys.stderr)
            return 1
        print("offline verification: fingerprint and blocklist identical")
    return 0


def _read_fleet_manifest(workdir: str) -> dict:
    import json
    import os

    from repro.fleet.supervisor import MANIFEST_NAME

    path = os.path.join(workdir, MANIFEST_NAME)
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SystemExit(f"no fleet manifest at {path} "
                         f"(is this a fleet --workdir?)")
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot read fleet manifest {path}: {error}")


def cmd_fleet_status(args) -> int:
    """Per-shard liveness of a running fleet, via its manifest."""
    from repro.service import ControlClient, ControlError

    manifest = _read_fleet_manifest(args.workdir)
    plan = manifest.get("plan", {})
    print(f"fleet of {len(manifest['shards'])} shards "
          f"({plan.get('keying', '?')} keying)")
    exit_code = 0
    for shard in manifest["shards"]:
        try:
            with ControlClient(shard["control"], timeout=5.0) as client:
                health = client.health()
            status = (f"{health.get('status', 'unknown'):<9} "
                      f"chunks={health.get('chunks_done', 0)} "
                      f"queue={health.get('queue_depth', 0)}")
        except (ControlError, OSError) as error:
            status = f"unreachable ({error})"
            exit_code = 1
        print(f"  shard {shard['lane']} {shard['label']:<18} "
              f"pid={shard.get('pid')} restarts={shard.get('restarts', 0)} "
              f"{status}")
    return exit_code


def cmd_fleet_ctl(args) -> int:
    """Fan one control command out to every shard of a running fleet."""
    import json

    from repro.service import ControlClient, ControlError

    params = {}
    if args.command == "config":
        if args.low_mbps is not None:
            params["low_mbps"] = args.low_mbps
        if args.high_mbps is not None:
            params["high_mbps"] = args.high_mbps
        if args.probability is not None:
            params["probability"] = args.probability
        if args.rotate is not None:
            params["rotate_interval"] = args.rotate
        if not params:
            print("config needs at least one of --low-mbps/--high-mbps/"
                  "--probability/--rotate", file=sys.stderr)
            return 2

    manifest = _read_fleet_manifest(args.workdir)
    responses = {}
    exit_code = 0
    for shard in manifest["shards"]:
        try:
            with ControlClient(shard["control"], timeout=30.0) as client:
                responses[shard["label"]] = client.request(
                    args.command, **params
                )
        except (ControlError, OSError) as error:
            responses[shard["label"]] = {"ok": False, "error": str(error)}
            exit_code = 1
    print(json.dumps(responses, indent=2))
    return exit_code


def cmd_ctl(args) -> int:
    """One request against a running daemon's control socket."""
    import json

    from repro.service import ControlClient, ControlError

    try:
        with ControlClient(args.address) as client:
            if args.command == "stats":
                print(json.dumps(client.stats(), indent=2))
            elif args.command == "health":
                print(json.dumps(client.health(), indent=2))
            elif args.command == "snapshot":
                print(client.snapshot())
            elif args.command == "drain":
                print(json.dumps(client.drain(), indent=2))
            elif args.command == "shutdown":
                print(json.dumps(client.shutdown(), indent=2))
            else:
                params = {}
                if args.low_mbps is not None:
                    params["low_mbps"] = args.low_mbps
                if args.high_mbps is not None:
                    params["high_mbps"] = args.high_mbps
                if args.probability is not None:
                    params["probability"] = args.probability
                if args.rotate is not None:
                    params["rotate_interval"] = args.rotate
                if not params:
                    print("config needs at least one of --low-mbps/--high-mbps/"
                          "--probability/--rotate", file=sys.stderr)
                    return 2
                print(json.dumps(client.configure(**params), indent=2))
    except (ControlError, ConnectionError, FileNotFoundError, OSError) as error:
        print(f"control error: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_swarm(args) -> int:
    """Run the adversarial swarm and print the engagement summary."""
    import json

    from repro.core.autotune import TargetRateController
    from repro.swarm import (
        ControlApplier,
        DirectApplier,
        EvasionPolicy,
        RetuneLoop,
        SwarmConfig,
        SwarmSimulator,
        launch_control_service,
    )

    evasion = EvasionPolicy.off() if args.no_evasion else EvasionPolicy()
    config = SwarmConfig(
        peers=args.peers,
        clients=args.clients,
        duration=args.duration,
        seed=args.seed,
        background_rate=args.background_rate,
        link_lifetime=args.link_lifetime,
        evasion=evasion,
    )
    packet_filter, controller = FilterSpec.from_args(args).build()

    retune = None
    handle = None
    if args.retune_mbps is not None:
        target = TargetRateController.mbps(
            args.retune_mbps, gain=args.retune_gain,
            initial_probability=args.pd,
        )
        if args.retune_via == "control":
            import os
            import tempfile

            sock = os.path.join(tempfile.mkdtemp(prefix="swarm-ctl-"),
                                "control.sock")
            handle = launch_control_service(packet_filter, "unix:" + sock)
            applier = ControlApplier(handle.client())
        else:
            applier = DirectApplier(controller)
        retune = RetuneLoop(target, applier, interval=args.retune_interval)

    try:
        result = SwarmSimulator(packet_filter, config, retune=retune).run()
    finally:
        if handle is not None:
            handle.close()

    payload = result.as_dict()
    if args.json_out == "-":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    print(f"swarm: {args.peers} peers vs {args.clients} clients, "
          f"{args.duration:.0f}s, filter={args.filter_name} "
          f"P_d={args.pd} evasion={'off' if args.no_evasion else 'on'}")
    print(f"  attempts: {result.attempts_total} "
          f"(admitted {result.attempts_admitted}, "
          f"refused {result.attempts_refused})")
    print(f"  penetration probability: {result.penetration_probability:.3f} "
          f"({result.peers_penetrated}/{result.peers} peers penetrated)")
    for tactic in sorted(result.tactic_attempts):
        print(f"    {tactic}: {result.tactic_successes.get(tactic, 0)}"
              f"/{result.tactic_attempts[tactic]}")
    print(f"  reverse connections (outbound-initiated): "
          f"{result.reverse_connections}")
    print(f"  swarm upload: {result.swarm_upload_bytes:,} bytes "
          f"(bursts {result.burst_upload_bytes:,}, "
          f"reverse {result.reverse_upload_bytes:,})")
    print(f"  background: {result.background_total} connections, "
          f"{result.background_refused} refused "
          f"({result.background_refusal_rate:.1%} collateral)")
    if result.evasion_onset is not None:
        print(f"  evasion onset: t={result.evasion_onset:.1f}s")
    if retune is not None:
        recovery = ("%.1fs" % result.recovery_time
                    if result.recovery_time is not None else "not reached")
        print(f"  retune ({args.retune_via}): target "
              f"{args.retune_mbps:.2f} Mbps, recovery {recovery}, "
              f"final P_d {retune.controller.current_probability:.3f}")
    if result.replay is not None:
        print(f"  packets: {result.replay.packets:,}, "
              f"fingerprint {result.replay.fingerprint:#018x}")
    return 0


def cmd_plan(args) -> int:
    """Print a sized configuration from the section-4.3 procedure."""
    from repro.core.analysis import capacity_table, recommend_parameters

    rec = recommend_parameters(
        args.connections,
        target_p=args.target_p,
        expiry_time=args.expiry,
        rotate_interval=args.rotate,
    )
    print(rec.summary())
    print("\ncapacity of the recommended vector at other targets:")
    for row in capacity_table(rec.size):
        print(f"  p = {row['target_p']:.0%}: {row['capacity']:,.0f} connections")
    return 0


if __name__ == "__main__":
    sys.exit(main())

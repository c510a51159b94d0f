#!/usr/bin/env python
"""Adversarial swarm campaign: evasion frontier, hole-punch matrix, retune.

Three closed-loop engagements between the :mod:`repro.swarm` plane and
the filter family, every run fixed-seed and bit-reproducible (the whole
campaign executes twice and the reports must match verbatim,
fingerprints included):

**evasion frontier** — for each filter (bitmap, counting, SPI, chain),
the same swarm once with evasion off and once with the full tactic
cycle, at ``P_d = 0.9`` so each fresh admission trial has a nonzero
coin.  Evasion must measurably raise penetration on the bitmap:
more admitted attempts and a higher fraction of peers penetrated.

**hole-punch matrix** — bitmap at ``P_d = 1`` under ``STRICT`` versus
``HOLE_PUNCHING`` field modes.  The punch (outbound rendezvous probe,
then inbound connect from a *different* ephemeral port) must succeed
only when the asymmetric field mode is enabled.

**retune recovery** — the swarm against a bitmap that starts wide open
(``P_d = 0``), with a :class:`~repro.swarm.retune.RetuneLoop` steering
``P_d`` toward an uplink target through a **live FilterService control
socket** (`ControlClient`), versus a no-retune baseline.  The retuned
run must re-establish the bound with finite recovery time; the baseline
must not.

Modes::

    PYTHONPATH=src python benchmarks/bench_swarm.py           # writes BENCH_swarm.json
    PYTHONPATH=src python benchmarks/bench_swarm.py --quick   # CI smoke, no write
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.filters.spec import FilterSpec

FILTER_KINDS = ("bitmap", "counting", "spi", "chain")
FRONTIER_PD = 0.9
RETUNE_TARGET_MBPS = 0.8
RETUNE_GAIN = 0.4
RETUNE_INTERVAL = 5.0
#: Every engagement's defender, as ``repro swarm`` builds it by default
#: (N = 2^14); each engagement sets its own kind, P_d and field mode.
DEFENDER = FilterSpec(size_bits=14)


def swarm_config(args, evasion_on: bool):
    from repro.swarm import EvasionPolicy, SwarmConfig

    return SwarmConfig(
        peers=args.peers,
        clients=args.clients,
        duration=args.duration,
        seed=args.seed,
        evasion=EvasionPolicy() if evasion_on else EvasionPolicy.off(),
    )


def run_swarm(packet_filter, config, retune=None):
    from repro.swarm import SwarmSimulator

    return SwarmSimulator(packet_filter, config, retune=retune).run()


def result_row(result) -> dict:
    return {
        "attempts": result.attempts_total,
        "admitted": result.attempts_admitted,
        "refused": result.attempts_refused,
        "penetration_probability": round(result.penetration_probability, 6),
        "peer_penetration_rate": round(result.peer_penetration_rate, 6),
        "peers_penetrated": result.peers_penetrated,
        "tactic_successes": dict(sorted(result.tactic_successes.items())),
        "reverse_connections": result.reverse_connections,
        "swarm_upload_bytes": result.swarm_upload_bytes,
        "background_refusal_rate": round(result.background_refusal_rate, 6),
        "evasion_onset": result.evasion_onset,
        "fingerprint": result.replay.fingerprint,
    }


def campaign(args) -> dict:
    """One full pass over the three engagements (run twice by main)."""
    from repro.core.autotune import TargetRateController
    from repro.swarm import (
        ControlApplier,
        RetuneLoop,
        TACTIC_HOLE_PUNCH,
        launch_control_service,
    )

    report = {"frontier": [], "hole_punch": {}, "retune": {}}

    # 1. Evasion-on vs evasion-off frontier, per filter kind.
    for kind in FILTER_KINDS:
        row = {"filter": kind}
        for label, evasion_on in (("evasion_off", False), ("evasion_on", True)):
            packet_filter, _ = replace(DEFENDER, kind=kind, pd=FRONTIER_PD).build()
            result = run_swarm(packet_filter, swarm_config(args, evasion_on))
            row[label] = result_row(result)
        report["frontier"].append(row)

    # 2. Hole-punch matrix: strict vs asymmetric fields at P_d = 1.
    for mode, hole_punching in (("strict", False), ("hole_punching", True)):
        packet_filter, _ = replace(DEFENDER, hole_punching=hole_punching).build()
        result = run_swarm(packet_filter, swarm_config(args, True))
        row = result_row(result)
        row["hole_punch_successes"] = result.tactic_successes.get(
            TACTIC_HOLE_PUNCH, 0
        )
        row["hole_punch_probes"] = result.hole_punch_probes
        report["hole_punch"][mode] = row

    # 3. Retune recovery through the live control plane vs no retune.
    retune_duration = max(args.duration, args.retune_duration)
    for label, with_retune in (("baseline", False), ("retuned", True)):
        config = swarm_config(args, True)
        config.duration = retune_duration
        packet_filter, _ = replace(DEFENDER, pd=0.0).build()
        if with_retune:
            sock = os.path.join(
                tempfile.mkdtemp(prefix="bench-swarm-"), "control.sock"
            )
            with launch_control_service(packet_filter, "unix:" + sock) as handle:
                loop = RetuneLoop(
                    TargetRateController.mbps(RETUNE_TARGET_MBPS,
                                              gain=RETUNE_GAIN),
                    ControlApplier(handle.client()),
                    interval=RETUNE_INTERVAL,
                )
                result = run_swarm(packet_filter, config, retune=loop)
            row = result_row(result)
            row["recovery_time"] = result.recovery_time
            row["retune_probes"] = len(result.retune_log)
            row["final_pd"] = round(loop.controller.current_probability, 6)
        else:
            result = run_swarm(packet_filter, config)
            row = result_row(result)
        window = [mbps for t, mbps in result.uplink_mbps
                  if t >= retune_duration * 0.6]
        row["late_uplink_mbps"] = round(
            sum(window) / len(window) if window else 0.0, 6
        )
        report["retune"][label] = row
    report["retune"]["target_mbps"] = RETUNE_TARGET_MBPS
    return report


def sanity(report: dict) -> list:
    """The acceptance criteria, as concrete checks; returns failures."""
    failures = []
    bitmap = next(r for r in report["frontier"] if r["filter"] == "bitmap")
    on, off = bitmap["evasion_on"], bitmap["evasion_off"]
    if not (on["admitted"] > off["admitted"]
            and on["peer_penetration_rate"] > off["peer_penetration_rate"]):
        failures.append(
            "evasion did not raise bitmap penetration: "
            f"admitted {on['admitted']} vs {off['admitted']}, peer rate "
            f"{on['peer_penetration_rate']} vs {off['peer_penetration_rate']}"
        )
    strict = report["hole_punch"]["strict"]
    punched = report["hole_punch"]["hole_punching"]
    if strict["hole_punch_successes"] != 0:
        failures.append(
            "hole punch succeeded under STRICT fields: "
            f"{strict['hole_punch_successes']}"
        )
    if punched["hole_punch_successes"] <= 0:
        failures.append("hole punch never succeeded under HOLE_PUNCHING")
    retuned = report["retune"]["retuned"]
    baseline = report["retune"]["baseline"]
    if retuned.get("recovery_time") is None:
        failures.append("retune never re-established the upload bound")
    if not retuned["late_uplink_mbps"] < baseline["late_uplink_mbps"]:
        failures.append(
            "retuned late uplink not below baseline: "
            f"{retuned['late_uplink_mbps']} vs {baseline['late_uplink_mbps']}"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--peers", type=int, default=16)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--duration", type=float, default=90.0,
                        help="frontier / hole-punch engagement seconds")
    parser.add_argument("--retune-duration", type=float, default=240.0,
                        help="retune engagement seconds (needs room for "
                             "overshoot, clamp, decay, recovery)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--output", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_swarm.json")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small swarm, short engagements, "
                             "no file write; sanity + determinism still "
                             "gate the exit code")
    args = parser.parse_args(argv)

    if args.quick:
        args.peers = min(args.peers, 8)
        args.clients = min(args.clients, 3)
        args.duration = min(args.duration, 60.0)
        args.retune_duration = min(args.retune_duration, 180.0)

    started = time.perf_counter()
    first = campaign(args)
    first_s = time.perf_counter() - started
    second = campaign(args)
    total_s = time.perf_counter() - started

    first_json = json.dumps(first, indent=2, sort_keys=True)
    if first_json != json.dumps(second, indent=2, sort_keys=True):
        print("FAIL: two same-seed campaigns disagree (determinism broken)",
              file=sys.stderr)
        return 1

    print(f"{'filter':>9} {'evasion':>8} {'attempts':>9} {'admitted':>9} "
          f"{'peers pen.':>10} {'upload MB':>10}")
    for row in first["frontier"]:
        for label in ("evasion_off", "evasion_on"):
            cell = row[label]
            print(f"{row['filter']:>9} {label[8:]:>8} {cell['attempts']:>9} "
                  f"{cell['admitted']:>9} "
                  f"{cell['peer_penetration_rate']:>10.2f} "
                  f"{cell['swarm_upload_bytes'] / 1e6:>10.2f}")
    strict = first["hole_punch"]["strict"]
    punched = first["hole_punch"]["hole_punching"]
    print(f"\nhole punch: strict {strict['hole_punch_successes']}"
          f"/{strict['hole_punch_probes']}, hole-punching mode "
          f"{punched['hole_punch_successes']}/{punched['hole_punch_probes']}")
    retuned = first["retune"]["retuned"]
    baseline = first["retune"]["baseline"]
    recovery = retuned.get("recovery_time")
    print(f"retune: recovery "
          f"{'%.1fs' % recovery if recovery is not None else 'none'}, "
          f"late uplink {retuned['late_uplink_mbps']:.3f} Mbps retuned vs "
          f"{baseline['late_uplink_mbps']:.3f} baseline "
          f"(target {RETUNE_TARGET_MBPS})")
    print(f"campaign x2 in {total_s:.1f}s (single pass {first_s:.1f}s), "
          "both passes bit-identical")

    failures = sanity(first)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1

    if args.quick:
        print("swarm campaign sane (quick mode, no file written)")
        return 0

    report = {
        "config": {
            "peers": args.peers,
            "clients": args.clients,
            "duration_s": args.duration,
            "retune_duration_s": args.retune_duration,
            "seed": args.seed,
            "frontier_pd": FRONTIER_PD,
            "retune": {
                "target_mbps": RETUNE_TARGET_MBPS,
                "gain": RETUNE_GAIN,
                "interval_s": RETUNE_INTERVAL,
                "applier": "control (live FilterService socket)",
            },
        },
        "determinism": "two consecutive same-seed campaigns bit-identical",
        "frontier": first["frontier"],
        "hole_punch": first["hole_punch"],
        "retune": first["retune"],
        "timings": {
            "single_pass_s": round(first_s, 3),
            "double_pass_s": round(total_s, 3),
        },
    }
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"campaign written -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

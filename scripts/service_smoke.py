#!/usr/bin/env python3
"""CI smoke test for the service plane, driven entirely through the CLI.

Exercises the operator-facing path end to end, in two daemon lifetimes:

run 1: ``repro serve`` over a paced generator trace
       -> poll ``repro ctl ... health`` until traffic has flowed
       -> ``repro ctl ... stats`` (blocklist populated)
       -> ``repro ctl ... snapshot``
       -> ``repro ctl ... shutdown``
run 2: ``repro serve --restore <dir> --source idle`` (warm restart)
       -> ``repro ctl ... stats``: the blocklist survived the restart
       -> ``repro ctl ... shutdown``

Then the fleet phase: a 3-shard supervised fleet over the same kind of
trace — RED retune fanned out mid-trace, one shard SIGKILLed and
recovered from its snapshot, ``repro fleet status`` checked from outside
— whose merged fingerprint and blocklist must equal the offline
partitioned replay bit for bit.

Exits non-zero (with a transcript) on any failed expectation.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

CLI = [sys.executable, "-m", "repro.cli"]


def ctl(address, *argv, check=True):
    """Run one ``repro ctl`` command; returns parsed stdout."""
    result = subprocess.run(
        [*CLI, "ctl", address, *argv],
        capture_output=True, text=True, timeout=30,
    )
    if check and result.returncode != 0:
        raise SystemExit(
            f"ctl {argv} failed rc={result.returncode}: {result.stderr}"
        )
    try:
        return json.loads(result.stdout)
    except json.JSONDecodeError:
        return result.stdout.strip()


def wait_for(predicate, timeout, what):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.1)
    raise SystemExit(f"timed out waiting for {what}")


def health_or_none(address):
    result = subprocess.run(
        [*CLI, "ctl", address, "health"],
        capture_output=True, text=True, timeout=30,
    )
    if result.returncode != 0:
        return None
    return json.loads(result.stdout)


def serve(extra, address, workdir):
    return subprocess.Popen(
        [*CLI, "serve", "--control", address,
         "--snapshot-dir", workdir, *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def finish(daemon, label):
    output, _ = daemon.communicate(timeout=60)
    print(f"--- {label} output ---\n{output}")
    if daemon.returncode != 0:
        raise SystemExit(f"{label} exited rc={daemon.returncode}")
    return output


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="service-smoke-")
    address = f"unix:{os.path.join(workdir, 'ctl.sock')}"

    # -- run 1: paced traffic, snapshot, shutdown -----------------------
    daemon = serve(
        ["--source", "generator", "--duration", "20", "--rate", "6",
         "--seed", "5", "--chunk-size", "512", "--speed", "40",
         "--size-bits", "12", "--vectors", "3", "--hashes", "2",
         "--low-mbps", "0.1", "--high-mbps", "1.0"],
        address, workdir,
    )
    try:
        wait_for(lambda: health_or_none(address), 15, "control socket")
        wait_for(
            lambda: (health_or_none(address) or {}).get("chunks_done", 0) >= 3,
            30, "3 processed chunks",
        )
        stats = ctl(address, "stats")
        print(f"run 1: {stats['packets']} packets, "
              f"{stats['blocklist']['entries']} blocked connections")
        if stats["blocklist"]["entries"] == 0:
            raise SystemExit("expected a populated blocklist before restart")
        snapshot_path = ctl(address, "snapshot")
        if not os.path.isfile(snapshot_path):
            raise SystemExit(f"snapshot file missing: {snapshot_path}")
        # The restart comparison baseline is the snapshot itself — the
        # service keeps processing after the stats sample above, so the
        # file is the only exact reference.
        with open(snapshot_path) as handle:
            snapshot = json.load(handle)
        blocked_before = len(snapshot["router"]["blocklist"]["blocked"])
        fingerprint_before = snapshot["pipeline"]["fingerprint"]
        ctl(address, "shutdown")
        finish(daemon, "run 1")
    finally:
        if daemon.poll() is None:
            daemon.kill()

    # -- run 2: warm restart on an idle source --------------------------
    daemon = serve(
        ["--source", "idle", "--restore", workdir], address, workdir
    )
    try:
        wait_for(lambda: health_or_none(address), 15, "restarted socket")
        stats = ctl(address, "stats")
        blocked_after = stats["blocklist"]["entries"]
        fingerprint_after = stats["fingerprint"]
        print(f"run 2: blocklist {blocked_after} entries after restart")
        if blocked_after != blocked_before:
            raise SystemExit(
                f"blocklist lost across restart: "
                f"{blocked_before} -> {blocked_after}"
            )
        if fingerprint_after != fingerprint_before:
            raise SystemExit(
                f"fingerprint changed across restart: "
                f"{fingerprint_before:#x} -> {fingerprint_after:#x}"
            )
        ctl(address, "shutdown")
        finish(daemon, "run 2")
    finally:
        if daemon.poll() is None:
            daemon.kill()

    print("service smoke: OK (snapshot + warm restart preserved state)")

    fleet_smoke()


def fleet_smoke() -> None:
    """The fleet phase: supervised shard daemons under disruption must
    reproduce the offline partitioned replay exactly."""
    from repro.filters import FilterSpec
    from repro.fleet import FleetSupervisor, offline_reference
    from repro.shard.plan import HashShardPlan
    from repro.workload import TraceConfig, TraceGenerator

    workdir = tempfile.mkdtemp(prefix="fleet-smoke-")
    plan = HashShardPlan(3, seed=3)
    spec = FilterSpec(size_bits=12, vectors=3, hashes=2,
                      low_mbps=0.1, high_mbps=1.0)
    table = TraceGenerator(
        TraceConfig(duration=15.0, connection_rate=5.0, seed=5)
    ).table()
    chunks = [table.slice(start, min(start + 512, len(table)))
              for start in range(0, len(table), 512)]
    print(f"fleet: 3 shards in {workdir}, "
          f"{len(table)} packets in {len(chunks)} chunks")

    supervisor = FleetSupervisor(plan, workdir, spec=spec, snapshot_every=2)
    try:
        supervisor.launch()
        supervisor.feed(chunks[:len(chunks) // 2])

        # Fan-out retune: same values, so the offline reference (which
        # cannot retune mid-trace) stays comparable — the broadcast path
        # and the per-shard applied echo are what this exercises.
        applied = supervisor.configure(low_mbps=0.1, high_mbps=1.0)
        if len(applied) != 3 or any(
            response.get("low_mbps") != 0.1 for response in applied.values()
        ):
            raise SystemExit(f"fleet retune fan-out failed: {applied}")
        print(f"fleet: retune applied on {len(applied)} shards")

        # The operator view from another process, off the manifest.
        status = subprocess.run(
            [*CLI, "fleet", "status", workdir],
            capture_output=True, text=True, timeout=30,
        )
        if status.returncode != 0 or "3 shards" not in status.stdout:
            raise SystemExit(
                f"fleet status failed rc={status.returncode}:\n"
                f"{status.stdout}{status.stderr}"
            )
        print(status.stdout.strip())

        # Crash the busiest shard mid-trace; the next send recovers it
        # from its latest snapshot and resends the lane's retained epoch.
        busiest = max(supervisor.daemons, key=lambda d: d.frames_sent)
        print(f"fleet: killing {busiest.label} "
              f"({busiest.frames_sent} frames in)")
        busiest.kill()
        supervisor.feed(chunks[len(chunks) // 2:])
        result = supervisor.drain()
    finally:
        supervisor.stop()

    if result.restarts < 1:
        raise SystemExit("expected the killed shard to restart")
    reference = offline_reference(table, plan, spec)
    if result.fingerprint != reference.fingerprint:
        raise SystemExit(
            f"fleet fingerprint {result.fingerprint:#018x} != offline "
            f"{reference.fingerprint:#018x}"
        )
    offline_blocked = dict(reference.router.blocklist._blocked)
    if result.blocked != offline_blocked:
        raise SystemExit(
            f"fleet blocklist ({len(result.blocked)} rows) != offline "
            f"({len(offline_blocked)} rows)"
        )
    print(f"fleet smoke: OK (restarts={result.restarts}, fingerprint "
          f"{result.fingerprint:#018x} matches offline replay)")


if __name__ == "__main__":
    main()

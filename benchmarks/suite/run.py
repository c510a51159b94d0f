"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Runs each selected workload in a fresh worker process (``worker.py``),
prints every metric by name and unit, checks that outputs are correct
and repeat exactly per seed, and prints one JSON object as the last line
of standard output::

    {"correct": true, "attempted": 12, "failed": 0,
     "metrics": {"throughput_pps": {"value": 812345.6, "unit": "pkt/s"}, ...}}

With one workload the metric names are the declared ones; with several
they are prefixed ``<workload>.``.  ``--trace 1`` reports the per-layer
metrics instead of the end-to-end ones.  The exit code is 0 only when
every output check passed.

    python3 benchmarks/suite/run.py --workload table-kernels --seed 7 --seconds 20
    python3 benchmarks/suite/run.py --seed 7 --repeat 5 --out results.json
    python3 benchmarks/suite/run.py --seed 11 --trace --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER = HERE / "worker.py"
#: Scratch space for worker processes (frames file, unix socket).
WORK = ROOT / ".bench_work"
WORKLOADS = ("fig8-stream", "table-kernels", "swarm-closedloop", "live-feed")
#: A worker that has not finished by then is killed.
WORKER_TIMEOUT_S = 170


def declared_metrics(trace: bool) -> dict:
    """name -> unit of every metric BENCHMARK.json declares for the mode."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def run_worker(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    workdir = WORK / f"{workload}-{os.getpid()}-{time.monotonic_ns()}"
    workdir.mkdir(parents=True)
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    started = time.time()
    try:
        # A session of its own, so killing it also kills live-feed's feeder.
        process = subprocess.Popen(command, cwd=workdir, stdout=subprocess.PIPE, text=True,
                                   start_new_session=True)
        try:
            out, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException as error:  # a timeout or an interrupt
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                raise SystemExit(f"{workload}: worker timed out after {WORKER_TIMEOUT_S}s")
            raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if process.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with {process.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["started"] = started
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per run (default 20, --quick 0.5)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs: each workload in a few seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="passes over the workloads; metrics are their medians")
    parser.add_argument("--out", type=Path, help="write every run's report here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    seconds = args.seconds if args.seconds is not None else (0.5 if args.quick else 20.0)
    declared = declared_metrics(bool(args.trace))
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    runs = []
    for _ in range(args.repeat):
        for workload in workloads:
            report = run_worker(workload, args.seed, seconds, args.trace, args.quick)
            missing = sorted(set(declared) - set(report["metrics"]))
            if missing:
                raise SystemExit(f"{workload}: no value for {', '.join(missing)}")
            runs.append(report)

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    for workload in workloads:
        mine = [run for run in runs if run["workload"] == workload]
        digests = {run["digest"] for run in mine}
        attempted += 1
        if len(digests) > 1:
            failed += 1
            mine[0]["failures"].append("outputs differ between passes of one seed")
        slowdown = statistics.median(run["host_slowdown"] for run in mine)
        print(f"{workload} (seed {args.seed}, {len(mine)} pass(es), "
              f"{'traced' if args.trace else 'untraced'}, "
              f"{sum(run['units'] for run in mine)} units, "
              f"{sum(run['latency_samples'] for run in mine)} latency samples, "
              f"host {slowdown:.2f}x slower than the reference speed):")
        for run in mine:
            for failure in run["failures"]:
                print(f"  FAILED: {failure}")
        for name, unit in declared.items():
            values = [run["metrics"][name]["value"] for run in mine]
            print(f"  {name:<40} {statistics.median(values):>16.6g} {unit}")

    metrics = {}
    for workload in workloads:
        mine = [run for run in runs if run["workload"] == workload]
        for name, unit in declared.items():
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": statistics.median(run["metrics"][name]["value"]
                                                       for run in mine),
                            "unit": unit}
    if args.out is not None:
        args.out.write_text(json.dumps({
            "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                     "machine": platform.machine()},
            "seconds": seconds,
            "quick": args.quick,
            "runs": runs,
        }, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())

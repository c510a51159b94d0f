"""Compare two result sets of the benchmark, one row per (workload, metric).

Each side is one or more ``run.py --out`` files of untraced runs.  Runs
pair up in start order per workload: pair *i* is the *i*-th run of each
side, and the two runs of a pair should use the same seed, with the side
that runs first alternating from pair to pair.  Each row gets a label:

* **improved** -- the change won at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the base's
  quartile distance;
* **regressed** -- the change's median is worse than the base's by more
  than the metric's bound in BENCHMARK.json;
* **unresolved** -- fewer than ten pairs, or the base's own quartile
  distance is wider than the bound and not every change run beats every
  base run;
* **unchanged** -- otherwise.

Outputs that differ between the sides for one seed, or a run that failed
its checks, are errors.  Exit code 0 when nothing regressed and there
were no errors.

A loop that makes ten alternating pairs, each side a checkout with the
benchmark files of the change::

    for i in 1 2 3 4 5 6 7 8 9 10; do
      for side in $( [ $((i % 2)) = 1 ] && echo "base change" || echo "change base" ); do
        (cd $side && python3 benchmarks/suite/run.py --seed $i --out ../$side-$i.json)
      done
    done
    python3 benchmarks/suite/compare.py --base base-*.json --change change-*.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

MIN_PAIRS = 10
WIN_SHARE = 0.9
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def classify(base: Sequence[float], change: Sequence[float], better: str,
             bound: float) -> Dict[str, object]:
    """The rule for one (workload, metric): ``base[i]`` pairs with ``change[i]``."""
    pairs = min(len(base), len(change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for old, new in zip(base, change) if sign * (new - old) > 0)
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    q1, _, q3 = statistics.quantiles(base, n=4) if len(base) > 1 else (base[0],) * 3
    spread = q3 - q1
    gain = sign * (change_median - base_median)
    worse_share = -gain / abs(base_median) if base_median else 0.0
    all_better = (min(sign * value for value in change)
                  > max(sign * value for value in base))
    if pairs < MIN_PAIRS:
        label = "unresolved"
    elif wins >= WIN_SHARE * pairs and gain > spread:
        label = "improved"
    elif worse_share > bound:
        label = "regressed"
    elif base_median and spread / abs(base_median) > bound and not all_better:
        label = "unresolved"
    else:
        label = "unchanged"
    return {
        "label": label,
        "pairs": pairs,
        "wins": wins,
        "base_median": base_median,
        "change_median": change_median,
        "base_quartiles": (q1, q3),
        "change_quartiles": tuple(statistics.quantiles(change, n=4)[0::2])
        if len(change) > 1 else (change[0], change[0]),
        "delta": (change_median - base_median) / base_median if base_median else 0.0,
    }


def load_runs(paths: Sequence[Path]) -> Dict[str, List[dict]]:
    """Untraced runs per workload, in start order."""
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            if not run["trace"]:
                runs.setdefault(run["workload"], []).append(run)
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda run: run["started"])
    return runs


def compare(base: Dict[str, List[dict]], change: Dict[str, List[dict]],
            spec: dict) -> List[dict]:
    rows = []
    for workload in sorted(set(base) & set(change)):
        old, new = base[workload], change[workload]
        errors = [f"{side} run with seed {run['seed']} failed its checks"
                  for side, runs in (("base", old), ("change", new))
                  for run in runs if not run["correct"]]
        errors += [f"outputs differ for seed {a['seed']}"
                   for a, b in zip(old, new)
                   if a["seed"] == b["seed"] and a["digest"] != b["digest"]]
        first = [a["started"] < b["started"] for a, b in zip(old, new)]
        alternating = all(x != y for x, y in zip(first, first[1:]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = classify([run["metrics"][name]["value"] for run in old],
                           [run["metrics"][name]["value"] for run in new],
                           metric["better"], metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"], alternating=alternating,
                       errors=errors)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)

    spec = json.loads(BENCHMARK.read_text())
    rows = compare(load_runs(args.base), load_runs(args.change), spec)
    if not rows:
        print("no workload has runs on both sides", file=sys.stderr)
        return 2
    print(f"{'workload':<18} {'metric':<18} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>6} {'bound':>6}  label")
    for row in rows:
        base = "{:.5g} [{:.5g}, {:.5g}]".format(row["base_median"], *row["base_quartiles"])
        new = "{:.5g} [{:.5g}, {:.5g}]".format(row["change_median"], *row["change_quartiles"])
        print(f"{row['workload']:<18} {row['metric']:<18} {base:>34} {new:>34} "
              f"{row['delta']:>+8.2%} {row['wins']:>2}/{row['pairs']:<3} "
              f"{row['bound']:>6.0%}  {row['label']}")
    errors = sorted({(row["workload"], error) for row in rows for error in row["errors"]})
    for workload, error in errors:
        print(f"ERROR {workload}: {error}")
    for workload in sorted({row["workload"] for row in rows if not row["alternating"]}):
        print(f"note {workload}: the side that ran first did not alternate")
    regressed = any(row["label"] == "regressed" for row in rows)
    return 1 if regressed or errors else 0


if __name__ == "__main__":
    raise SystemExit(main())

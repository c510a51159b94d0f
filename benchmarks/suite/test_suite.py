"""Tests of the benchmark itself: schema, span arithmetic, compare rules.

    PYTHONPATH=src python -m pytest benchmarks/suite/test_suite.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from compare import classify  # noqa: E402
from run import WORKLOADS  # noqa: E402
from tracing import Tracer, attribute  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_suite(*args):
    process = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                             capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


# -- schema ---------------------------------------------------------------


def test_benchmark_json_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/suite"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    names = [metric["name"] for group in ("workloads", "end_to_end", "per_layer")
             for metric in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names), names
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in SPEC["end_to_end"])} in SPEC["end_to_end"]
    assert 1 <= len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_reported(trace, group):
    result = run_suite("--quick", "--seed", "11", "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{workload}.{metric['name']}": metric["unit"]
                for workload in WORKLOADS for metric in SPEC[group]}
    assert {name: value["unit"] for name, value in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "fig8-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert process.returncode != 0
    assert process.stdout == ""


# -- span arithmetic -------------------------------------------------------


def span(span_id, name, start, end, parent=-1, thread=1):
    return (span_id, name, float(start), float(end), parent, thread)


def test_self_time_of_a_nested_tree():
    # run [0, 10]: replay [1, 9] with two kernel calls [2, 4] and [5, 8],
    # the second calling a hash [6, 7].
    spans = [
        span(0, "sim.run", 0, 10),
        span(1, "sim.replay", 1, 9, 0),
        span(2, "core.kernel", 2, 4, 1),
        span(3, "core.kernel", 5, 8, 1),
        span(4, "core.hash", 6, 7, 3),
    ]
    assert attribute(spans) == pytest.approx({
        "sim.run": 2.0, "sim.replay": 3.0, "core.kernel": 4.0, "core.hash": 1.0})


def test_self_time_sums_to_covered_time_with_gaps_and_ties():
    spans = [
        span(0, "a.outer", 0, 4),
        span(1, "b.inner", 0, 4, 0),        # starts and ends with its parent
        span(2, "b.empty", 5, 5),           # zero length
        span(3, "a.later", 6, 7),
    ]
    times = attribute(spans)
    assert times["a.outer"] == pytest.approx(0.0)
    assert times["b.inner"] == pytest.approx(4.0)
    assert times.get("b.empty", 0.0) == 0.0
    assert sum(times.values()) == pytest.approx(5.0)


def test_threads_share_time_and_a_parent_waits_on_its_children():
    # The main thread serves [0, 10]; an ingest thread decodes [1, 5] and
    # an executor feeds [3, 8], both caused by the serve span.
    spans = [
        span(0, "service.run", 0, 10, thread=1),
        span(1, "net.decode", 1, 5, 0, thread=2),
        span(2, "sim.feed", 3, 8, 0, thread=3),
        span(3, "sim.kernel", 4, 6, 2, thread=3),
    ]
    times = attribute(spans)
    # [0,1] and [8,10]: only the serve span is open.  [1,3]: decode alone.
    # [3,4]: decode and feed share; [4,5]: decode and kernel; [5,6]: kernel;
    # [6,8]: feed.
    assert times == pytest.approx({
        "service.run": 3.0, "net.decode": 3.0, "sim.feed": 2.5, "sim.kernel": 1.5})
    assert sum(times.values()) == pytest.approx(10.0)


class _Layered:
    def outer(self, depth):
        time.sleep(0.002)
        return self.inner() + depth

    def inner(self):
        time.sleep(0.004)
        return 1

    def chunks(self, count):
        for index in range(count):
            time.sleep(0.001)
            yield index


def test_tracer_records_nesting_generators_and_threads():
    target = _Layered()
    tracer = Tracer()
    tracer.wrap(_Layered, "outer", "a.outer")
    tracer.wrap(_Layered, "inner", "b.inner")
    tracer.wrap(_Layered, "chunks", "c.chunk", kind="iter")
    try:
        start = time.perf_counter()
        with_root = tracer.enter("root.run")
        assert target.outer(1) == 2
        assert list(target.chunks(3)) == [0, 1, 2]
        worker = threading.Thread(target=target.inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.leave(with_root)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert _Layered.outer.__name__ == "outer" and not hasattr(_Layered.outer, "__wrapped__")
    spans = tracer.spans()
    names = sorted(name for _, name, *_ in spans)
    assert names == ["a.outer", "b.inner", "b.inner", "c.chunk", "c.chunk", "c.chunk",
                     "c.chunk", "root.run"]
    by_id = {entry[0]: entry for entry in spans}
    threaded = [entry for entry in spans if entry[1] == "b.inner" and entry[5] != spans[0][5]]
    assert by_id[threaded[0][4]][1] == "root.run"
    times = attribute(spans)
    assert times["b.inner"] >= 0.008
    assert sum(times.values()) == pytest.approx(wall, rel=0.05)


# -- compare rules ---------------------------------------------------------

BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_nine_of_ten_wins_with_a_clear_gain_is_improved():
    change = [value * 1.05 for value in BASE]
    change[3] = BASE[3] - 1  # one loss
    result = classify(BASE, change, "higher", 0.1)
    assert (result["wins"], result["label"]) == (9, "improved")


def test_eight_of_ten_wins_is_not_improved():
    change = [value * 1.05 for value in BASE]
    change[3] = BASE[3] - 1
    change[5] = BASE[5] - 1
    assert classify(BASE, change, "higher", 0.1)["label"] == "unchanged"


def test_a_gain_inside_the_base_quartile_distance_is_not_improved():
    # Every pair won, but by less than the base's own quartile distance.
    change = [value + 0.1 for value in BASE]
    result = classify(BASE, change, "higher", 0.1)
    assert result["wins"] == 10 and result["label"] == "unchanged"


def test_lower_is_better_and_regressions_past_the_bound():
    assert classify(BASE, [value * 0.9 for value in BASE], "lower", 0.1)["label"] == "improved"
    assert classify(BASE, [value * 1.2 for value in BASE], "lower", 0.1)["label"] == "regressed"
    assert classify(BASE, [value * 1.05 for value in BASE], "lower", 0.1)["label"] == "unchanged"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert classify(noisy, [value * 0.98 for value in noisy], "higher", 0.1)["label"] \
        == "unresolved"
    assert classify(noisy, [150.0 + value / 100 for value in noisy], "higher", 0.1)["label"] \
        == "improved"


def test_fewer_than_ten_pairs_is_unresolved():
    assert classify(BASE[:9], [value * 2 for value in BASE[:9]], "higher", 0.1)["label"] \
        == "unresolved"

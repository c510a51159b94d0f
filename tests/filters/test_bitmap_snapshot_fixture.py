"""Snapshots written by older code must still load and continue exactly.

``data/bitmap_snapshot_n12.json`` was written by :func:`build_document`
running on commit dbf75b4, the last one whose ``BitVector`` stored each
column as a Python int.  ``data/counting_snapshot_n12.json`` was written
on commit 835570e, the last one whose counting filter ran its own
rotation clock over ``CountingBloomFilter`` columns.  Each snapshot is
taken mid-trace (between two rotations, with ``idx`` away from 0) under
a fractional ``P_d``, so the drop RNG's state matters.  Restoring it must
continue the replay bit-identically, and today's code must write the
very same document.

To rewrite a fixture on purpose::

    PYTHONPATH=src:. python -c "from tests.filters.test_bitmap_snapshot_fixture import write_fixture; write_fixture('bitmap')"
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters import restore_filter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.counting import CountingBitmapFilter
from repro.filters.policy import DropController
from repro.net.table import PacketTable
from repro.service.state import _decode, _encode
from repro.sim.router import EdgeRouter
from repro.workload import TraceConfig, TraceGenerator

from tests.conftest import verdicts_of

DATA = Path(__file__).resolve().parent / "data"


def fixture_config() -> BitmapFilterConfig:
    return BitmapFilterConfig(size=2 ** 12, vectors=4, hashes=3,
                              rotate_interval=5.0, seed=3)


def make_bitmap() -> BitmapPacketFilter:
    return BitmapPacketFilter(fixture_config(),
                              DropController(StaticDropPolicy(0.6)),
                              rng=random.Random(11))


def make_counting() -> CountingBitmapFilter:
    return CountingBitmapFilter(fixture_config(),
                                DropController(StaticDropPolicy(0.6)),
                                rng=random.Random(11))


#: name → (filter factory, cut, fixture file)
CASES = {
    "bitmap": (make_bitmap, 1500, DATA / "bitmap_snapshot_n12.json"),
    "counting": (make_counting, 1450, DATA / "counting_snapshot_n12.json"),
}


def fixture_trace():
    config = TraceConfig(duration=40.0, connection_rate=6.0, seed=21)
    return TraceGenerator(config).packet_list()


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def verdict_string(verdicts) -> str:
    return "".join(verdict.value[0] for verdict in verdicts)


def build_document(name: str) -> dict:
    make_filter, cut, _ = CASES[name]
    packets = fixture_trace()
    flt = make_filter()
    for packet in packets[:cut]:
        flt.process(packet)
    snapshot = _encode(flt.snapshot())
    tail = [flt.process(packet) for packet in packets[cut:]]
    return {
        "cut": cut,
        "cut_time": packets[cut].timestamp,
        "snapshot": snapshot,
        "tail_verdicts_sha256": hashlib.sha256(verdict_string(tail).encode()).hexdigest(),
        "final_snapshot_sha256": digest(_encode(flt.snapshot())),
    }


def write_fixture(name: str) -> None:
    CASES[name][2].write_text(json.dumps(build_document(name), sort_keys=True) + "\n")


def load_fixture(name: str) -> dict:
    return json.loads(CASES[name][2].read_text())


def test_fixture_is_mid_rotation():
    document = load_fixture("bitmap")
    core = document["snapshot"]["core"]
    assert core["idx"] != 0 and core["stats"]["rotations"] > 0
    assert core["next_rotation"] - 5.0 < document["cut_time"] < core["next_rotation"]


def test_counting_fixture_is_mid_rotation_and_mid_close():
    document = load_fixture("counting")
    snapshot = document["snapshot"]
    assert snapshot["idx"] == 3
    assert snapshot["next_rotation"] - 5.0 < document["cut_time"] < snapshot["next_rotation"]
    assert len(snapshot["half_closed"]) == 2
    assert snapshot["deleted_on_close"] == 13
    assert all(column["removed"] > 0 for column in snapshot["columns"])
    assert all(column["saturations"] > 0 for column in snapshot["columns"])
    assert any(
        cell >> 4 == 15 or cell & 0x0F == 15
        for column in snapshot["columns"] for cell in column["cells"]
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_restores_and_continues_bit_identically(name):
    document = load_fixture(name)
    packets = fixture_trace()[document["cut"]:]
    resumed = restore_filter(_decode(document["snapshot"]))
    tail = [resumed.process(packet) for packet in packets]
    assert hashlib.sha256(verdict_string(tail).encode()).hexdigest() == \
        document["tail_verdicts_sha256"]
    assert digest(_encode(resumed.snapshot())) == document["final_snapshot_sha256"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_batched_continuation_matches(name):
    document = load_fixture(name)
    packets = fixture_trace()[document["cut"]:]
    resumed = restore_filter(_decode(document["snapshot"]))
    tail = verdicts_of(EdgeRouter(resumed).process_table(PacketTable.from_packets(packets)))
    assert hashlib.sha256(verdict_string(tail).encode()).hexdigest() == \
        document["tail_verdicts_sha256"]
    assert digest(_encode(resumed.snapshot())) == document["final_snapshot_sha256"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_snapshot_documents_unchanged(name):
    assert build_document(name) == load_fixture(name)

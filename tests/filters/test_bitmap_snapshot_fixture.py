"""A bitmap snapshot written by the int-backed ``BitVector`` must still load.

``data/bitmap_snapshot_n12.json`` was written by :func:`build_document`
running on commit dbf75b4, the last one whose ``BitVector`` stored each
column as a Python int.  The snapshot is taken mid-trace (between two
rotations, with ``idx`` away from 0) under a fractional ``P_d``, so the
drop RNG's state matters.  Restoring it must continue the replay
bit-identically, and today's code must write the very same document.

To rewrite the fixture on purpose::

    PYTHONPATH=src:. python -c "from tests.filters.test_bitmap_snapshot_fixture import write_fixture; write_fixture()"
"""

import hashlib
import json
import random
from pathlib import Path

from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters import restore_filter
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.net.table import PacketTable
from repro.service.state import _decode, _encode
from repro.sim.router import EdgeRouter
from repro.workload import TraceConfig, TraceGenerator

FIXTURE = Path(__file__).resolve().parent / "data" / "bitmap_snapshot_n12.json"
CUT = 1500


def make_filter() -> BitmapPacketFilter:
    config = BitmapFilterConfig(size=2 ** 12, vectors=4, hashes=3,
                                rotate_interval=5.0, seed=3)
    return BitmapPacketFilter(config, DropController(StaticDropPolicy(0.6)),
                              rng=random.Random(11))


def fixture_trace():
    config = TraceConfig(duration=40.0, connection_rate=6.0, seed=21)
    return TraceGenerator(config).packet_list()


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def verdict_string(verdicts) -> str:
    return "".join(verdict.value[0] for verdict in verdicts)


def build_document() -> dict:
    packets = fixture_trace()
    flt = make_filter()
    for packet in packets[:CUT]:
        flt.process(packet)
    snapshot = _encode(flt.snapshot())
    tail = [flt.process(packet) for packet in packets[CUT:]]
    return {
        "cut": CUT,
        "cut_time": packets[CUT].timestamp,
        "snapshot": snapshot,
        "tail_verdicts_sha256": hashlib.sha256(verdict_string(tail).encode()).hexdigest(),
        "final_snapshot_sha256": digest(_encode(flt.snapshot())),
    }


def write_fixture() -> None:
    FIXTURE.write_text(json.dumps(build_document(), sort_keys=True) + "\n")


def load_fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_is_mid_rotation():
    document = load_fixture()
    core = document["snapshot"]["core"]
    assert core["idx"] != 0 and core["stats"]["rotations"] > 0
    assert core["next_rotation"] - 5.0 < document["cut_time"] < core["next_rotation"]


def test_restores_and_continues_bit_identically():
    document = load_fixture()
    packets = fixture_trace()[document["cut"]:]
    resumed = restore_filter(_decode(document["snapshot"]))
    tail = [resumed.process(packet) for packet in packets]
    assert hashlib.sha256(verdict_string(tail).encode()).hexdigest() == \
        document["tail_verdicts_sha256"]
    assert digest(_encode(resumed.snapshot())) == document["final_snapshot_sha256"]


def test_batched_continuation_matches():
    document = load_fixture()
    packets = fixture_trace()[document["cut"]:]
    resumed = restore_filter(_decode(document["snapshot"]))
    tail = EdgeRouter(resumed).process_table(PacketTable.from_packets(packets))
    assert hashlib.sha256(verdict_string(tail).encode()).hexdigest() == \
        document["tail_verdicts_sha256"]
    assert digest(_encode(resumed.snapshot())) == document["final_snapshot_sha256"]


def test_snapshot_documents_unchanged():
    assert build_document() == load_fixture()

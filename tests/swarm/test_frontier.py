"""The per-packet path pinned to the committed swarm frontier.

Every evasion-frontier cell of ``BENCH_swarm.json`` (bitmap, counting,
SPI and chain, each with evasion off and on) is re-run at the committed
configuration through ``benchmarks/bench_swarm.py``'s own builders, and
its row, verdict fingerprint included, must equal the committed one.
The swarm sends every packet through ``ReplayPipeline.process``, so a
change anywhere on the per-packet path that moves one verdict, one RNG
draw or one counter shows here.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.bench_swarm import (
    FRONTIER_PD,
    build_filter,
    result_row,
    run_swarm,
    swarm_config,
)

COMMITTED = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_swarm.json").read_text()
)
CELLS = [
    (row["filter"], label)
    for row in COMMITTED["frontier"]
    for label in ("evasion_off", "evasion_on")
]


def committed_args() -> SimpleNamespace:
    config = COMMITTED["config"]
    assert config["frontier_pd"] == FRONTIER_PD
    return SimpleNamespace(peers=config["peers"], clients=config["clients"],
                           duration=config["duration_s"], seed=config["seed"])


@pytest.mark.parametrize("kind, label", CELLS,
                         ids=[f"{kind}-{label}" for kind, label in CELLS])
def test_frontier_cell_matches_committed(kind, label):
    packet_filter, _ = build_filter(kind, FRONTIER_PD)
    result = run_swarm(packet_filter,
                       swarm_config(committed_args(), label == "evasion_on"))
    committed = next(row for row in COMMITTED["frontier"] if row["filter"] == kind)
    assert result_row(result) == committed[label]

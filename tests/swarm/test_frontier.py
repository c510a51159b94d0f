"""The per-packet path pinned to the committed swarm frontier.

Every evasion-frontier cell of ``BENCH_swarm.json`` (bitmap, counting,
SPI and chain, each with evasion off and on) is re-run at the committed
configuration, its defender built from ``benchmarks/bench_swarm.py``'s
own :class:`~repro.filters.spec.FilterSpec` (``DEFENDER``), and its row,
verdict fingerprint included, must equal the committed one.  The swarm
sends every packet through ``ReplayPipeline.process``, so a change
anywhere on the per-packet path that moves one verdict, one RNG draw or
one counter shows here.

Without evasion, every attempt is a fresh connection whose first inbound
packet misses the filter unless its m bits are set by chance, so it
passes with probability 1 − P_d·(1 − U^m) (Eq. 2): each evasion-off
cell's admissions must lie in a binomial interval around that rate.
"""

import functools
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from benchmarks.bench_swarm import (
    DEFENDER,
    FRONTIER_PD,
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


@functools.lru_cache(maxsize=None)
def run_cell(kind: str, label: str):
    packet_filter, _ = replace(DEFENDER, kind=kind, pd=FRONTIER_PD).build()
    result = run_swarm(packet_filter,
                       swarm_config(committed_args(), label == "evasion_on"))
    return packet_filter, result


@pytest.mark.parametrize("kind, label", CELLS,
                         ids=[f"{kind}-{label}" for kind, label in CELLS])
def test_frontier_cell_matches_committed(kind, label):
    _, result = run_cell(kind, label)
    committed = next(row for row in COMMITTED["frontier"] if row["filter"] == kind)
    assert result_row(result) == committed[label]


@pytest.mark.parametrize("kind", [row["filter"] for row in COMMITTED["frontier"]])
def test_evasion_off_admissions_follow_the_drop_coin(kind):
    packet_filter, result = run_cell(kind, "evasion_off")
    # U of each bitmap core at the end of the run (SPI has none: an
    # unsolicited packet always misses its flow table).
    members = getattr(packet_filter, "filters", [packet_filter])
    cores = [member.core for member in members if hasattr(member, "core")]
    penetration = max((core.penetration_probability() for core in cores), default=0.0)
    assert penetration < 1e-3  # U near 0 at N = 2^14
    attempts = result.attempts_total
    rate = 1.0 - FRONTIER_PD * (1.0 - penetration)
    spread = 3.0 * math.sqrt(attempts * rate * (1.0 - rate))
    assert attempts >= 50
    assert abs(result.attempts_admitted - attempts * rate) <= spread

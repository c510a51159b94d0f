"""numpy is optional and loads only when a columnar path first needs it.

Each case runs in a fresh interpreter, since the test process itself has
long since imported numpy.  The per-packet case replays more than
``FOLD_ROWS`` packets, so the router's row accountant folds mid-stream
as well as at the end, and neither fold may load numpy.
"""

import os
import pathlib
import subprocess
import sys

from repro.net import table as table_mod

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SETUP = """
import sys
import repro
from repro.core.bitmap_filter import BitmapFilterConfig
from repro.core.dropper import StaticDropPolicy
from repro.filters.bitmap import BitmapPacketFilter
from repro.filters.policy import DropController
from repro.net.table import PacketTable
from repro.sim.replay import replay
from repro.swarm import SwarmConfig, SwarmSimulator
from repro.workload import TraceConfig, TraceGenerator

def make_filter():
    return BitmapPacketFilter(BitmapFilterConfig(size=2 ** 12),
                              DropController(StaticDropPolicy(0.9)))

packets = TraceGenerator(TraceConfig(duration=30.0, connection_rate=4.0,
                                     seed=2)).packet_list()
"""

PER_PACKET = SETUP + """
from repro.sim.router import FOLD_ROWS
assert len(packets) > FOLD_ROWS
assert "numpy" not in sys.modules, "import repro loaded numpy"
sequential = replay(packets, make_filter(), use_blocklist=True, batched=False)
assert "numpy" not in sys.modules, "a sequential replay loaded numpy"
SwarmSimulator(make_filter(), SwarmConfig(peers=4, clients=2, duration=5.0,
                                          seed=3)).run()
assert "numpy" not in sys.modules, "a swarm run loaded numpy"
table = replay(PacketTable.from_packets(packets), make_filter(),
               use_blocklist=True, batched=True)
assert table.fingerprint == sequential.fingerprint
print("numpy" in sys.modules)
"""

BROKEN_NUMPY = SETUP + """
from repro.net import table as table_mod
assert table_mod.HAVE_NUMPY, "the broken numpy package was not found"
sequential = replay(packets, make_filter(), use_blocklist=True, batched=False)
table = replay(PacketTable.from_packets(packets), make_filter(),
               use_blocklist=True, batched=True)
assert table.fingerprint == sequential.fingerprint
assert table_mod._numpy() is None
print("stdlib")
"""


def run_python(code, *path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), str(SRC)])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=240)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout.strip()


def test_per_packet_paths_never_load_numpy():
    # ...while a table replay still takes the numpy path when it can.
    assert run_python(PER_PACKET) == str(table_mod.HAVE_NUMPY)


def test_numpy_that_fails_to_import_falls_back(tmp_path):
    package = tmp_path / "numpy"
    package.mkdir()
    (package / "__init__.py").write_text('raise ImportError("broken build")\n')
    assert run_python(BROKEN_NUMPY, tmp_path) == "stdlib"

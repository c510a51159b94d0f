"""repro — a full reproduction of *Bounding Peer-to-Peer Upload Traffic in
Client Networks* (Chun-Ying Huang and Chin-Laung Lei, DSN 2007).

The package implements the paper's {k×N}-bitmap filter together with every
substrate its evaluation depends on:

* :mod:`repro.core` — the bitmap filter and its two column types, drop
  policies, throughput meters and the closed-form false-positive model.
* :mod:`repro.net` — packets, IPv4/TCP/UDP codecs, pcap I/O, flow tracking.
* :mod:`repro.analyzer` — the section-3 traffic analyzer (L7 patterns,
  port fallback, connection statistics, out-in delay measurement).
* :mod:`repro.filters` — SPI and naïve-timer baselines plus the bitmap
  filter behind one interface.
* :mod:`repro.workload` — a synthetic client-network trace generator
  calibrated against the paper's published traffic characteristics.
* :mod:`repro.sim` — the trace-replay evaluation harness (section 5.3).

Quickstart::

    from repro import BitmapFilterConfig, BitmapPacketFilter, DropController

    filt = BitmapPacketFilter(
        BitmapFilterConfig(size=2**20, vectors=4, hashes=3, rotate_interval=5.0),
        drop_controller=DropController.red_mbps(low_mbps=50, high_mbps=100),
    )
"""

from repro.core import (
    BitmapFilter,
    BitmapFilterConfig,
    FieldMode,
    RedDropPolicy,
    StaticDropPolicy,
    capacity_bound,
    optimal_hash_count,
    penetration_probability,
    recommend_parameters,
)
from repro.filters import (
    BitmapPacketFilter,
    BlockedConnectionStore,
    CountingBitmapFilter,
    FilterChain,
    NaiveTimerFilter,
    PacketFilter,
    SPIFilter,
    SnapshotUnsupported,
    TokenBucketFilter,
    Verdict,
    restore_filter,
)
from repro.filters.policy import DropController
from repro.net import Direction, Packet, SocketPair

__version__ = "1.0.0"

__all__ = [
    "BitmapFilter",
    "BitmapFilterConfig",
    "FieldMode",
    "RedDropPolicy",
    "StaticDropPolicy",
    "capacity_bound",
    "optimal_hash_count",
    "penetration_probability",
    "recommend_parameters",
    "PacketFilter",
    "Verdict",
    "SPIFilter",
    "NaiveTimerFilter",
    "BitmapPacketFilter",
    "CountingBitmapFilter",
    "TokenBucketFilter",
    "BlockedConnectionStore",
    "FilterChain",
    "SnapshotUnsupported",
    "restore_filter",
    "DropController",
    "Direction",
    "Packet",
    "SocketPair",
    "__version__",
]

"""Synthetic client-network workload generation.

The paper evaluates on a 7.5-hour campus trace we cannot obtain; this
package synthesises a header-accurate substitute.  Per-application models
(:mod:`repro.workload.apps`) emit connection specifications whose packet
schedules reproduce the traffic characteristics the paper publishes —
protocol mix (Table 2), port usage (Figures 2-3), connection lifetimes
(Figure 4), out-in packet delays (Figure 5), the 89.8 % upload share, and
the 80/20 split of upload bytes between inbound- and outbound-initiated
connections.  Calibration targets live in :mod:`repro.workload.calibrate`.
"""

from repro.workload.topology import AddressSpace, ClientNetwork, PortAllocator
from repro.workload.apps import (
    APP_BITTORRENT,
    APP_DNS,
    APP_EDONKEY,
    APP_FTP,
    APP_GNUTELLA,
    APP_HTTP,
    APP_OTHER,
    APP_UNKNOWN,
    ConnectionSpec,
    Initiator,
    connection_packets,
)
from repro.workload.generator import TraceConfig, TraceGenerator, generate_trace
from repro.workload.progress import ProgressReporter
from repro.workload.calibrate import PAPER_TARGETS, CalibrationTargets
from repro.workload.mixes import (
    ALL_PRESETS,
    BALANCED,
    CAMPUS_2007,
    P2P_SATURATED,
    WEB_ENTERPRISE,
    MixPreset,
    preset_by_name,
)

__all__ = [
    "AddressSpace",
    "ClientNetwork",
    "PortAllocator",
    "ConnectionSpec",
    "Initiator",
    "connection_packets",
    "APP_HTTP",
    "APP_FTP",
    "APP_DNS",
    "APP_BITTORRENT",
    "APP_EDONKEY",
    "APP_GNUTELLA",
    "APP_UNKNOWN",
    "APP_OTHER",
    "TraceConfig",
    "TraceGenerator",
    "generate_trace",
    "ProgressReporter",
    "PAPER_TARGETS",
    "CalibrationTargets",
    "MixPreset",
    "ALL_PRESETS",
    "CAMPUS_2007",
    "WEB_ENTERPRISE",
    "P2P_SATURATED",
    "BALANCED",
    "preset_by_name",
]

"""Trace-replay evaluation harness (paper section 5.3).

Feeds timestamp-ordered packets through an edge router hosting a filter,
with the blocked-connection persistence the paper uses to emulate live
blocking during replay, and collects throughput / drop-rate series that
regenerate Figures 8 and 9.

Every entry point drives the same stage pipeline in
:mod:`repro.sim.pipeline` through a pluggable :class:`ExecutionBackend`
(sequential, batched, parallel) — see ``docs/architecture.md``.
"""

from repro.sim.metrics import DropRateSampler, ThroughputSeries
from repro.sim.router import EdgeRouter
from repro.sim.pipeline import (
    BatchedBackend,
    ExecutionBackend,
    ParallelBackend,
    PipelineConfig,
    ReplayPipeline,
    ReplayResult,
    SequentialBackend,
    select_backend,
)
from repro.sim.replay import compare_drop_rates, replay
from repro.sim.closedloop import ClosedLoopResult, ClosedLoopSimulator
from repro.sim.kernels import KERNELS, kernel_for, register_kernel
from repro.sim.parallel import LaneResult, parallel_replay

__all__ = [
    "KERNELS",
    "kernel_for",
    "register_kernel",
    "LaneResult",
    "parallel_replay",
    "ThroughputSeries",
    "DropRateSampler",
    "EdgeRouter",
    "ExecutionBackend",
    "SequentialBackend",
    "BatchedBackend",
    "ParallelBackend",
    "PipelineConfig",
    "ReplayPipeline",
    "select_backend",
    "ReplayResult",
    "replay",
    "compare_drop_rates",
    "ClosedLoopSimulator",
    "ClosedLoopResult",
]

"""Parallel execution engine for fault campaigns.

The paper's headline artifacts are sweeps of *independent* nested solves;
this package schedules them over serial/batched/sharded backends with one
campaign per worker and deterministic result ordering.  See
:class:`repro.exec.executor.CampaignExecutor`.
"""

from repro.exec.executor import (
    BACKENDS,
    BACKEND_KNOBS,
    DEFAULT_BATCH_SIZE,
    CampaignExecutor,
    resolve_backend,
    resolve_workers,
)
from repro.exec.spec import TrialSpec
from repro.exec.supervisor import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_MAX_RETRIES,
    EXIT_DRAINED,
    ShardedSupervisor,
    SupervisorDrained,
    partition_shards,
)

__all__ = [
    "BACKENDS",
    "BACKEND_KNOBS",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_MAX_RETRIES",
    "EXIT_DRAINED",
    "CampaignExecutor",
    "ShardedSupervisor",
    "SupervisorDrained",
    "TrialSpec",
    "partition_shards",
    "resolve_backend",
    "resolve_workers",
]

"""Execution backends for fault campaigns.

The paper's headline artifacts are sweeps of *independent* nested solves;
a campaign runs them on the serial, batched or sharded backend its spec's
``exec`` section selects (:func:`repro.exec.executor.resolve_backend`), with
one campaign per worker and deterministic result ordering.  See
:meth:`repro.faults.campaign.FaultCampaign.iter_records`.
"""

from repro.exec.executor import (
    BACKENDS,
    BACKEND_KNOBS,
    DEFAULT_BATCH_SIZE,
    resolve_backend,
    resolve_workers,
)
from repro.exec.spec import TrialSpec
from repro.exec.supervisor import (
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
    "DEFAULT_MAX_RETRIES",
    "EXIT_DRAINED",
    "ShardedSupervisor",
    "SupervisorDrained",
    "TrialSpec",
    "partition_shards",
    "resolve_backend",
    "resolve_workers",
]

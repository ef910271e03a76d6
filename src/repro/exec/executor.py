"""The campaign execution engine.

A fault campaign is hundreds to thousands of *independent* nested FT-GMRES
solves — one per (fault class, injection location) pair.  This module
schedules them over three backends:

* ``"serial"``  — the plain loop (reference semantics, zero overhead);
* ``"batched"`` — the trial-batched lockstep engine (:mod:`repro.core.batched`):
  the inner solves of ``batch_size`` trials advance together through shared
  block kernels in this process, amortizing sparse index traffic and
  interpreter overhead across the batch.  It needs no extra CPUs — it is
  the backend that wins on a single-core host.
* ``"sharded"`` — the multi-process engine (:mod:`repro.exec.supervisor`):
  the trial range is partitioned into ``workers`` contiguous shards, each
  run by a dedicated worker process writing its own durable shard store;
  the supervisor watches heartbeats, SIGKILLs workers stuck past
  ``trial_timeout``, restarts crashed workers with bounded retries, and
  quarantines poison trials.

:func:`resolve_backend` is the one place that turns the execution knobs
into a backend; the executor, :class:`~repro.specs.ExecutionSpec`
validation and the run store's checkpoint path all call it.

Design invariants:

* **One campaign per worker.**  The campaign itself (matrix, detector
  bound, fault models) reaches each shard worker once, inherited through
  fork; the work is a contiguous block of tiny
  :class:`~repro.exec.spec.TrialSpec` values.
* **Deterministic result ordering.**  Every spec carries its position in the
  canonical serial order and results are reassembled by that index, so a
  sharded campaign is trial-for-trial identical to a serial one regardless
  of completion order (asserted in the test suite).  Every trial starts
  from reset detectors, so stateful ones (e.g. ``NormGrowthDetector``) are
  covered too.  A fault model that keeps its own random state *across*
  trials still accumulates it — each worker starts from the parent
  campaign's state and sees per-shard history — and should be swept
  serially.
* **Streaming completion.**  :meth:`CampaignExecutor.iter_records` yields
  ``(index, record)`` pairs as trials complete on every backend (lazily on
  serial, per completed batch on batched, as shard records land on
  sharded) — the primitive under ``run()``, the ``iter_trials()`` facade,
  and the run store's incremental checkpointing.  Progress reaches
  observers only as ``trial_completed`` events on a campaign's sink (see
  :meth:`~repro.faults.campaign.FaultCampaign.run_plan`).
"""

from __future__ import annotations

import os

__all__ = ["BACKENDS", "BACKEND_KNOBS", "BackendKnobError", "DEFAULT_BATCH_SIZE",
           "CampaignExecutor", "resolve_workers", "resolve_backend"]


class BackendKnobError(ValueError):
    """An inconsistent backend/knob combination (a configuration error).

    A distinct type so callers presenting configuration errors (the CLI, the
    spec layer) can catch it without also swallowing genuine ``ValueError``
    bugs raised from inside the numerical kernels.
    """

#: Which execution knobs each backend consumes — the one backend table.
#: :data:`BACKENDS`, the ``"backend"`` entries of :mod:`repro.registry` and
#: the runner's ``--backend`` choices all derive from it, and
#: :func:`resolve_backend` rejects knobs outside it instead of silently
#: ignoring them.
BACKEND_KNOBS = {
    "serial": frozenset(),
    "batched": frozenset({"batch_size"}),
    "sharded": frozenset({"workers", "max_retries", "heartbeat_interval"}),
}

#: Recognized execution backends.
BACKENDS = tuple(BACKEND_KNOBS)

#: Default lockstep batch width for the ``"batched"`` backend: wide enough to
#: amortize interpreter dispatch across the batch, narrow enough that the
#: per-batch basis blocks stay cache/memory friendly at paper scale.
DEFAULT_BATCH_SIZE = 32


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value, ``REPRO_WORKERS``, or 1.

    ``workers=0`` (or ``REPRO_WORKERS=0``) means "one per CPU".
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is None:
            return 1
        workers = int(env)
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be non-negative, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


def resolve_backend(backend: str | None = None, *, workers: int | None = None,
                    batch_size: int | None = None,
                    max_retries: int | None = None,
                    heartbeat_interval: float | None = None) -> str:
    """The backend a set of execution knobs runs on.

    ``backend=None`` auto-selects: ``"batched"`` when ``batch_size`` is
    given, ``"sharded"`` when the worker count resolved by
    :func:`resolve_workers` (the explicit value, else ``REPRO_WORKERS``)
    exceeds 1, and ``"serial"`` otherwise.

    Explicit (non-``None``) knobs the backend would ignore raise
    :class:`BackendKnobError` naming the knob to drop or the backend to
    pick.  ``workers=1`` — the serial meaning of "no parallelism" — is
    accepted everywhere, and a worker count that chose the backend is never
    checked against it.
    """
    if backend is None:
        if batch_size is not None:
            if workers is not None and workers > 1:
                raise BackendKnobError(
                    f"batch_size={batch_size} and workers={workers} are mutually "
                    f"exclusive without an explicit backend: batch_size selects "
                    f"the single-process 'batched' engine, workers the "
                    f"'sharded' one; drop one knob or pass backend=")
            chosen = "batched"
        else:
            chosen = "sharded" if resolve_workers(workers) > 1 else "serial"
    elif backend not in BACKEND_KNOBS:
        raise BackendKnobError(f"backend must be one of {BACKENDS}, got {backend!r}")
    else:
        chosen = backend
        if workers is not None and workers != 1 and "workers" not in BACKEND_KNOBS[chosen]:
            raise BackendKnobError(
                f"workers only applies to backend='sharded' (it is the shard "
                f"count); backend={chosen!r} would ignore workers={workers}. "
                f"Drop workers or use backend='sharded'.")
    for name, value in (("batch_size", batch_size), ("max_retries", max_retries),
                        ("heartbeat_interval", heartbeat_interval)):
        if value is not None and name not in BACKEND_KNOBS[chosen]:
            owner = next(b for b, knobs in BACKEND_KNOBS.items() if name in knobs)
            how = "" if backend is not None else "auto-selected "
            raise BackendKnobError(
                f"{name} only applies to backend={owner!r}; the {how}backend "
                f"{chosen!r} would ignore {name}={value}. Drop {name} or use "
                f"backend={owner!r}.")
    return chosen


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
class CampaignExecutor:
    """Schedules a campaign's independent trials over a chosen backend.

    Parameters
    ----------
    campaign : FaultCampaign
        The campaign whose trials run; it is also what each worker receives.
    backend : {"serial", "batched", "sharded"} or None
        ``None`` auto-selects (see :func:`resolve_backend`).  The
        ``"batched"`` backend advances trials in lockstep through shared
        block kernels in this process (see :mod:`repro.core.batched`); the
        ``"sharded"`` backend runs crash-supervised worker processes (see
        :mod:`repro.exec.supervisor`).
    workers : int, optional
        Shard (worker-process) count; defaults to the ``REPRO_WORKERS``
        environment variable and then 1.  ``0`` means one per CPU.  A count
        above 1 selects ``"sharded"`` when ``backend`` is ``None``.
    batch_size : int, optional
        Lockstep batch width for the ``"batched"`` backend (default
        :data:`DEFAULT_BATCH_SIZE`); setting it with ``backend=None``
        selects that backend.
    max_retries : int, optional
        Crashes a single trial may cause before the sharded supervisor
        quarantines it as a poison error record (default
        :data:`repro.exec.supervisor.DEFAULT_MAX_RETRIES`).
    heartbeat_interval : float, optional
        Seconds between supervisor liveness polls (default
        :data:`repro.exec.supervisor.DEFAULT_HEARTBEAT_INTERVAL`).
    run_dir : str, optional
        Run directory whose ``shard-<k>/`` subdirectories hold the durable
        shard stores (sharded backend; an ephemeral temp dir is used when
        omitted, e.g. for storeless campaigns).
    chaos : ChaosPolicy, optional
        Fault-injection policy for the supervisor's *own* infrastructure
        (see :mod:`repro.faults.chaos`) — test/CI instrumentation.
    on_supervisor_state : callable, optional
        ``on_supervisor_state(state_dict)`` invoked whenever the sharded
        supervisor's retry/quarantine bookkeeping changes (the run store
        persists it into the manifest).
    """

    def __init__(self, campaign, *, backend: str | None = None, workers: int | None = None,
                 batch_size: int | None = None, max_retries: int | None = None,
                 heartbeat_interval: float | None = None,
                 run_dir: str | None = None, chaos=None,
                 on_supervisor_state=None):
        from repro.faults.campaign import FaultCampaign

        if not isinstance(campaign, FaultCampaign):
            raise TypeError(f"campaign must be a FaultCampaign, got {type(campaign).__name__}")
        self.campaign = campaign
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if max_retries is not None and max_retries <= 0:
            raise ValueError(f"max_retries must be positive, got {max_retries}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}")
        self.workers = resolve_workers(workers)
        self.backend = resolve_backend(backend, workers=workers, batch_size=batch_size,
                                       max_retries=max_retries,
                                       heartbeat_interval=heartbeat_interval)
        self.batch_size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.run_dir = run_dir
        self.chaos = chaos
        self.on_supervisor_state = on_supervisor_state
        #: The live ShardedSupervisor while a supervised iteration runs
        #: (``request_drain()`` hook for graceful-shutdown callers).
        self.supervisor = None

    # ------------------------------------------------------------------ #
    def run(self, specs) -> list:
        """Execute all trial specs; return records in canonical spec order.

        Parameters
        ----------
        specs : sequence of TrialSpec
            The work list.  ``spec.index`` values must be unique; they define
            the output order.

        Returns
        -------
        list of TrialRecord
            One record per spec, ordered by ``spec.index`` — identical to
            what a serial loop over the same specs would produce.
        """
        records = sorted(self.iter_records(specs), key=lambda pair: pair[0])
        return [record for _, record in records]

    def iter_records(self, specs):
        """Stream ``(index, record)`` pairs as trials complete.

        This is the executor's streaming primitive — :meth:`run`, the
        :func:`repro.api.iter_trials` facade, and the run store's
        incremental checkpointing are all built on it.  Records arrive in
        *completion* order: lazily one-by-one on the serial backend, per
        completed batch on the lockstep batched backend, as they land in the
        shard stores on the sharded backend.  Consuming the generator
        partially is safe on every backend (the supervisor stops its workers
        when the generator is closed), which is what makes mid-campaign
        interruption recoverable.
        """
        specs = list(specs)
        total = len(specs)
        if total == 0:
            return
        indices = [spec.index for spec in specs]
        if len(set(indices)) != total:
            raise ValueError("trial spec indices must be unique")

        if self.backend == "sharded":
            yield from self._iter_supervised(specs)
        elif self.backend == "batched":
            yield from self.campaign.iter_specs_batched(specs, batch_size=self.batch_size)
        else:
            for spec in specs:
                yield spec.index, self.campaign.run_spec_safe(spec)

    # ------------------------------------------------------------------ #
    def _iter_supervised(self, specs):
        from repro.exec.supervisor import ShardedSupervisor

        supervisor = ShardedSupervisor(
            self.campaign, shards=self.workers,
            max_retries=self.max_retries,
            heartbeat_interval=self.heartbeat_interval,
            run_dir=self.run_dir, chaos=self.chaos,
            on_state=self.on_supervisor_state)
        self.supervisor = supervisor
        try:
            yield from supervisor.iter_records(specs)
        finally:
            self.supervisor = None

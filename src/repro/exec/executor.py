"""The campaign execution backends and their knobs.

A fault campaign is hundreds to thousands of *independent* nested FT-GMRES
solves — one per (fault class, injection location) pair.
:meth:`FaultCampaign.iter_records <repro.faults.campaign.FaultCampaign.iter_records>`
runs them on one of three backends, chosen by the campaign spec's ``exec``
section (:class:`~repro.specs.ExecutionSpec`):

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
into a backend; :class:`~repro.specs.ExecutionSpec` validation and the
campaign both call it.

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
  covered too, and fault models keep no state: a random bit comes from the
  trial's injector, seeded from the problem seed and the trial's location,
  so it is the same on every backend and on resume.
* **Streaming completion.**  Records stream as trials complete on every
  backend (lazily on serial, per completed batch on batched, as shard
  records land on sharded) — the primitive under ``run()``, the
  ``iter_trials()`` facade, and the run store's incremental checkpointing.
  Progress reaches observers only as ``trial_completed`` events on a
  campaign's sink (see
  :meth:`~repro.faults.campaign.FaultCampaign.run_plan`).
"""

from __future__ import annotations

import os

__all__ = ["BACKENDS", "BACKEND_KNOBS", "BackendKnobError", "DEFAULT_BATCH_SIZE",
           "resolve_workers", "resolve_backend"]


class BackendKnobError(ValueError):
    """An inconsistent backend/knob combination (a configuration error).

    A distinct type so callers presenting configuration errors (the CLI, the
    spec layer) can catch it without also swallowing genuine ``ValueError``
    bugs raised from inside the numerical kernels.
    """

#: Which execution knobs each backend consumes — the one backend table.
#: :data:`BACKENDS` and the runner's ``--backend`` choices derive from it,
#: and :func:`resolve_backend` rejects knobs outside it instead of silently
#: ignoring them.
BACKEND_KNOBS = {
    "serial": frozenset(),
    "batched": frozenset({"batch_size"}),
    "sharded": frozenset({"workers", "max_retries"}),
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
                    max_retries: int | None = None) -> str:
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
    for name, value in (("batch_size", batch_size), ("max_retries", max_retries)):
        if value is not None and name not in BACKEND_KNOBS[chosen]:
            owner = next(b for b, knobs in BACKEND_KNOBS.items() if name in knobs)
            how = "" if backend is not None else "auto-selected "
            raise BackendKnobError(
                f"{name} only applies to backend={owner!r}; the {how}backend "
                f"{chosen!r} would ignore {name}={value}. Drop {name} or use "
                f"backend={owner!r}.")
    return chosen

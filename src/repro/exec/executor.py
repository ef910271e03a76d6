"""The parallel campaign execution engine.

A fault campaign is hundreds to thousands of *independent* nested FT-GMRES
solves — one per (fault class, injection location) pair.  This module
schedules them over pluggable backends:

* ``"serial"``  — the plain loop (reference semantics, zero overhead);
* ``"thread"``  — a ``ThreadPoolExecutor`` (useful when the solves release
  the GIL in BLAS-heavy kernels, and for testing the dispatch machinery);
* ``"process"`` — a ``ProcessPoolExecutor`` (true parallelism; the paper's
  sweeps are embarrassingly parallel and CPU-bound);
* ``"batched"`` — the trial-batched lockstep engine (:mod:`repro.core.batched`):
  ``batch_size`` trials advance together through shared block kernels in
  this process, amortizing sparse index traffic and interpreter overhead
  across the batch.  Unlike process parallelism it needs no extra CPUs —
  it is the backend that wins on a single-core host.
* ``"sharded"`` — the crash-supervised engine
  (:mod:`repro.exec.supervisor`): the trial range is partitioned into
  ``shards`` contiguous blocks, each run by a dedicated worker process
  writing its own durable shard store; the supervisor watches heartbeats,
  SIGKILLs workers stuck past ``trial_timeout``, restarts crashed workers
  with bounded retries, and quarantines poison trials.  The backend that
  survives segfaults, OOM kills, and stuck kernels.

Design invariants:

* **One campaign per worker.**  The campaign itself (matrix, detector
  bound, fault models) crosses the pool boundary exactly once per worker,
  through the pool initializer (inherited through fork, or pickled once);
  each thread worker runs a private deep copy.  Each task then carries only
  a chunk of tiny :class:`~repro.exec.spec.TrialSpec` values.
* **Deterministic result ordering.**  Every spec carries its position in the
  canonical serial order and results are reassembled by that index, so a
  parallel campaign is trial-for-trial identical to a serial one regardless
  of completion order (asserted in the test suite).  The guarantee covers
  stateless detectors and deterministic fault models — the paper's
  configuration; components that accumulate state *across* trials (e.g.
  ``NormGrowthDetector``) see per-worker history under parallel backends —
  each worker starts from the parent campaign's state — and should be
  swept serially.
* **Chunked dispatch.**  Specs are dispatched in chunks to amortize
  inter-process messaging over many ~25 ms solves.
* **Streaming completion.**  :meth:`CampaignExecutor.iter_records` yields
  ``(index, record)`` pairs as trials complete on every backend (lazily on
  serial, per completed chunk/batch on the others) — the primitive under
  ``run()``, the ``iter_trials()`` facade, and the run store's incremental
  checkpointing.  ``progress(done, total)`` callbacks fire per completed
  trial.
"""

from __future__ import annotations

import copy
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, ThreadPoolExecutor, wait

from repro.exec.spec import TrialSpec

__all__ = ["BACKENDS", "BACKEND_KNOBS", "BackendKnobError", "DEFAULT_BATCH_SIZE",
           "CampaignExecutor", "resolve_workers", "resolve_backend",
           "validate_backend_knobs"]


class BackendKnobError(ValueError):
    """An inconsistent backend/knob combination (a configuration error).

    A distinct type so callers presenting configuration errors (the CLI, the
    spec layer) can catch it without also swallowing genuine ``ValueError``
    bugs raised from inside the numerical kernels.
    """

#: Recognized execution backends.
BACKENDS = ("serial", "thread", "process", "batched", "sharded")

#: Which execution knobs each backend consumes.  Combinations outside this
#: table are rejected up front (see :func:`validate_backend_knobs`) instead
#: of being silently ignored.  Mirrored as metadata in the ``"backend"``
#: namespace of :mod:`repro.registry`.
BACKEND_KNOBS = {
    "serial": frozenset(),
    "thread": frozenset({"workers", "chunksize"}),
    "process": frozenset({"workers", "chunksize"}),
    "batched": frozenset({"batch_size"}),
    "sharded": frozenset({"shards", "max_retries", "heartbeat_interval"}),
}

#: Default lockstep batch width for the ``"batched"`` backend: wide enough to
#: amortize interpreter dispatch across the batch, narrow enough that the
#: per-batch basis blocks stay cache/memory friendly at paper scale.
DEFAULT_BATCH_SIZE = 32

#: Maximum number of chunk futures kept in flight per worker; bounds the
#: memory held by pending results while keeping every worker busy.
_IN_FLIGHT_PER_WORKER = 2


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


def resolve_backend(backend: str | None, workers: int) -> str:
    """Resolve a backend name; ``None`` picks ``process`` when ``workers > 1``.

    :class:`CampaignExecutor` additionally auto-selects ``"batched"`` when an
    explicit ``batch_size`` was given — that rule needs to know whether the
    worker count was explicit or the ``REPRO_WORKERS`` default, which only
    the executor can tell.
    """
    if backend is None:
        return "process" if workers > 1 else "serial"
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
    return backend


def validate_backend_knobs(backend: str | None, *, workers: int | None = None,
                           chunksize: int | None = None,
                           batch_size: int | None = None,
                           shards: int | None = None,
                           max_retries: int | None = None,
                           heartbeat_interval: float | None = None) -> None:
    """Reject knob/backend combinations that would be silently ignored.

    Only *explicitly supplied* knobs (non-``None``) are checked, so defaults
    and the ``REPRO_WORKERS`` environment variable never trip this.
    ``backend=None`` is always consistent except for ambiguous pairs — an
    explicit ``batch_size`` selects ``'batched'`` and an explicit ``shards``
    selects ``'sharded'``, so combining either with each other or with a
    parallel ``workers`` count has no single resolution (see
    :func:`resolve_backend`).
    Raises :class:`BackendKnobError` with the knob to drop or the backend to pick.
    """
    if backend is not None and backend not in BACKENDS:
        raise BackendKnobError(f"backend must be one of {BACKENDS}, got {backend!r}")
    if backend is None:
        if batch_size is not None and workers is not None and workers > 1:
            raise BackendKnobError(
                f"batch_size={batch_size} and workers={workers} are mutually "
                f"exclusive without an explicit backend: batch_size selects the "
                f"single-process 'batched' engine; drop one knob or pass backend=")
        if shards is not None and batch_size is not None:
            raise BackendKnobError(
                f"shards={shards} and batch_size={batch_size} are mutually "
                f"exclusive without an explicit backend: shards selects the "
                f"'sharded' supervisor, batch_size selects the 'batched' "
                f"engine; drop one knob or pass backend=")
        if shards is not None and workers is not None and workers > 1:
            raise BackendKnobError(
                f"shards={shards} and workers={workers} are mutually exclusive "
                f"without an explicit backend: the sharded supervisor sizes "
                f"its worker fleet from shards; drop one knob or pass backend=")
        if shards is None:
            for name, value in (("max_retries", max_retries),
                                ("heartbeat_interval", heartbeat_interval)):
                if value is not None:
                    raise BackendKnobError(
                        f"{name}={value} only applies to the supervised backend "
                        f"('sharded'); set shards= or backend='sharded' to "
                        f"select it, or drop {name}.")
        return
    allowed = BACKEND_KNOBS[backend]
    if batch_size is not None and "batch_size" not in allowed:
        raise BackendKnobError(
            f"batch_size only applies to backend='batched' (it is the lockstep "
            f"batch width); backend={backend!r} would ignore batch_size="
            f"{batch_size}. Drop batch_size or use backend='batched'.")
    if chunksize is not None and "chunksize" not in allowed:
        raise BackendKnobError(
            f"chunksize only applies to the pool backends ('thread'/'process'); "
            f"backend={backend!r} would ignore chunksize={chunksize}. "
            f"Drop chunksize or use backend='thread'/'process'.")
    # workers=1 is the serial meaning of "no parallelism" and stays accepted
    # everywhere; only a parallel worker count on a non-pool backend errors.
    # The sharded supervisor also honors workers as a shards fallback, so a
    # parallel count is meaningful there too.
    if (workers is not None and workers != 1 and "workers" not in allowed
            and backend != "sharded"):
        raise BackendKnobError(
            f"workers only applies to the pool backends ('thread'/'process'); "
            f"backend={backend!r} would ignore workers={workers}. "
            f"Drop workers or use backend='thread'/'process'.")
    for name, value in (("shards", shards), ("max_retries", max_retries),
                        ("heartbeat_interval", heartbeat_interval)):
        if value is not None and name not in allowed:
            raise BackendKnobError(
                f"{name} only applies to the supervised backend ('sharded'); "
                f"backend={backend!r} would ignore {name}={value}. "
                f"Drop {name} or use backend='sharded'.")


# ---------------------------------------------------------------------- #
# worker-side plumbing (module level so it pickles under any start method)
# ---------------------------------------------------------------------- #
_PROCESS_CAMPAIGN = None
_THREAD_STATE = threading.local()


def _process_init(campaign) -> None:
    """Process-pool initializer: the campaign arrives once per worker process."""
    global _PROCESS_CAMPAIGN
    _PROCESS_CAMPAIGN = campaign


def _process_chunk(chunk: list[TrialSpec]) -> list[tuple[int, object]]:
    """Run one chunk of trials against the worker-local campaign.

    Crash isolation (``run_spec_safe``): a trial whose solve raises comes
    back as a ``status="error"`` record instead of poisoning the future and
    killing every other trial in the chunk (and, transitively, the run).
    """
    campaign = _PROCESS_CAMPAIGN
    return [(spec.index, campaign.run_spec_safe(spec)) for spec in chunk]


def _thread_init(campaign) -> None:
    """Thread-pool initializer: a private copy of the campaign per thread.

    Detectors and fault models may carry running state (e.g.
    ``NormGrowthDetector``), so threads never share them; the read-only
    problem is shared.
    """
    _THREAD_STATE.campaign = copy.deepcopy(campaign, {id(campaign.problem): campaign.problem})


def _thread_chunk(chunk: list[TrialSpec]) -> list[tuple[int, object]]:
    campaign = _THREAD_STATE.campaign
    return [(spec.index, campaign.run_spec_safe(spec)) for spec in chunk]


# ---------------------------------------------------------------------- #
# the executor
# ---------------------------------------------------------------------- #
class CampaignExecutor:
    """Schedules a campaign's independent trials over a chosen backend.

    Parameters
    ----------
    campaign : FaultCampaign
        The campaign whose trials run; it is also what each worker receives.
    backend : {"serial", "thread", "process", "batched", "sharded"} or None
        ``None`` auto-selects: ``process`` when ``workers > 1``.  The
        ``"batched"`` backend advances trials in lockstep through shared
        block kernels in this process (see :mod:`repro.core.batched`); the
        ``"sharded"`` backend runs crash-supervised worker processes (see
        :mod:`repro.exec.supervisor`).
    workers : int, optional
        Worker count; defaults to the ``REPRO_WORKERS`` environment variable
        and then 1.  ``0`` means one per CPU.
    chunksize : int, optional
        Trials per dispatched task.  The default splits the work into about
        four chunks per worker, which balances messaging overhead against
        load-balancing granularity.
    batch_size : int, optional
        Lockstep batch width for the ``"batched"`` backend (default
        :data:`DEFAULT_BATCH_SIZE`); ignored by the other backends.
    shards : int, optional
        Worker-process count for the ``"sharded"`` supervisor; setting it
        with ``backend=None`` selects that backend (falls back to
        ``workers`` when the backend is explicit and shards is not).
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
                 chunksize: int | None = None, batch_size: int | None = None,
                 shards: int | None = None, max_retries: int | None = None,
                 heartbeat_interval: float | None = None,
                 run_dir: str | None = None, chaos=None,
                 on_supervisor_state=None):
        from repro.faults.campaign import FaultCampaign

        if not isinstance(campaign, FaultCampaign):
            raise TypeError(f"campaign must be a FaultCampaign, got {type(campaign).__name__}")
        self.campaign = campaign
        if chunksize is not None and chunksize <= 0:
            raise ValueError(f"chunksize must be positive, got {chunksize}")
        if batch_size is not None and batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if shards is not None and shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if max_retries is not None and max_retries <= 0:
            raise ValueError(f"max_retries must be positive, got {max_retries}")
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got {heartbeat_interval}")
        # Explicit knobs must be consistent with the (resolved) backend —
        # silently ignoring e.g. batch_size under backend="process" hides
        # configuration mistakes (checked before workers pick up the
        # REPRO_WORKERS environment default, which never trips this).
        validate_backend_knobs(backend, workers=workers, chunksize=chunksize,
                               batch_size=batch_size, shards=shards,
                               max_retries=max_retries,
                               heartbeat_interval=heartbeat_interval)
        self.workers = resolve_workers(workers)
        if backend is None and batch_size is not None:
            # An explicit batch_size selects the batched engine.  An explicit
            # conflicting workers count was already rejected above; the
            # REPRO_WORKERS environment variable is only a default and must
            # not veto the explicit knob.
            self.backend = "batched"
        elif backend is None and shards is not None:
            # Symmetrically, an explicit shards count selects the supervisor.
            self.backend = "sharded"
        else:
            self.backend = resolve_backend(backend, self.workers)
        if backend is None:
            # Re-check the explicit knobs against the auto-selected backend
            # (workers is exempt here: it either chose the backend or came
            # from the environment default).
            validate_backend_knobs(self.backend, chunksize=chunksize,
                                   batch_size=batch_size, shards=shards,
                                   max_retries=max_retries,
                                   heartbeat_interval=heartbeat_interval)
        self.chunksize = chunksize
        self.batch_size = batch_size if batch_size is not None else DEFAULT_BATCH_SIZE
        self.shards = shards
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.run_dir = run_dir
        self.chaos = chaos
        self.on_supervisor_state = on_supervisor_state
        #: The live ShardedSupervisor while a supervised iteration runs
        #: (``request_drain()`` hook for graceful-shutdown callers).
        self.supervisor = None

    # ------------------------------------------------------------------ #
    def run(self, specs, progress=None) -> list:
        """Execute all trial specs; return records in canonical spec order.

        Parameters
        ----------
        specs : sequence of TrialSpec
            The work list.  ``spec.index`` values must be unique; they define
            the output order.
        progress : callable, optional
            ``progress(done, total)`` callback, fired per completed trial.

        Returns
        -------
        list of TrialRecord
            One record per spec, ordered by ``spec.index`` — identical to
            what a serial loop over the same specs would produce.
        """
        specs = list(specs)
        total = len(specs)
        records: list[tuple[int, object]] = []
        for index, record in self.iter_records(specs):
            records.append((index, record))
            if progress is not None:
                progress(len(records), total)
        records.sort(key=lambda pair: pair[0])
        return [record for _, record in records]

    def iter_records(self, specs):
        """Stream ``(index, record)`` pairs as trials complete.

        This is the executor's streaming primitive — :meth:`run`, the
        :func:`repro.api.iter_trials` facade, and the run store's
        incremental checkpointing are all built on it.  Records arrive in
        *completion* order: lazily one-by-one on the serial backend, per
        completed chunk on the pool backends (windowed submission), per
        completed batch on the lockstep batched backend.  Consuming the
        generator partially is safe on every backend (pools shut down when
        the generator is closed), which is what makes mid-campaign
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
            shards = self.shards if self.shards is not None else self.workers
            yield from self._iter_supervised(specs, shards=shards)
        elif self.backend == "batched":
            yield from self.campaign.iter_specs_batched(specs, batch_size=self.batch_size)
        elif self.backend == "process" and self.campaign.trial_timeout is not None:
            # Hard trial_timeout enforcement: the plain process pool cannot
            # interrupt a trial stuck inside a kernel, so a timeout-carrying
            # process campaign routes through the supervisor (which SIGKILLs
            # the stuck worker and records the trial as an error).  serial/
            # thread keep the soft after-the-fact check.
            yield from self._iter_supervised(specs, shards=self.workers)
        elif self.backend == "serial" or self.workers <= 1 or total == 1:
            for spec in specs:
                yield spec.index, self.campaign.run_spec_safe(spec)
        else:
            yield from self._iter_pool(specs)

    # ------------------------------------------------------------------ #
    def _iter_supervised(self, specs, *, shards: int):
        from repro.exec.supervisor import ShardedSupervisor

        supervisor = ShardedSupervisor(
            self.campaign, shards=max(1, shards),
            max_retries=self.max_retries,
            heartbeat_interval=self.heartbeat_interval,
            run_dir=self.run_dir, chaos=self.chaos,
            on_state=self.on_supervisor_state)
        self.supervisor = supervisor
        try:
            yield from supervisor.iter_records(specs)
        finally:
            self.supervisor = None

    def _iter_pool(self, specs):
        workers = min(self.workers, len(specs))
        chunks = self._chunk(specs, workers)
        if self.backend == "process":
            pool_cls, init, run_chunk = ProcessPoolExecutor, _process_init, _process_chunk
        else:
            pool_cls, init, run_chunk = ThreadPoolExecutor, _thread_init, _thread_chunk

        pool = pool_cls(max_workers=workers, initializer=init,
                        initargs=(self.campaign,))
        try:
            # Windowed submission: keep every worker busy without queueing
            # the entire campaign's pending futures at once.
            window = workers * _IN_FLIGHT_PER_WORKER
            chunk_iter = iter(chunks)
            pending = {pool.submit(run_chunk, chunk)
                       for chunk in _take(chunk_iter, window)}
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    yield from future.result()
                for chunk in _take(chunk_iter, len(finished)):
                    pending.add(pool.submit(run_chunk, chunk))
        finally:
            # On early generator close (or an observer exception), drop the
            # submitted-but-unstarted chunks instead of running them out —
            # only chunks already executing finish.
            pool.shutdown(wait=True, cancel_futures=True)

    def _chunk(self, specs, workers) -> list[list[TrialSpec]]:
        chunksize = self.chunksize
        if chunksize is None:
            chunksize = max(1, -(-len(specs) // (workers * 4)))
        return [specs[i: i + chunksize] for i in range(0, len(specs), chunksize)]


def _take(iterator, n: int) -> list:
    """Up to ``n`` items from ``iterator``."""
    out = []
    for _ in range(n):
        try:
            out.append(next(iterator))
        except StopIteration:
            break
    return out

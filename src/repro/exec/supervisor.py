"""Crash-supervised sharded campaign execution.

This is the ``"sharded"`` backend of :mod:`repro.exec.executor`, its only
multi-process path (run by
:meth:`~repro.faults.campaign.FaultCampaign.iter_records`).  A worker that
segfaults, is OOM-killed, or wedges
inside a sparse kernel must not take the whole campaign down with it, and
``trial_timeout`` must hold even when a trial never finishes, so this
module supervises instead of trusting:

* the trial list is partitioned into ``shards`` contiguous blocks
  (:func:`partition_shards`), each run by a dedicated worker **process**;
* every worker sends the supervisor, over its own one-way pipe, the index of
  each trial it starts and then the finished record.  The supervisor yields
  the records, and ``FaultCampaign.iter_records`` persists them through the
  run's one :class:`~repro.results.store.RunWriter`: a worker never touches
  the store, so one that outlives its supervisor dies on its next send (a
  broken pipe) without writing anything;
* the supervisor blocks in :func:`multiprocessing.connection.wait` on the
  pipes, the workers' sentinels and a self-pipe, with a timeout only while a
  hard ``trial_timeout`` deadline or a restart backoff is pending.  It
  SIGKILLs a worker whose current trial is past the budget, restarts
  crashed workers with exponential backoff, and counts per-trial crash
  blame — a trial that takes its worker down ``max_retries`` times is
  quarantined as a ``status="error"`` record whose message starts with
  ``"poison"`` instead of wedging the shard forever;
* SIGTERM (or :meth:`ShardedSupervisor.request_drain`) drains gracefully:
  workers finish their current trial and exit at the next trial boundary,
  every record they sent is yielded, and :class:`SupervisorDrained` is
  raised so the caller checkpoints — ``resume=True`` re-runs exactly the
  casualties.

A worker's death shows as end-of-file on its pipe, after every message it
finished sending; a message torn by a SIGKILL reads as end-of-file too, so
the trial it carried is blamed like any other in-flight trial.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time
import weakref
from multiprocessing.connection import wait

__all__ = ["DEFAULT_MAX_RETRIES", "EXIT_DRAINED", "ShardedSupervisor",
           "SupervisorDrained", "partition_shards"]

#: Crashes a single trial may cause before it is quarantined as poison.
DEFAULT_MAX_RETRIES = 3
#: Worker exit code meaning "drained at a trial boundary" (not a crash).
EXIT_DRAINED = 96

#: Seconds before a crashed shard's first restart; each further restart of
#: the shard doubles it, up to :data:`_BACKOFF_CAP`.
_BACKOFF_BASE = 0.05
_BACKOFF_CAP = 2.0
#: Seconds a drain waits for workers to reach a trial boundary before
#: SIGKILLing them.
_DRAIN_GRACE = 10.0


class SupervisorDrained(RuntimeError):
    """The supervised campaign was drained (SIGTERM / ``request_drain``).

    Every record a worker finished before the drain was yielded before this
    was raised; the un-run remainder stays un-run so a store-backed campaign
    resumes exactly the casualties.
    """


def partition_shards(specs, shards: int) -> list[list]:
    """Split a spec list into ``shards`` contiguous, balanced blocks.

    Always returns exactly ``shards`` blocks whose sizes differ by at most
    one, covering the input in order (block k gets the k-th contiguous
    slice).  Deterministic, so a resume that re-partitions the remaining
    specs is stable.
    """
    specs = list(specs)
    shards = int(shards)
    if shards <= 0:
        raise ValueError(f"shards must be positive, got {shards}")
    base, extra = divmod(len(specs), shards)
    blocks = []
    start = 0
    for k in range(shards):
        size = base + (1 if k < extra else 0)
        blocks.append(specs[start:start + size])
        start += size
    return blocks


# ---------------------------------------------------------------------- #
# the worker (module level so it works under any start method)
# ---------------------------------------------------------------------- #
def _shard_worker(campaign, specs, conn, retries, chaos, readers) -> None:
    """Run one shard's trials, sending each record to the supervisor.

    Per trial: send the trial's index (the supervisor's blame and
    hard-timeout clock start on it), run the solve with the campaign's crash
    isolation, send ``(index, record)``.  SIGTERM requests a drain — the
    current trial finishes, then the worker exits :data:`EXIT_DRAINED` at
    the trial boundary.  ``readers`` are the supervisor's pipe ends this
    process inherited; closing them leaves the supervisor the only reader,
    so a send after its death fails.  ``chaos`` (test instrumentation) may
    kill this process, raise, hang, or tear a record's message.
    """
    for reader in readers:
        reader.close()
    drain = {"requested": False}

    def _on_term(signum, frame):  # noqa: ARG001 - signal handler signature
        drain["requested"] = True

    signal.signal(signal.SIGTERM, _on_term)
    try:
        for spec in specs:
            if drain["requested"]:
                sys.exit(EXIT_DRAINED)
            conn.send(spec.index)
            if chaos is not None:
                chaos.on_trial_start(spec.index)
            record = campaign.run_spec_safe(spec)
            if retries.get(spec.index):
                record = dataclasses.replace(record, retries=retries[spec.index])
            if chaos is not None:
                chaos.on_send(conn, spec.index, record)
            conn.send((spec.index, record))
            if chaos is not None:
                chaos.on_trial_sent(spec.index)
    except BrokenPipeError:
        sys.exit(1)  # the supervisor is gone, and nothing may outlive it
    sys.exit(0)


class _Shard:
    """Supervisor-side bookkeeping for one worker process."""

    __slots__ = ("specs", "by_index", "proc", "conn", "current", "due",
                 "recorded", "done", "restarts", "timeout_kill")

    def __init__(self, specs):
        self.specs = list(specs)
        self.by_index = {spec.index: spec for spec in self.specs}
        self.proc = None
        self.conn = None  # the read end of the worker's pipe
        self.current: int | None = None  # the trial the worker last started
        #: When the supervisor must act without a message: the current
        #: trial's hard-timeout deadline while a worker runs, the restart
        #: time while none does (``time.monotonic()``; None: never).
        self.due: float | None = None
        self.recorded: set[int] = set()  # indices yielded this session
        self.done = False
        self.restarts = 0
        self.timeout_kill: int | None = None


# ---------------------------------------------------------------------- #
# the supervisor
# ---------------------------------------------------------------------- #
class ShardedSupervisor:
    """Supervises shard worker processes for one campaign execution.

    The hard per-trial budget is ``campaign.trial_timeout``: a worker whose
    current trial runs past it is SIGKILL-ed and the trial recorded as a
    hard-timeout error.

    Parameters
    ----------
    campaign : FaultCampaign
        The campaign each worker process inherits (through fork) and runs.
    shards : int
        Worker-process count (capped at the number of specs).
    max_retries : int, optional
        Crashes one trial may cause before poison quarantine (default
        :data:`DEFAULT_MAX_RETRIES`).
    run_dir : str, optional
        The run directory, where ``chaos`` keeps its firing markers (a
        temporary directory when omitted).
    chaos : ChaosPolicy, optional
        Infrastructure fault injection (:mod:`repro.faults.chaos`).
    on_state : callable, optional
        ``on_state({"retries": ..., "quarantined": ...})`` fired whenever
        retry/quarantine bookkeeping changes (persisted into the manifest
        by the run store).
    """

    def __init__(self, campaign, *, shards: int, max_retries: int | None = None,
                 run_dir: str | None = None, chaos=None, on_state=None):
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.campaign = campaign
        self.shards = int(shards)
        self.max_retries = (DEFAULT_MAX_RETRIES if max_retries is None
                            else int(max_retries))
        if self.max_retries <= 0:
            raise ValueError(
                f"max_retries must be positive, got {self.max_retries}")
        self.trial_timeout = campaign.trial_timeout
        self.run_dir = run_dir
        self.chaos = chaos
        self.on_state = on_state
        #: Per-trial crash counts (``{trial index: crashes}``).
        self.retries: dict[int, int] = {}
        #: Indices quarantined as poison this session.
        self.quarantined: set[int] = set()
        self._drain_requested = False
        self._drain_signal = False
        # A flag alone cannot wake the wait (PEP 475 retries an interrupted
        # select), so a drain request also writes to this self-pipe.  It
        # lives as long as the supervisor: a late request from another
        # thread never writes to a closed (and reused) descriptor.
        self._wake_r, self._wake_w = os.pipe()
        for fd in (self._wake_r, self._wake_w):
            os.set_blocking(fd, False)
            weakref.finalize(self, os.close, fd)
        try:
            # fork: workers inherit the built campaign cheaply; fall back to
            # the platform default where fork is unavailable.
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._mp = multiprocessing.get_context()

    # ------------------------------------------------------------------ #
    def request_drain(self) -> None:
        """Ask the supervisor to drain gracefully (programmatic SIGTERM).

        Safe from any thread and from signal handlers.
        """
        self._drain_requested = True
        try:
            os.write(self._wake_w, b"\0")
        except BlockingIOError:
            pass  # a wake is already pending

    def state(self) -> dict:
        """JSON-ready retry/quarantine bookkeeping (manifest payload)."""
        return {
            "retries": {str(index): int(count)
                        for index, count in sorted(self.retries.items())},
            "quarantined": sorted(int(i) for i in self.quarantined),
        }

    # ------------------------------------------------------------------ #
    def iter_records(self, specs):
        """Supervise the shards; yield ``(index, record)`` as trials land.

        The generator is the supervisor: consuming it drives spawning,
        timeout policing, restarts, and quarantine.  Raises
        :class:`SupervisorDrained` after a graceful drain.
        """
        specs = list(specs)
        if not specs:
            return
        chaos, chaos_home = self.chaos, None
        if chaos is not None:
            # The firing markers need a directory every worker shares.
            home = self.run_dir
            if home is None:
                home = chaos_home = tempfile.mkdtemp(prefix="repro-chaos-")
            chaos = chaos.bound_to(home)
        shards = [_Shard(block) for block in
                  partition_shards(specs, min(self.shards, len(specs)))]
        previous_handler = None
        handler_installed = False
        try:
            try:
                previous_handler = signal.signal(signal.SIGTERM,
                                                 self._on_sigterm)
                handler_installed = True
            except ValueError:
                pass  # not the main thread: request_drain() still works
            for shard in shards:
                self._spawn(shard, shards, chaos)
            while not all(shard.done for shard in shards):
                if self._drain_requested:
                    yield from self._drain(shards)
                    raise SupervisorDrained(
                        "supervised campaign drained; finished records were "
                        "yielded, resume re-runs the remainder")
                ready = self._wait(shards)
                for shard in shards:
                    yield from self._step(shard, shards, ready, chaos)
        finally:
            for shard in shards:
                if shard.proc is not None:
                    shard.proc.kill()
                    shard.proc.join()
                    shard.proc = None
                if shard.conn is not None:
                    shard.conn.close()
                    shard.conn = None
            if handler_installed:
                signal.signal(signal.SIGTERM, previous_handler)
                if self._drain_signal:
                    # The drain was signal-initiated: re-deliver SIGTERM so
                    # the process reports the interruption to its parent
                    # (`timeout --signal=TERM` in CI sees exit 143) now that
                    # every checkpoint is durable.
                    os.kill(os.getpid(), signal.SIGTERM)
            if chaos_home is not None:
                shutil.rmtree(chaos_home, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # the event loop
    # ------------------------------------------------------------------ #
    def _wait(self, shards) -> list:
        """Block until a message, a worker exit, a drain request, or the
        earliest ``due`` time; the ready pipes and sentinels."""
        running = [shard for shard in shards if shard.proc is not None]
        due = [shard.due for shard in shards
               if shard.due is not None and not shard.done]
        timeout = (None if not due
                   else max(0.0, min(due) - time.monotonic()))
        ready = wait([self._wake_r]
                     + [shard.conn for shard in running]
                     + [shard.proc.sentinel for shard in running], timeout)
        if self._wake_r in ready:
            try:
                while os.read(self._wake_r, 4096):
                    pass
            except BlockingIOError:
                pass
        return ready

    def _step(self, shard: _Shard, shards, ready, chaos):
        """Act on one shard after a wait (a generator of records)."""
        if shard.done:
            return
        proc = shard.proc
        if proc is None:
            if time.monotonic() >= shard.due:
                self._spawn(shard, shards, chaos)
            return
        exited = proc.sentinel in ready
        if exited or shard.conn in ready:
            eof = yield from self._receive(shard)
            if eof or exited:
                yield from self._reap(shard)
        elif shard.due is not None and time.monotonic() >= shard.due:
            proc.kill()
            # Remember whom we shot: the crash handler records the hard
            # timeout instead of charging the trial a crash retry (the
            # budget verdict is final; only an explicit resume re-runs it).
            shard.timeout_kill = shard.current
            yield from self._reap(shard)

    # ------------------------------------------------------------------ #
    # shard lifecycle
    # ------------------------------------------------------------------ #
    def _pending(self, shard: _Shard) -> list:
        return [spec for spec in shard.specs
                if spec.index not in shard.recorded]

    def _spawn(self, shard: _Shard, shards, chaos) -> None:
        pending = self._pending(shard)
        if not pending:
            shard.done = True
            return
        shard.conn, sender = self._mp.Pipe(duplex=False)
        shard.current = shard.due = None
        readers = [other.conn for other in shards if other.conn is not None]
        proc = self._mp.Process(
            target=_shard_worker,
            args=(self.campaign, pending, sender, dict(self.retries), chaos,
                  readers),
            daemon=True,
        )
        try:
            proc.start()
        finally:
            sender.close()  # the worker holds the only send end
        # Only a started process becomes the shard's: iter_records' cleanup
        # joins every shard.proc, and joining one whose start() raised would
        # replace that error with "can only join a started process".
        shard.proc = proc

    def _receive(self, shard: _Shard):
        """Yield the records waiting in a shard's pipe (a generator).

        Returns True once the pipe reads end-of-file: the worker is gone, and
        a message its death tore is discarded with it.
        """
        try:
            while shard.conn.poll():
                message = shard.conn.recv()
                if isinstance(message, tuple):  # a finished trial
                    index, record = message
                    shard.recorded.add(index)
                    shard.due = None
                    yield index, record
                else:  # the index of the trial the worker starts
                    shard.current = message
                    shard.due = (None if self.trial_timeout is None
                                 else time.monotonic() + self.trial_timeout)
        except (EOFError, OSError):
            return True
        return False

    def _reap(self, shard: _Shard):
        """Collect an exited (or killed) worker and judge its exit."""
        exitcode = yield from self._retire(shard)
        if exitcode in (0, EXIT_DRAINED):
            if exitcode == EXIT_DRAINED or not self._pending(shard):
                # Finished its block, or drained (remainder left for resume).
                shard.done = True
            else:  # pragma: no cover - defensive: clean exit with work left
                self._schedule_restart(shard)
            return
        yield from self._handle_crash(shard)

    def _retire(self, shard: _Shard):
        """Join a shard's worker and yield what its pipe still holds; returns
        the exit code.  Once the worker has exited every message it sent is
        in the pipe."""
        proc = shard.proc
        proc.join()
        yield from self._receive(shard)
        shard.conn.close()
        shard.proc = shard.conn = None
        return proc.exitcode

    def _handle_crash(self, shard: _Shard):
        if shard.timeout_kill is not None:
            index = shard.timeout_kill
            shard.timeout_kill = None
            if index not in shard.recorded:
                yield self._error(
                    shard, shard.by_index[index],
                    f"hard timeout: trial exceeded trial_timeout="
                    f"{self.trial_timeout:.3f}s; worker killed",
                    retries=self.retries.get(index, 0))
            self._schedule_restart(shard)
            return
        blame = None
        if shard.current is not None:
            if shard.current not in shard.recorded:
                # Died with this trial in flight.  (If its record arrived the
                # worker died *between* trials — e.g. killed right after the
                # send — and no trial is to blame.)
                blame = shard.current
        else:
            # Died before starting a trial: blame the first pending trial
            # (the one it was about to start).
            pending = self._pending(shard)
            if pending:
                blame = pending[0].index
        if blame is not None:
            count = self.retries.get(blame, 0) + 1
            self.retries[blame] = count
            if count >= self.max_retries and blame not in self.quarantined:
                self.quarantined.add(blame)
                yield self._error(
                    shard, shard.by_index[blame],
                    f"poison: trial crashed its worker {count} time(s) "
                    f"(max_retries={self.max_retries}); quarantined",
                    retries=count)
            self._emit_state()
        self._schedule_restart(shard)

    def _schedule_restart(self, shard: _Shard) -> None:
        if not self._pending(shard):
            shard.done = True
            return
        shard.restarts += 1
        backoff = min(_BACKOFF_BASE * (2 ** (shard.restarts - 1)), _BACKOFF_CAP)
        shard.due = time.monotonic() + backoff

    def _error(self, shard: _Shard, spec, message: str, retries: int = 0):
        """A supervisor-produced error record for ``spec``, as ``(index, record)``."""
        shard.recorded.add(spec.index)
        return spec.index, self.campaign.error_record(spec, message,
                                                      retries=retries)

    # ------------------------------------------------------------------ #
    # drain
    # ------------------------------------------------------------------ #
    def _on_sigterm(self, signum, frame):  # noqa: ARG002 - handler signature
        self._drain_signal = True
        self.request_drain()

    def _drain(self, shards):
        """Checkpoint every shard: SIGTERM workers, yield what they send."""
        running = [shard for shard in shards if shard.proc is not None]
        for shard in running:
            shard.proc.terminate()  # workers exit EXIT_DRAINED at the boundary
        deadline = time.monotonic() + _DRAIN_GRACE
        while running:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            ready = wait([shard.conn for shard in running]
                         + [shard.proc.sentinel for shard in running], remaining)
            for shard in list(running):
                exited = shard.proc.sentinel in ready
                if exited or shard.conn in ready:
                    eof = yield from self._receive(shard)
                    if eof or exited:
                        yield from self._retire(shard)
                        running.remove(shard)
        for shard in running:
            shard.proc.kill()  # stuck mid-trial past the grace: no mercy
            yield from self._retire(shard)

    def _emit_state(self) -> None:
        if self.on_state is not None:
            self.on_state(self.state())

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
* every worker appends finished trials to its own durable shard store
  (``<run_dir>/shard-<k>/trials.jsonl``) through the store's
  :class:`~repro.results.store.RunWriter`, so shard stores merge on read,
  and refreshes a heartbeat file once per trial;
* the supervisor tails the shard files with the store's
  :func:`~repro.results.store.read_trial_file` (yielding records as they land),
  SIGKILLs a worker whose heartbeat shows its current trial past the hard
  ``trial_timeout``, restarts crashed workers with exponential backoff, and
  counts per-trial crash blame — a trial that takes its worker down
  ``max_retries`` times is quarantined as a ``status="error"`` record whose
  message starts with ``"poison"`` instead of wedging the shard forever;
* SIGTERM (or :meth:`ShardedSupervisor.request_drain`) drains gracefully:
  workers finish their current trial and exit at the next trial boundary,
  every durable record is collected, and :class:`SupervisorDrained` is
  raised so the caller checkpoints — ``resume=True`` re-runs exactly the
  casualties.

Communication is file-only (trial files + heartbeats); nothing is lost when
a worker dies mid-anything — a torn trailing line is truncated away once
the writer is confirmed dead, by the store's
:func:`~repro.results.store.recover_trial_file`.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import time

from repro.results.store import (RunWriter, read_trial_file, recover_trial_file,
                                 shard_dir_name, trials_path)
from repro.utils.io import atomic_write_json

__all__ = ["DEFAULT_HEARTBEAT_INTERVAL", "DEFAULT_MAX_RETRIES", "EXIT_DRAINED",
           "ShardedSupervisor", "SupervisorDrained", "partition_shards",
           "read_heartbeat", "write_heartbeat"]

#: Crashes a single trial may cause before it is quarantined as poison.
DEFAULT_MAX_RETRIES = 3
#: Seconds between supervisor liveness polls of the shard heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 0.1
#: Worker exit code meaning "drained at a trial boundary" (not a crash).
EXIT_DRAINED = 96

_HEARTBEAT = "heartbeat.json"


class SupervisorDrained(RuntimeError):
    """The supervised campaign was drained (SIGTERM / ``request_drain``).

    Every record durable at drain time was yielded before this was raised;
    the un-run remainder stays un-run so a store-backed campaign resumes
    exactly the casualties.
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


def write_heartbeat(path: str, payload: dict) -> None:
    """Atomically replace a heartbeat file (readers never see a tear)."""
    atomic_write_json(path, payload)


def read_heartbeat(path: str) -> dict | None:
    """A heartbeat payload, or ``None`` when absent/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, ValueError):
        return None


# ---------------------------------------------------------------------- #
# the worker (module level so it works under any start method)
# ---------------------------------------------------------------------- #
def _shard_worker(campaign, specs, shard_dir: str, retries, chaos) -> None:
    """Run one shard's trials, appending each to the shard's trial file.

    Per trial: refresh the heartbeat (the supervisor's liveness/timeout
    signal), run the solve with PR 7's crash isolation, append the finished
    record as one flushed JSONL line.  SIGTERM requests a drain — the
    current trial finishes, then the worker exits :data:`EXIT_DRAINED` at
    the trial boundary.  ``chaos`` (test instrumentation) may kill this
    process, raise, delay heartbeats, or tear the trailing append.
    """
    drain = {"requested": False}

    def _on_term(signum, frame):  # noqa: ARG001 - signal handler signature
        drain["requested"] = True

    signal.signal(signal.SIGTERM, _on_term)
    heartbeat_path = os.path.join(shard_dir, _HEARTBEAT)
    done = 0
    total = len(specs)
    with RunWriter(shard_dir) as writer:
        for spec in specs:
            if drain["requested"]:
                sys.exit(EXIT_DRAINED)
            if chaos is not None:
                chaos.on_heartbeat(spec.index)
            # Heartbeat timestamps are infrastructure liveness, not trial
            # identity — the one legitimate wall-clock read in a worker.
            now = time.time()  # repro: allow(RPR002)
            write_heartbeat(heartbeat_path, {
                "pid": os.getpid(), "current_index": int(spec.index),
                "started_at": now, "done": done, "total": total,
                "updated_at": now,
            })
            if chaos is not None:
                chaos.on_trial_start(spec.index)
            record = campaign.stamp(campaign.run_spec_safe(spec))
            attempts = int(retries.get(spec.index, 0)) if retries else 0
            if attempts:
                record = dataclasses.replace(record, retries=attempts)
            if chaos is not None:
                chaos.on_append(spec.index, writer.path, record)
            writer.append(spec.index, record)
            done += 1
            if chaos is not None:
                chaos.on_trial_appended(spec.index)
    sys.exit(0)


class _Shard:
    """Supervisor-side bookkeeping for one worker process."""

    __slots__ = ("id", "specs", "by_index", "dir", "trial_path",
                 "heartbeat_path", "proc", "offset", "recorded", "yielded",
                 "done", "restarts", "restart_at", "timeout_kill")

    def __init__(self, shard_id: int, specs, shard_dir: str):
        self.id = shard_id
        self.specs = list(specs)
        self.by_index = {spec.index: spec for spec in self.specs}
        self.dir = shard_dir
        self.trial_path = trials_path(shard_dir)
        self.heartbeat_path = os.path.join(shard_dir, _HEARTBEAT)
        self.proc = None
        self.offset: int | None = None  # tail position in the trial file
        self.recorded: set[int] = set()  # durable indices from this session
        self.yielded: set[int] = set()
        self.done = False
        self.restarts = 0
        self.restart_at = 0.0
        self.timeout_kill: int | None = None


# ---------------------------------------------------------------------- #
# the supervisor
# ---------------------------------------------------------------------- #
class ShardedSupervisor:
    """Supervises shard worker processes for one campaign execution.

    Parameters
    ----------
    campaign : FaultCampaign
        The campaign each worker process inherits (through fork) and runs.
    shards : int
        Worker-process count (capped at the number of specs).
    max_retries : int, optional
        Crashes one trial may cause before poison quarantine (default
        :data:`DEFAULT_MAX_RETRIES`).
    trial_timeout : float, optional
        Hard per-trial budget; defaults to ``campaign.trial_timeout``.  A
        worker whose heartbeat shows its current trial past the budget is
        SIGKILL-ed and the trial recorded as a hard-timeout error.
    run_dir : str, optional
        Directory for the ``shard-<k>/`` stores (a RunStore run directory,
        or an ephemeral temp dir when omitted).
    chaos : ChaosPolicy, optional
        Infrastructure fault injection (:mod:`repro.faults.chaos`).
    on_state : callable, optional
        ``on_state({"retries": ..., "quarantined": ...})`` fired whenever
        retry/quarantine bookkeeping changes (persisted into the manifest
        by the run store).
    """

    def __init__(self, campaign, *, shards: int, max_retries: int | None = None,
                 trial_timeout: float | None = None,
                 run_dir: str | None = None, chaos=None,
                 on_state=None, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0, drain_grace: float = 10.0):
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.campaign = campaign
        self.shards = int(shards)
        self.max_retries = (DEFAULT_MAX_RETRIES if max_retries is None
                            else int(max_retries))
        if self.max_retries <= 0:
            raise ValueError(
                f"max_retries must be positive, got {self.max_retries}")
        self.trial_timeout = (campaign.trial_timeout if trial_timeout is None
                              else trial_timeout)
        self.run_dir = run_dir
        self.chaos = chaos
        self.on_state = on_state
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.drain_grace = float(drain_grace)
        #: Per-trial crash counts (``{trial index: crashes}``).
        self.retries: dict[int, int] = {}
        #: Indices quarantined as poison this session.
        self.quarantined: set[int] = set()
        self._drain_requested = False
        self._drain_signal = False
        try:
            # fork: workers inherit the built campaign cheaply; fall back to
            # the platform default where fork is unavailable.
            self._mp = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            self._mp = multiprocessing.get_context()

    # ------------------------------------------------------------------ #
    def request_drain(self) -> None:
        """Ask the supervisor to drain gracefully (programmatic SIGTERM)."""
        self._drain_requested = True

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
        heartbeat/timeout policing, restarts, and quarantine.  Raises
        :class:`SupervisorDrained` after a graceful drain.
        """
        specs = list(specs)
        if not specs:
            return
        own_dir = None
        run_dir = self.run_dir
        if run_dir is None:
            # Storeless campaign: the shard stores still need a durable
            # home (they are the crash-survival mechanism), just not a
            # permanent one.
            own_dir = tempfile.mkdtemp(prefix="repro-shards-")
            run_dir = own_dir
        chaos = (self.chaos.bound_to(run_dir)
                 if self.chaos is not None else None)
        shard_count = min(self.shards, len(specs))
        shards = []
        for shard_id, block in enumerate(partition_shards(specs, shard_count)):
            shard_dir = os.path.join(run_dir, shard_dir_name(shard_id))
            os.makedirs(shard_dir, exist_ok=True)
            shards.append(_Shard(shard_id, block, shard_dir))
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
                self._spawn(shard, chaos)
            while True:
                if self._drain_requested:
                    yield from self._drain(shards)
                    raise SupervisorDrained(
                        "supervised campaign drained; durable records were "
                        "yielded, resume re-runs the remainder")
                progressed = False
                for shard in shards:
                    for item in self._poll(shard, chaos):
                        progressed = True
                        yield item
                if all(shard.done for shard in shards):
                    break
                if not progressed:
                    time.sleep(min(DEFAULT_HEARTBEAT_INTERVAL, 0.05))
        finally:
            for shard in shards:
                proc = shard.proc
                if proc is not None:
                    if proc.is_alive():
                        proc.kill()
                    proc.join()
                    shard.proc = None
            if handler_installed:
                signal.signal(signal.SIGTERM, previous_handler)
                if self._drain_signal:
                    # The drain was signal-initiated: re-deliver SIGTERM so
                    # the process reports the interruption to its parent
                    # (`timeout --signal=TERM` in CI sees exit 143) now that
                    # every checkpoint is durable.
                    os.kill(os.getpid(), signal.SIGTERM)
            if own_dir is not None:
                shutil.rmtree(own_dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # shard lifecycle
    # ------------------------------------------------------------------ #
    def _pending(self, shard: _Shard) -> list:
        return [spec for spec in shard.specs
                if spec.index not in shard.recorded]

    def _spawn(self, shard: _Shard, chaos) -> None:
        pending = self._pending(shard)
        if not pending:
            shard.done = True
            return
        if shard.offset is None:
            # First spawn: heal any prior-session torn tail and start the
            # tail offset past prior records (a resume's already-superseded
            # error records must not be re-yielded as this session's work).
            _, shard.offset, _ = recover_trial_file(shard.trial_path)
        try:
            # A stale heartbeat (from a dead worker or prior session) must
            # never feed the timeout police.
            os.unlink(shard.heartbeat_path)
        except OSError:
            pass
        retries = {index: count for index, count in self.retries.items()}
        shard.proc = self._mp.Process(
            target=_shard_worker,
            args=(self.campaign, pending, shard.dir, retries, chaos),
            daemon=True,
        )
        shard.proc.start()

    def _poll(self, shard: _Shard, chaos):
        """One supervision step for one shard (a generator of records)."""
        if shard.done:
            return
        yield from self._collect(shard)
        proc = shard.proc
        if proc is None:
            if time.monotonic() >= shard.restart_at:
                self._spawn(shard, chaos)
            return
        if proc.is_alive():
            self._check_timeout(shard)
            return
        proc.join()
        exitcode = proc.exitcode
        shard.proc = None
        yield from self._collect(shard, heal=True)
        if exitcode in (0, EXIT_DRAINED):
            if exitcode == EXIT_DRAINED or not self._pending(shard):
                # Finished its block, or drained (remainder left for resume).
                shard.done = True
            else:  # pragma: no cover - defensive: clean exit with work left
                self._schedule_restart(shard)
            return
        yield from self._handle_crash(shard)

    def _check_timeout(self, shard: _Shard) -> None:
        if self.trial_timeout is None:
            return
        heartbeat = read_heartbeat(shard.heartbeat_path)
        if heartbeat is None:
            return
        index = heartbeat.get("current_index")
        started = heartbeat.get("started_at")
        if index is None or started is None:
            return
        if int(index) in shard.recorded:
            return  # already durable: the worker is past it
        grace = max(2 * DEFAULT_HEARTBEAT_INTERVAL, 0.05)
        # Timeout policing compares against the worker's wall-clock
        # heartbeat stamp; never part of trial identity.
        if time.time() - float(started) > self.trial_timeout + grace:  # repro: allow(RPR002)
            proc = shard.proc
            if proc is not None and proc.is_alive():
                proc.kill()
                proc.join()
            # Remember whom we shot: the crash handler records the hard
            # timeout instead of charging the trial a crash retry (the
            # budget verdict is final; only an explicit resume re-runs it).
            shard.timeout_kill = int(index)

    def _handle_crash(self, shard: _Shard):
        if shard.timeout_kill is not None:
            index = shard.timeout_kill
            shard.timeout_kill = None
            if index not in shard.recorded and index in shard.by_index:
                yield from self._append_error(
                    shard, shard.by_index[index],
                    f"hard timeout: trial exceeded trial_timeout="
                    f"{self.trial_timeout:.3f}s; worker killed",
                    retries=self.retries.get(index, 0))
            self._schedule_restart(shard)
            return
        blame = None
        heartbeat = read_heartbeat(shard.heartbeat_path)
        if heartbeat is not None:
            index = heartbeat.get("current_index")
            if index is not None and int(index) not in shard.recorded:
                # Died with this trial in flight.  (If the index is already
                # durable the worker died *between* trials — e.g. killed
                # right after the append landed — and no trial is to blame.)
                blame = int(index)
        else:
            # Died before the first heartbeat: blame the first pending trial
            # (the one it was about to start).
            pending = self._pending(shard)
            if pending:
                blame = pending[0].index
        if blame is not None:
            count = self.retries.get(blame, 0) + 1
            self.retries[blame] = count
            if count >= self.max_retries and blame not in self.quarantined:
                self.quarantined.add(blame)
                if blame in shard.by_index:
                    yield from self._append_error(
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
        backoff = min(self.backoff_base * (2 ** (shard.restarts - 1)),
                      self.backoff_cap)
        shard.restart_at = time.monotonic() + backoff

    # ------------------------------------------------------------------ #
    # durable-record plumbing
    # ------------------------------------------------------------------ #
    def _collect(self, shard: _Shard, *, heal: bool = False):
        """Yield records appended to the shard file since the last tail.

        An incomplete final line waits for the next tail while its writer
        lives; with ``heal`` (only ever with the writer dead) it is cut off.
        """
        if shard.offset is None:
            return
        read = recover_trial_file if heal else read_trial_file
        pairs, shard.offset, _ = read(shard.trial_path, shard.offset)
        for index, record in pairs:
            shard.recorded.add(index)
            if index not in shard.yielded:
                shard.yielded.add(index)
                yield index, record

    def _append_error(self, shard: _Shard, spec, message: str,
                      retries: int = 0):
        """Append a supervisor-produced error record; yield it via the tail."""
        record = self.campaign.stamp(
            self.campaign.error_record(spec, message, retries=retries))
        with RunWriter(shard.dir) as writer:
            writer.append(spec.index, record)
        yield from self._collect(shard)

    # ------------------------------------------------------------------ #
    # drain
    # ------------------------------------------------------------------ #
    def _on_sigterm(self, signum, frame):  # noqa: ARG002 - handler signature
        self._drain_requested = True
        self._drain_signal = True

    def _drain(self, shards):
        """Checkpoint every shard: SIGTERM workers, collect, heal tails."""
        for shard in shards:
            proc = shard.proc
            if proc is not None and proc.is_alive():
                proc.terminate()  # workers exit EXIT_DRAINED at the boundary
        deadline = time.monotonic() + self.drain_grace
        while time.monotonic() < deadline:
            if not any(shard.proc is not None and shard.proc.is_alive()
                       for shard in shards):
                break
            time.sleep(0.02)
        for shard in shards:
            proc = shard.proc
            if proc is None:
                continue
            if proc.is_alive():
                proc.kill()  # stuck mid-trial past the grace: no mercy
            proc.join()
            shard.proc = None
        for shard in shards:
            yield from self._collect(shard, heal=True)

    def _emit_state(self) -> None:
        if self.on_state is not None:
            self.on_state(self.state())

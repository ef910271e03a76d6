"""Infrastructure fault injection for the sharded supervisor.

The paper's fault models corrupt *arithmetic*; this module corrupts the
*execution machinery* — it is how the test suite and the CI ``chaos-smoke``
job prove that :class:`~repro.exec.supervisor.ShardedSupervisor` turns
worker murder into nothing worse than a retry.  A :class:`ChaosPolicy` is
handed to a sharded campaign (``run_campaign(..., chaos=...)``, or
``campaign.iter_records(specs, chaos=...)``/``campaign.run_plan(plan,
chaos=...)``) and rides into every shard worker, where it fires at
scheduled trial indices:

* ``kill_before`` — SIGKILL the worker right before the trial's solve (the
  OOM-killer / segfault scenario);
* ``raise_before`` — raise :class:`ChaosError` outside the solve's crash
  isolation (an infrastructure bug, not a trial error);
* ``kill_during_append`` — flush a torn partial line, then SIGKILL (crash
  mid-append: exercises tail healing);
* ``kill_after_append`` — SIGKILL right after the record is durable
  (exercises the no-blame / no-duplicate path);
* ``hang_before`` — sleep before the solve (exercises the hard timeout);
* ``heartbeat_delay`` — stall every heartbeat write.

Each scheduled firing is **one-shot across worker restarts**: firings are
claimed through ``O_EXCL`` marker files in a state directory shared by all
workers of the run (the supervisor binds it under the run directory via
:meth:`ChaosPolicy.bound_to`), so "kill trial 3's worker twice" means
exactly twice no matter how many times the worker respawns — which is
precisely how a test drives a trial to poison quarantine.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field, replace

from repro.results.store import encode_trial

__all__ = ["ChaosError", "ChaosPolicy"]

_STATE_DIR = "chaos"


class ChaosError(RuntimeError):
    """An injected infrastructure failure (``raise_before`` firings)."""


def _normalize(schedule) -> dict:
    """``{trial index: times}`` with int keys/values (``times >= 1``)."""
    out = {}
    for index, times in dict(schedule or {}).items():
        times = int(times)
        if times < 1:
            raise ValueError(
                f"chaos schedule times must be >= 1, got {times} "
                f"for trial {index}")
        out[int(index)] = times
    return out


@dataclass(frozen=True)
class ChaosPolicy:
    """A schedule of infrastructure faults, keyed by trial index.

    Every schedule maps a trial index to how many times that fault fires
    for that trial (counted across worker restarts); ``times=1`` is the
    common case, ``times >= max_retries`` drives the trial to poison
    quarantine.  The policy object itself is immutable; firing state lives
    in marker files under ``state_dir``.
    """

    kill_before: dict = field(default_factory=dict)
    raise_before: dict = field(default_factory=dict)
    kill_during_append: dict = field(default_factory=dict)
    kill_after_append: dict = field(default_factory=dict)
    #: ``{trial index: seconds}`` — sleep before the solve (one-shot).
    hang_before: dict = field(default_factory=dict)
    #: Seconds every heartbeat write is stalled (0 = no delay).
    heartbeat_delay: float = 0.0
    #: Where firing markers live; ``None`` until :meth:`bound_to`.
    state_dir: str | None = None

    def __post_init__(self):
        for name in ("kill_before", "raise_before", "kill_during_append",
                     "kill_after_append"):
            object.__setattr__(self, name, _normalize(getattr(self, name)))
        object.__setattr__(self, "hang_before",
                           {int(k): float(v)
                            for k, v in dict(self.hang_before or {}).items()})
        if self.heartbeat_delay < 0:
            raise ValueError(f"heartbeat_delay must be >= 0, "
                             f"got {self.heartbeat_delay}")

    # ------------------------------------------------------------------ #
    def bound_to(self, run_dir: str) -> "ChaosPolicy":
        """This policy with its firing state rooted under ``run_dir``."""
        state_dir = os.path.join(run_dir, _STATE_DIR)
        os.makedirs(state_dir, exist_ok=True)
        return replace(self, state_dir=state_dir)

    def _fire(self, tag: str, schedule: dict, index: int) -> bool:
        """Claim one firing of ``tag`` for ``index`` (False when spent)."""
        times = schedule.get(int(index))
        if not times:
            return False
        if self.state_dir is None:
            raise RuntimeError(
                "ChaosPolicy is unbound; the supervisor binds it to the run "
                "directory (call bound_to() when using it directly)")
        for attempt in range(times):
            marker = os.path.join(self.state_dir, f"{tag}-{index}-{attempt}")
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue  # this firing already happened (earlier worker)
            os.close(fd)
            return True
        return False

    # ------------------------------------------------------------------ #
    # hooks called from inside the shard worker
    # ------------------------------------------------------------------ #
    def on_heartbeat(self, index: int) -> None:
        """Stall the heartbeat write (slow-disk / overloaded-host chaos)."""
        if self.heartbeat_delay:
            time.sleep(self.heartbeat_delay)

    def on_trial_start(self, index: int) -> None:
        """Fire hang/raise/kill faults scheduled right before the solve."""
        if self.hang_before.get(int(index)) and self._fire(
                "hang", {k: 1 for k in self.hang_before}, index):
            time.sleep(self.hang_before[int(index)])
        if self._fire("raise", self.raise_before, index):
            raise ChaosError(f"chaos: injected failure before trial {index}")
        if self._fire("kill", self.kill_before, index):
            os.kill(os.getpid(), signal.SIGKILL)

    def on_append(self, index: int, path: str, record) -> None:
        """Tear the append of ``record`` to the trials file ``path`` if
        scheduled: flush part of its line with no newline, then SIGKILL —
        the torn-tail signature the supervisor and ``recover`` heal."""
        if not self._fire("tear", self.kill_during_append, index):
            return
        line = encode_trial(index, record)
        with open(path, "ab") as handle:
            handle.write(line[: max(1, (2 * len(line)) // 3)])
            handle.flush()
            os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def on_trial_appended(self, index: int) -> None:
        """Fire kills scheduled right after the record became durable."""
        if self._fire("after", self.kill_after_append, index):
            os.kill(os.getpid(), signal.SIGKILL)

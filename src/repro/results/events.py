"""The unified structured event bus.

One typed :class:`Event` schema covers everything the library reports while
it runs — solver-level events (``fault_injected``, ``fault_detected``,
``happy_breakdown``, ...) and campaign-level lifecycle events
(``campaign_started``, ``baseline_completed``, ``trial_completed``,
``campaign_completed``).  Producers push events into an :class:`EventSink`;
consumers choose the sink: collect in memory, stream to a JSONL file, drive a
progress bar, or fan out to several sinks at once.

A sink is the only way to observe a run.  Every solver records its events
into a plain ``list[Event]`` that its result carries (``result.events``),
and emits each one to the caller's ``events=`` sink the moment it is
recorded, so the stream a caller watches is exactly the list the result's
counts come from.  Campaigns report progress only as ``trial_completed``
events on their ``sink=``.

Event kinds
-----------
Solver level (``trial_index`` is -1):

=======================  =====================================================
kind                     meaning / payload
=======================  =====================================================
``fault_injected``       injector corrupted a value (original, corrupted, ...)
``fault_detected``       detector flagged a value (value, bound, response, ...)
``happy_breakdown``      subdiagonal collapsed to zero
``spurious_breakdown``   breakdown claim contradicted by the true residual
``rank_deficient``       outer trichotomy reported rank deficiency
``inner_solve_complete`` one inner solve of FT-GMRES finished
``inner_result_nonfinite``  inner solve returned NaN/Inf (screened)
``lsq_fallback`` / ``lsq_nonfinite``  projected least-squares anomalies
``kernel_profile``       per-phase kernel timings of a profiled solve
                         (data: ``profile`` — spmv/precond/orth/lsq seconds
                         and call counts, see :mod:`repro.utils.profile`)
=======================  =====================================================

Campaign level (``trial_index`` set where applicable):

=======================  =====================================================
``campaign_started``     data: total_trials, problem, backend
``baseline_completed``   data: failure_free_outer, failure_free_residual
``trial_completed``      data: done, total, record (the trial's ``to_dict()``)
``campaign_completed``   data: total_trials
=======================  =====================================================
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Event",
    "EventSink",
    "CallbackSink",
    "CollectingSink",
    "MultiSink",
    "NullSink",
    "JsonlEventSink",
    "ConsoleSink",
    "ensure_sink",
    "EVENT_KINDS",
    "SOLVER_EVENT_KINDS",
    "CAMPAIGN_EVENT_KINDS",
    "SERVICE_EVENT_KINDS",
]

#: The declared event vocabulary, by layer.  Every ``kind`` emitted anywhere
#: in the library must appear here — sinks, the README's event table, and
#: stream consumers all rely on this being exhaustive, and the
#: static-analysis rule RPR004 fails the lint gate on any emission whose
#: literal kind is missing (or any declared kind nothing emits).
SOLVER_EVENT_KINDS = frozenset({
    "breakdown",
    "failure_reported",
    "fault_detected",
    "fault_injected",
    "happy_breakdown",
    "inner_result_nonfinite",
    "inner_solve_complete",
    "kernel_profile",
    "lsq_fallback",
    "lsq_nonfinite",
    "rank_deficient",
    "spurious_breakdown",
})
CAMPAIGN_EVENT_KINDS = frozenset({
    "campaign_started",
    "baseline_completed",
    "trial_completed",
    "campaign_completed",
})
SERVICE_EVENT_KINDS = frozenset({
    "job_update",
    "stream_closed",
})
EVENT_KINDS = SOLVER_EVENT_KINDS | CAMPAIGN_EVENT_KINDS | SERVICE_EVENT_KINDS


@dataclass(frozen=True)
class Event:
    """A single structured event.

    Attributes
    ----------
    kind : str
        Event category (see the module docstring for the vocabulary).
    where : str
        The code site that emitted the event (e.g. ``"hessenberg"``).
    outer_iteration : int
        Outer (FGMRES) iteration index, or -1 when not applicable.
    inner_iteration : int
        Inner (GMRES/Arnoldi) iteration index, or -1 when not applicable.
    trial_index : int
        Campaign trial index (canonical order), or -1 for solver-level
        events emitted outside a campaign.
    data : dict
        Free-form payload (original value, corrupted value, bound, ...).
    """

    kind: str
    where: str = ""
    outer_iteration: int = -1
    inner_iteration: int = -1
    trial_index: int = -1
    data: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready dict (defaults omitted; ``kind`` always present)."""
        out: dict[str, Any] = {"kind": self.kind}
        if self.where:
            out["where"] = self.where
        if self.outer_iteration != -1:
            out["outer_iteration"] = self.outer_iteration
        if self.inner_iteration != -1:
            out["inner_iteration"] = self.inner_iteration
        if self.trial_index != -1:
            out["trial_index"] = self.trial_index
        if self.data:
            out["data"] = dict(self.data)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            kind=data["kind"],
            where=data.get("where", ""),
            outer_iteration=int(data.get("outer_iteration", -1)),
            inner_iteration=int(data.get("inner_iteration", -1)),
            trial_index=int(data.get("trial_index", -1)),
            data=dict(data.get("data", {})),
        )


class EventSink:
    """Receives :class:`Event` instances; the consumer side of the bus.

    Sinks must tolerate any event kind (ignore what they do not understand)
    and must not mutate events — several sinks may observe the same instance
    through a :class:`MultiSink`.
    """

    def emit(self, event: Event) -> None:
        """Deliver one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources (flush files, ...).  Default: no-op."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class NullSink(EventSink):
    """Discards every event."""

    def emit(self, event: Event) -> None:
        pass


class CallbackSink(EventSink):
    """Adapts a plain ``fn(event)`` callable to the sink protocol."""

    def __init__(self, fn: Callable[[Event], None]):
        if not callable(fn):
            raise TypeError(f"CallbackSink needs a callable, got {type(fn).__name__}")
        self.fn = fn

    def emit(self, event: Event) -> None:
        self.fn(event)


class CollectingSink(EventSink):
    """Collects events in memory (``sink.events`` is the list)."""

    def __init__(self) -> None:
        self.events: list[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list[Event]:
        """All collected events whose ``kind`` matches exactly."""
        return [e for e in self.events if e.kind == kind]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)


class MultiSink(EventSink):
    """Fans every event out to several sinks, in order."""

    def __init__(self, sinks) -> None:
        self.sinks = [ensure_sink(s) for s in sinks]

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class JsonlEventSink(EventSink):
    """Appends one JSON line per event to a file, flushed per event.

    ``path`` is treated as a directory — events land in
    ``<path>/events.jsonl`` — unless its last component has a file extension
    (``events.jsonl``, ``log.json``), so ``jsonl:runs`` and ``jsonl:runs/``
    mean the same thing and never shadow a run-store directory with a plain
    file.  The default flush-per-event discipline means a killed process
    loses at most the event being written — the same crash contract as the
    run store — and live readers (``tail -f``, the campaign service's
    ``GET /jobs/<id>/events`` stream) see each event as it happens.  Pass
    ``flush=False`` to trade that liveness for buffered writes when the
    firehose of solver-level events is the bottleneck; events then become
    durable and visible only on buffer fill and :meth:`close`.
    """

    def __init__(self, path, *, flush: bool = True) -> None:
        import os

        path = str(path)
        # A trailing separator always means "directory", even when the name
        # contains a dot (e.g. "runs.v2/"); otherwise the extension decides.
        if path.endswith(os.sep) or "." not in os.path.basename(path):
            os.makedirs(path, exist_ok=True)
            path = os.path.join(path, "events.jsonl")
        else:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        self.path = path
        self.flush = bool(flush)
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event: Event) -> None:
        json.dump(event.to_dict(), self._handle, default=_jsonable)
        self._handle.write("\n")
        if self.flush:
            self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class ConsoleSink(EventSink):
    """Prints campaign progress lines to a stream (default: stderr).

    Only lifecycle kinds are printed; the firehose of solver-level events is
    ignored so the console stays readable.
    """

    _LIFECYCLE = ("campaign_started", "baseline_completed", "trial_completed",
                  "campaign_completed")

    def __init__(self, stream=None, every: int = 1) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.every = max(int(every), 1)

    def emit(self, event: Event) -> None:
        if event.kind not in self._LIFECYCLE:
            return
        if event.kind == "trial_completed":
            done = event.data.get("done", -1)
            total = event.data.get("total", -1)
            if done % self.every and done != total:
                return
            print(f"[repro] trial {done}/{total}", file=self.stream)
        else:
            detail = " ".join(f"{k}={v}" for k, v in sorted(event.data.items())
                              if not isinstance(v, dict))
            print(f"[repro] {event.kind} {detail}".rstrip(), file=self.stream)


def ensure_sink(obj) -> EventSink | None:
    """Coerce ``obj`` to an :class:`EventSink`.

    ``None`` passes through (meaning "no sink"); sinks pass through; lists
    and tuples become a :class:`MultiSink`; bare callables are wrapped in a
    :class:`CallbackSink`.
    """
    if obj is None or isinstance(obj, EventSink):
        return obj
    if isinstance(obj, (list, tuple)):
        return MultiSink(obj)
    if callable(obj):
        return CallbackSink(obj)
    raise TypeError(
        f"expected an EventSink, a callable, a list of them, or None; "
        f"got {type(obj).__name__}")


def _jsonable(value):
    """JSON fallback for event payloads (numpy scalars, exotic objects)."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return repr(value)

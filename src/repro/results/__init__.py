"""repro.results — the streaming results subsystem.

Three pieces make campaign output first-class:

* a **unified event bus** (:mod:`repro.results.events`): one typed
  :class:`Event` schema and an :class:`EventSink` protocol carrying both
  solver-level events (fault injected/detected, breakdowns) and
  campaign-lifecycle events (trial completed, baseline, ...);
* a **persistent run store** (:mod:`repro.results.store`): append-only
  JSONL-per-run with a manifest (full spec, spec hash, seed, repro version),
  written incrementally by every execution backend, supporting
  checkpoint/resume at trial granularity and crash recovery;
* a **query API** (:mod:`repro.results.query`): filter/group/aggregate
  helpers over trial records, so figures regenerate from stored runs with
  zero new solves.
"""

from repro.results.events import (
    CallbackSink,
    CollectingSink,
    ConsoleSink,
    Event,
    EventSink,
    JsonlEventSink,
    MultiSink,
    NullSink,
    ensure_sink,
)
from repro.results.query import TrialQuery
from repro.results.store import (
    RunManifest,
    RunStore,
    RunStoreError,
    RunWriter,
    StoreLock,
    campaign_fingerprint,
)

__all__ = [
    "Event",
    "EventSink",
    "CallbackSink",
    "CollectingSink",
    "ConsoleSink",
    "JsonlEventSink",
    "MultiSink",
    "NullSink",
    "ensure_sink",
    "TrialQuery",
    "RunManifest",
    "RunStore",
    "RunStoreError",
    "RunWriter",
    "StoreLock",
    "campaign_fingerprint",
]

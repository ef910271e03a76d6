"""Live event fan-out for the campaign service.

Two complementary delivery paths feed ``GET /jobs/<id>/events`` and
``GET /events``:

* :func:`tail_jsonl` — follow a run's durable ``events.jsonl`` file from the
  start, yielding each complete line as it is appended.  Because campaign
  workers write events through a flush-per-event :class:`JsonlEventSink`,
  tailing the file gives a subscriber the *full* history (replay) plus live
  updates, survives daemon restarts, and needs no coupling between the
  worker process and the HTTP thread.

* :class:`BroadcastSink` — an in-process fan-out :class:`EventSink`
  bridging the PR 5 event bus to N concurrent subscribers.  Each
  :class:`Subscription` owns a bounded queue; a subscriber that cannot keep
  up *drops* events rather than stalling the producer, and the drop count
  is part of the subscription's accounting (reported on the stream's final
  line), so slow consumers are visible instead of silently lossy.
"""

from __future__ import annotations

import json
import os
import queue
import threading
import time
from typing import Callable, Iterator

from repro.results.events import Event, EventSink

__all__ = ["BroadcastSink", "Subscription", "run_events_path", "tail_jsonl"]

#: The per-run live event file a service job's worker appends to.
EVENTS_FILE = "events.jsonl"

_CLOSED = object()  # queue sentinel: the broadcast sink shut down

#: Events a subscriber's queue holds before the producer drops for it.
SUBSCRIBER_QUEUE = 256


def run_events_path(store, run_id: str) -> str:
    """The durable live-event file of one service-managed run."""
    return os.path.join(store.run_path(run_id), EVENTS_FILE)


class Subscription:
    """One subscriber's bounded view of a :class:`BroadcastSink`.

    Iterating yields :class:`Event` objects until the sink closes or
    :meth:`close` is called.  ``dropped`` counts events discarded because
    the queue was full when the producer emitted them (slow-subscriber
    accounting — the producer never blocks).
    """

    def __init__(self, sink: "BroadcastSink"):
        self._sink = sink
        self._queue: queue.Queue = queue.Queue(SUBSCRIBER_QUEUE)
        self.dropped = 0
        self.closed = False

    def _offer(self, event: Event) -> None:
        try:
            self._queue.put_nowait(event)
        except queue.Full:
            self.dropped += 1

    def _shutdown(self) -> None:
        try:
            self._queue.put_nowait(_CLOSED)
        except queue.Full:
            # The iterator drains the queue and re-checks ``closed``, so a
            # full queue cannot swallow the shutdown signal.
            pass
        self.closed = True

    def get(self, timeout: float | None = None) -> Event | None:
        """The next event, or None on timeout / after shutdown."""
        if self.closed and self._queue.empty():
            return None
        try:
            item = self._queue.get(timeout=timeout)
        except queue.Empty:
            return None
        if item is _CLOSED:
            self.closed = True
            return None
        return item

    def close(self) -> None:
        """Detach from the sink (the producer stops offering events)."""
        self._sink.unsubscribe(self)
        self._shutdown()

    def __iter__(self) -> Iterator[Event]:
        while True:
            event = self.get(timeout=0.25)
            if event is not None:
                yield event
            elif self.closed and self._queue.empty():
                return


class BroadcastSink(EventSink):
    """Fans every event out to N bounded-queue subscribers, without blocking.

    Registered as the ``broadcast`` sink; the service daemon uses one as its
    job-lifecycle bus (``GET /events``).  Emit is O(subscribers) and never
    waits: a full subscriber queue (:data:`SUBSCRIBER_QUEUE` events)
    increments that subscription's ``dropped`` counter instead.
    """

    def __init__(self):
        self._subs: list[Subscription] = []
        self._lock = threading.Lock()
        self.closed = False

    def subscribe(self) -> Subscription:
        """A new bounded subscription (closed immediately if the sink is)."""
        sub = Subscription(self)
        with self._lock:
            if self.closed:
                sub._shutdown()
            else:
                self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._lock:
            try:
                self._subs.remove(sub)
            except ValueError:
                pass

    @property
    def subscribers(self) -> int:
        with self._lock:
            return len(self._subs)

    def emit(self, event: Event) -> None:
        with self._lock:
            subs = list(self._subs)
        for sub in subs:
            sub._offer(event)

    def close(self) -> None:
        with self._lock:
            subs, self._subs = self._subs, []
            self.closed = True
        for sub in subs:
            sub._shutdown()


def tail_jsonl(path: str, *, poll_interval: float = 0.1,
               stop: Callable[[], bool] | None = None) -> Iterator[dict]:
    """Yield parsed JSON objects from a JSONL file, live (``tail -f`` style).

    Starts at the beginning of the file (full replay), then polls for
    appended lines every ``poll_interval`` seconds.  A missing file reads as
    empty (the run may not have started writing yet).  Only *complete*
    (newline-terminated) lines are yielded; a partial tail stays pending
    until its newline arrives, and a complete-but-corrupt line (torn by a
    SIGKILL mid-append, then overwritten) is skipped.

    ``stop`` is polled between reads; when it returns True one final read
    drains anything appended in the meantime, then the generator returns.
    The contract matters for job streams: the scheduler marks a job terminal
    only *after* its worker exited, and the worker flushed every event
    before exiting, so events observed as "stopped" are already on disk.
    """
    offset = 0
    stopping = False
    while True:
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except (FileNotFoundError, NotADirectoryError):
            data = b""
        pos = 0
        while True:
            newline = data.find(b"\n", pos)
            if newline < 0:
                break
            line = data[pos:newline]
            pos = newline + 1
            try:
                yield json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                pass  # a torn (crash-signature) line; skip it
        offset += pos
        if pos:
            continue  # drain fully before sleeping or stopping
        if stopping:
            return
        if stop is not None and stop():
            stopping = True  # one more read pass catches late appends
            continue
        time.sleep(poll_interval)

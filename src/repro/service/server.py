"""The ``repro serve`` daemon: HTTP/JSONL API over the run store.

Stdlib only (:mod:`http.server` + :mod:`socketserver`): a
``ThreadingHTTPServer`` answers requests from a background thread while the
:class:`~repro.service.scheduler.CampaignScheduler` runs in the main thread,
asleep until a submit, a cancel or a worker exit wakes it.  All state lives
in the store — job records under ``_jobs/``, trial results in the ordinary
run layout — so the daemon itself is disposable: SIGKILL it, restart it,
and every job resumes from its persisted trials.

Endpoints
---------
====== ========================  =============================================
POST   ``/jobs``                 submit a CampaignSpec (JSON body); 201 on a
                                 new job, 200 when deduped onto an existing
                                 one (job_id = campaign fingerprint)
GET    ``/jobs``                 list all jobs with live trial progress
GET    ``/jobs/<id>``            one job record
DELETE ``/jobs/<id>``            request cancel (SIGTERM drain at a trial
                                 boundary); 202, idempotent
GET    ``/jobs/<id>/result``     the completed CampaignResult (409 until
                                 the job completes)
GET    ``/jobs/<id>/events``     chunked JSONL stream: full replay of the
                                 run's events, then live tail until the job
                                 is terminal
GET    ``/events``               chunked JSONL stream of job lifecycle
                                 updates (the daemon's broadcast bus)
GET    ``/health``               daemon liveness + job-state counts
====== ========================  =============================================

Shutdown: SIGTERM/SIGINT drains every running campaign at a trial boundary
(via the workers' cooperative handler or the sharded supervisor's
``SupervisorDrained`` path), re-queues their jobs, removes the pidfile, and
re-delivers the signal so the process exits with the conventional nonzero
status (143 for SIGTERM) — the same idiom as the supervisor.
"""

from __future__ import annotations

import json
import os
import re
import signal
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import __version__
from repro.results.events import Event
from repro.results.store import RunStore, RunStoreError
from repro.service.scheduler import (
    TERMINAL_STATES,
    CampaignScheduler,
    JobError,
    JobStore,
    register_fork_cleanup,
)
from repro.service.streams import BroadcastSink, run_events_path, tail_jsonl
from repro.specs import CampaignSpec, ServiceSpec, SpecError
from repro.utils.io import atomic_write_json

__all__ = ["ServiceDaemon", "ServiceStartupError", "DAEMON_FILE", "read_daemon_info"]

#: The daemon pidfile inside ``<store>/_jobs/`` — existence + a live pid is
#: the single-daemon-per-store guard, and its ``port`` field is how clients
#: (and tests binding port 0) discover the bound address.
DAEMON_FILE = "daemon.json"

_JOB_PATH_RE = re.compile(r"^/jobs/([A-Za-z0-9._-]+)(/events|/result)?$")

#: Largest ``POST /jobs`` body the daemon reads (a CampaignSpec is a few
#: KB).  A longer declared ``Content-Length`` gets 413 without a read.
MAX_BODY_BYTES = 1 << 20


class ServiceStartupError(RuntimeError):
    """The daemon cannot start (another daemon owns the store, bind failed)."""


def read_daemon_info(store) -> dict | None:
    """The running daemon's ``{pid, host, port, ...}`` for a store, if any."""
    path = os.path.join(RunStore.coerce(store).root, "_jobs", DAEMON_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


class ServiceDaemon:
    """The long-running campaign service bound to one run store."""

    def __init__(self, store, spec: ServiceSpec | dict | None = None, **overrides):
        self.store = RunStore.coerce(store)
        self.spec = ServiceSpec.coerce(spec, **overrides)
        self.jobs = JobStore(self.store)
        self.bus = BroadcastSink()
        self.scheduler = CampaignScheduler(
            self.jobs, max_jobs=self.spec.max_jobs,
            drain_grace=self.spec.drain_grace, on_update=self._publish)
        self.httpd: ThreadingHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._signalled: int | None = None
        self._old_handlers: dict[int, object] = {}

    # ------------------------------------------------------------------ #
    def _publish(self, record) -> None:
        self.bus.emit(Event(kind="job_update", where="service",
                            data=record.to_dict()))

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` to the real port)."""
        if self.httpd is None:
            return (self.spec.host, self.spec.port)
        return self.httpd.server_address[:2]

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (thread/signal safe)."""
        self._stop.set()
        self.scheduler.notify()

    def job_progress(self, run_id: str) -> dict | None:
        """Live ``{"trials_done", "total_trials"}`` of a job's run, if started."""
        try:
            if not self.store.exists(run_id):
                return None
            manifest = self.store.manifest(run_id)
            done = len(self.store.completed_indices(run_id))
        except RunStoreError:
            return None
        return {"trials_done": done, "total_trials": manifest.total_trials}

    # ------------------------------------------------------------------ #
    def _daemon_path(self) -> str:
        return os.path.join(self.jobs.dir, DAEMON_FILE)

    def _claim_store(self) -> None:
        info = read_daemon_info(self.store)
        if info and info.get("pid"):
            try:
                os.kill(int(info["pid"]), 0)
            except (OSError, ValueError):
                pass  # stale pidfile from a killed daemon; take over
            else:
                raise ServiceStartupError(
                    f"another daemon (pid {info['pid']}) already serves "
                    f"{self.store.root} on "
                    f"http://{info.get('host')}:{info.get('port')}")

    def _write_daemon_info(self) -> None:
        host, port = self.address
        atomic_write_json(self._daemon_path(),
                          {"pid": os.getpid(), "host": host, "port": port,
                           "max_jobs": self.spec.max_jobs,
                           "version": __version__,
                           "started_at": time.time()},
                          indent=2)

    def _remove_daemon_info(self) -> None:
        info = read_daemon_info(self.store)
        if info is None or info.get("pid") == os.getpid():
            try:
                os.remove(self._daemon_path())
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    def _start_http(self) -> None:
        handler = type("BoundServiceHandler", (_ServiceHandler,),
                       {"daemon": self})
        try:
            self.httpd = ThreadingHTTPServer((self.spec.host, self.spec.port),
                                             handler)
        except OSError as exc:
            raise ServiceStartupError(
                f"cannot bind {self.spec.host}:{self.spec.port}: {exc}") from None
        self.httpd.daemon_threads = True
        # Forked campaign workers must not hold the listening socket open —
        # an orphan (daemon SIGKILLed) would block the restarted daemon's
        # bind.  The registry is fork-copied, so the child closes its copy.
        register_fork_cleanup(self.httpd.socket.close)
        self._http_thread = threading.Thread(target=self.httpd.serve_forever,
                                             name="repro-serve-http",
                                             daemon=True)
        self._http_thread.start()

    def _install_handlers(self) -> None:
        def _on_signal(signum, frame):
            self._signalled = signum
            self.request_stop()

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._old_handlers[signum] = signal.signal(signum, _on_signal)
            except ValueError:  # not the main thread (embedded use)
                pass

    def _restore_handlers(self) -> None:
        for signum, old in self._old_handlers.items():
            try:
                signal.signal(signum, old)
            except (ValueError, TypeError):
                pass
        self._old_handlers.clear()

    # ------------------------------------------------------------------ #
    def serve(self, *, quiet: bool = False) -> int:
        """Run the daemon until stopped; returns the process exit status.

        Blocking.  On SIGTERM/SIGINT the signal is re-delivered after the
        drain, so callers normally never see the return; embedded users
        (tests) can :meth:`request_stop` and get 0 back.
        """
        self._claim_store()
        self._install_handlers()
        try:
            self._start_http()
            self._write_daemon_info()
            host, port = self.address
            if not quiet:
                print(f"[repro serve] listening on http://{host}:{port} "
                      f"(store {self.store.root}, max_jobs "
                      f"{self.spec.max_jobs})", flush=True)
            self.scheduler.recover()
            while not self._stop.is_set():
                self.scheduler.tick()
                self.scheduler.wait()
            drained = self.scheduler.drain()
            if not quiet:
                print(f"[repro serve] drained {drained} running job(s); "
                      f"shutting down", flush=True)
        finally:
            if self.httpd is not None:
                self.httpd.shutdown()
                self.httpd.server_close()
            self.bus.close()
            self._remove_daemon_info()
            self._restore_handlers()
            if self._signalled is not None:
                os.kill(os.getpid(), self._signalled)
        return 0


class _ServiceHandler(BaseHTTPRequestHandler):
    """Routes one HTTP connection; ``daemon`` is bound per-server by type()."""

    daemon: ServiceDaemon = None  # type: ignore[assignment]
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the daemon's own prints are the log; per-request noise is not

    # ------------------------------------------------------------------ #
    def _json(self, code: int, payload: dict) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.close_connection = True
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._json(code, {"error": message})

    def _stream_start(self) -> None:
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

    def _stream_line(self, payload: dict) -> None:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        self.wfile.write(f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n")
        self.wfile.flush()

    def _stream_end(self) -> None:
        self.wfile.write(b"0\r\n\r\n")

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:
        try:
            if self.path == "/health":
                counts = Counter(r.status for r in self.daemon.jobs.list())
                self._json(200, {"status": "ok", "version": __version__,
                                 "store": self.daemon.store.root,
                                 "max_jobs": self.daemon.spec.max_jobs,
                                 "jobs": dict(counts)})
            elif self.path == "/jobs":
                rows = []
                for record in self.daemon.jobs.list():
                    row = record.to_dict()
                    row["progress"] = self.daemon.job_progress(record.run_id)
                    rows.append(row)
                self._json(200, {"jobs": rows})
            elif self.path == "/events":
                self._stream_bus()
            elif match := _JOB_PATH_RE.match(self.path):
                job_id, tail = match.group(1), match.group(2)
                record = self.daemon.jobs.read(job_id)
                if tail is None:
                    row = record.to_dict()
                    row["progress"] = self.daemon.job_progress(record.run_id)
                    self._json(200, row)
                elif tail == "/result":
                    self._send_result(record)
                else:
                    self._stream_job_events(record)
            else:
                self._error(404, f"no such endpoint: GET {self.path}")
        except JobError as exc:
            self._error(404, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_POST(self) -> None:
        if self.path != "/jobs":
            self._error(404, f"no such endpoint: POST {self.path}")
            return
        try:
            declared = self.headers.get("Content-Length") or "0"
            try:
                length = int(declared)
            except ValueError:
                length = -1
            if length < 0:
                self._error(400, f"invalid Content-Length {declared!r}")
                return
            if length > MAX_BODY_BYTES:
                self._error(413, f"request body of {length} bytes exceeds the "
                                 f"{MAX_BODY_BYTES}-byte limit")
                return
            try:
                data = json.loads(self.rfile.read(length) or b"null")
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and undecodable bytes;
                # RecursionError is nesting deeper than the parser allows.
                self._error(400, f"request body is not valid JSON: {exc}")
                return
            if not isinstance(data, dict):
                self._error(400, "request body must be a CampaignSpec JSON "
                                 "object")
                return
            try:
                spec = CampaignSpec.from_dict(data)
                record, created = self.daemon.jobs.submit(spec)
            except SpecError as exc:
                self._error(400, str(exc))
                return
            # Published before the scheduler can publish "running"; notified
            # before the reply, so a client that hangs up still gets its job
            # run.  A deduped submit may have re-queued a failed job.
            self.daemon._publish(record)
            self.daemon.scheduler.notify(record.job_id)
            self._json(201 if created else 200, record.to_dict())
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_DELETE(self) -> None:
        match = _JOB_PATH_RE.match(self.path)
        if not match or match.group(2) is not None:
            self._error(404, f"no such endpoint: DELETE {self.path}")
            return
        try:
            record = self.daemon.jobs.request_cancel(match.group(1))
        except JobError as exc:
            self._error(404, str(exc))
            return
        self.daemon.scheduler.notify(record.job_id)
        try:
            code = 200 if record.terminal else 202
            self._json(code, record.to_dict())
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    # ------------------------------------------------------------------ #
    def _send_result(self, record) -> None:
        if record.status != "completed":
            self._error(409, f"job {record.job_id} is {record.status}; "
                             f"its result is available once it completes")
            return
        try:
            result = self.daemon.store.load_result(record.run_id)
        except RunStoreError as exc:
            self._error(500, f"stored run is unreadable: {exc}")
            return
        self._json(200, {"job": record.to_dict(), "result": result.to_dict()})

    def _stream_job_events(self, record) -> None:
        """Chunked JSONL: replay the run's events file, then tail it live."""
        daemon = self.daemon
        job_id = record.job_id
        path = run_events_path(daemon.store, record.run_id)

        def _terminal() -> bool:
            if daemon._stop.is_set():
                return True
            try:
                return daemon.jobs.read(job_id).status in TERMINAL_STATES
            except JobError:
                return True

        self._stream_start()
        try:
            for event in tail_jsonl(path, stop=_terminal):
                self._stream_line(event)
            final = daemon.jobs.read(job_id).to_dict()
            final["progress"] = daemon.job_progress(record.run_id)
            self._stream_line({"kind": "job_update", "where": "service",
                               "data": final})
            self._stream_end()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def _stream_bus(self) -> None:
        """Chunked JSONL of live job-lifecycle updates (no replay)."""
        daemon = self.daemon
        sub = daemon.bus.subscribe()
        self._stream_start()
        try:
            while True:
                event = sub.get(timeout=0.25)
                if event is not None:
                    self._stream_line(event.to_dict())
                elif sub.closed or daemon._stop.is_set():
                    break
            self._stream_line({"kind": "stream_closed", "where": "service",
                               "data": {"dropped": sub.dropped}})
            self._stream_end()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        finally:
            sub.close()

"""Client and CLI for the campaign service (``repro serve/submit/...``).

:class:`ServiceClient` speaks the daemon's HTTP/JSONL API over
:mod:`urllib.request` (stdlib only, like the server).  The CLI subcommands
it powers are dispatched from the main ``repro`` entry point *before* the
experiment parser, so the one console command covers both worlds:

.. code-block:: bash

    repro serve --store runs/ --port 8765 --max-jobs 2 &
    repro submit campaign.json --watch          # POST + live event stream
    repro jobs                                  # job table with progress
    repro watch <job_id>                        # stream one job's events
    repro cancel <job_id>                       # SIGTERM-drain the worker
    repro result <job_id>                       # completed CampaignResult
    repro runs --store runs/                    # store-level run summaries

``submit``/``watch`` exit 0 when the job completes, 3 when it ends
``failed``/``cancelled`` — scriptable the same way the exit codes of
``repro serve`` (143 on SIGTERM) and the supervisor are.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Iterator, Sequence

from repro.specs import CampaignSpec, ServiceSpec, SpecError

__all__ = ["ServiceClient", "ServiceError", "SERVICE_COMMANDS", "service_main"]

#: Subcommands the main ``repro`` CLI routes here instead of argparse.
SERVICE_COMMANDS = ("serve", "submit", "jobs", "watch", "cancel", "result",
                    "runs")

DEFAULT_URL = f"http://{ServiceSpec().host}:{ServiceSpec().port}"


class ServiceError(RuntimeError):
    """An API-level failure; carries the HTTP status and error payload."""

    def __init__(self, message: str, *, status: int | None = None,
                 payload: dict | None = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServiceClient:
    """A thin, stdlib-only client of one ``repro serve`` daemon."""

    def __init__(self, url: str = DEFAULT_URL, *, timeout: float = 60.0):
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    def _request(self, method: str, path: str, payload: dict | None = None,
                 *, stream: bool = False):
        data = None
        headers = {}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.url + path, data=data,
                                         headers=headers, method=method)
        try:
            response = urllib.request.urlopen(request, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            body = exc.read()
            try:
                detail = json.loads(body)
            except (json.JSONDecodeError, UnicodeDecodeError):
                detail = {"error": body.decode("utf-8", "replace")}
            raise ServiceError(detail.get("error", f"HTTP {exc.code}"),
                               status=exc.code, payload=detail) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach the campaign service at {self.url} "
                f"({exc.reason}); is `repro serve` running?") from None
        if stream:
            return response
        with response:
            return json.loads(response.read())

    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        return self._request("GET", "/health")

    def submit(self, spec) -> dict:
        """POST a campaign; returns the (possibly deduped) job record."""
        if isinstance(spec, CampaignSpec):
            spec = spec.to_dict()
        if not isinstance(spec, dict):
            raise ServiceError(f"submit needs a CampaignSpec or dict, "
                               f"got {type(spec).__name__}")
        return self._request("POST", "/jobs", spec)

    def jobs(self) -> list[dict]:
        return self._request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """``{"job": ..., "result": ...}`` of a completed job (409 before)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def events(self, job_id: str) -> Iterator[dict]:
        """Stream a job's events: full replay, then live until terminal."""
        response = self._request("GET", f"/jobs/{job_id}/events", stream=True)
        return self._iter_jsonl(response)

    def service_events(self) -> Iterator[dict]:
        """Stream the daemon's live job-lifecycle updates."""
        response = self._request("GET", "/events", stream=True)
        return self._iter_jsonl(response)

    @staticmethod
    def _iter_jsonl(response) -> Iterator[dict]:
        with response:
            for line in response:  # http.client un-chunks transparently
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(self, job_id: str, *, timeout: float | None = None,
             poll_interval: float = 0.2) -> dict:
        """Poll until the job is terminal; returns its final record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["status"] in ("completed", "failed", "cancelled"):
                return record
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {record['status']} after {timeout}s")
            time.sleep(poll_interval)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def build_service_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Campaign service commands (see also the experiment "
                    "subcommands: repro table1/fig2/fig3/fig4/summary/all).")
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the campaign service daemon")
    serve.add_argument("--store", required=True, metavar="DIR",
                       help="run store directory the daemon owns (job records "
                            "live in DIR/_jobs/)")
    serve.add_argument("--config", default=None, metavar="SERVICE.json",
                       help="ServiceSpec JSON file; flags override its fields")
    serve.add_argument("--host", default=None)
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port (0 = ephemeral; the bound port is "
                            "recorded in DIR/_jobs/daemon.json)")
    serve.add_argument("--max-jobs", type=int, default=None, dest="max_jobs",
                       help="campaigns run concurrently (default 2)")
    serve.add_argument("--drain-grace", type=float, default=None,
                       dest="drain_grace", metavar="SECONDS",
                       help="shutdown budget for workers to drain at a trial "
                            "boundary before they are killed (default 10)")

    submit = sub.add_parser("submit",
                            help="POST a CampaignSpec JSON file as a job")
    submit.add_argument("spec", metavar="SPEC.json",
                        help="campaign spec file ('-' reads stdin)")
    submit.add_argument("--url", default=DEFAULT_URL)
    submit.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="PATH=VALUE",
                        help="dotted CampaignSpec override, e.g. "
                             "--set problem=poisson:30; repeatable")
    submit.add_argument("--watch", action="store_true",
                        help="stream the job's events until it finishes")

    jobs = sub.add_parser("jobs", help="list the daemon's jobs")
    jobs.add_argument("--url", default=DEFAULT_URL)
    jobs.add_argument("--json", action="store_true", dest="as_json",
                      help="raw JSON instead of the table")

    watch = sub.add_parser("watch", help="stream one job's events (JSONL)")
    watch.add_argument("job_id")
    watch.add_argument("--url", default=DEFAULT_URL)

    cancel = sub.add_parser("cancel", help="cancel a job (drains the worker)")
    cancel.add_argument("job_id")
    cancel.add_argument("--url", default=DEFAULT_URL)

    result = sub.add_parser("result",
                            help="print a completed job's CampaignResult JSON")
    result.add_argument("job_id")
    result.add_argument("--url", default=DEFAULT_URL)

    runs = sub.add_parser("runs", help="list the runs stored in a run store")
    runs.add_argument("--store", required=True, metavar="DIR")
    runs.add_argument("--json", action="store_true", dest="as_json",
                      help="raw JSON instead of the table")
    return parser


def _cmd_serve(args) -> int:
    from repro.results.store import RunStore
    from repro.service.server import ServiceDaemon, ServiceStartupError

    raw: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecError("config", f"cannot read {args.config}: {exc}") from None
    overrides = {name: getattr(args, name)
                 for name in ("host", "port", "max_jobs", "drain_grace")
                 if getattr(args, name) is not None}
    spec = ServiceSpec.coerce(raw or None, **overrides)
    try:
        return ServiceDaemon(RunStore(args.store), spec).serve()
    except ServiceStartupError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 1


def _load_spec_file(path: str) -> dict:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError("spec", f"cannot read {path}: {exc}") from None
    if not isinstance(data, dict):
        raise SpecError("spec", f"{path} must hold a CampaignSpec JSON object")
    return data


def _watch_stream(client: ServiceClient, job_id: str) -> int:
    """Print a job's JSONL event stream; exit by its final status."""
    final_status = None
    for event in client.events(job_id):
        print(json.dumps(event), flush=True)
        if event.get("kind") == "job_update":
            final_status = event.get("data", {}).get("status", final_status)
    if final_status is None:
        final_status = client.job(job_id)["status"]
    return 0 if final_status == "completed" else 3


def _cmd_submit(args) -> int:
    from repro.specs import apply_overrides, parse_override_value

    spec = CampaignSpec.from_dict(_load_spec_file(args.spec))
    for item in args.overrides:
        path, sep, value = item.partition("=")
        if not sep or not path:
            raise SpecError("--set", f"expected PATH=VALUE, got {item!r}")
        spec = apply_overrides(spec, {path.strip(): parse_override_value(value)})
    client = ServiceClient(args.url)
    record = client.submit(spec)
    print(json.dumps(record, indent=2), flush=True)
    if args.watch:
        return _watch_stream(client, record["job_id"])
    return 0


def _cmd_jobs(args) -> int:
    from repro.experiments.report import format_table

    rows = ServiceClient(args.url).jobs()
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    table = []
    for row in rows:
        progress = row.get("progress") or {}
        done, total = progress.get("trials_done"), progress.get("total_trials")
        table.append([
            row["job_id"], row["status"],
            str(row["spec"].get("problem", "")),
            f"{done}/{total}" if done is not None else "-",
            row["submissions"], row["created_at"],
        ])
    print(format_table(
        ["job_id", "status", "problem", "trials", "submits", "created_at"],
        table, title=f"jobs @ {args.url}"))
    return 0


def _cmd_watch(args) -> int:
    return _watch_stream(ServiceClient(args.url), args.job_id)


def _cmd_cancel(args) -> int:
    record = ServiceClient(args.url).cancel(args.job_id)
    print(json.dumps(record, indent=2))
    return 0


def _cmd_result(args) -> int:
    payload = ServiceClient(args.url).result(args.job_id)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_runs(args) -> int:
    from repro.experiments.report import format_table
    from repro.results.store import RunStore

    rows = RunStore(args.store).list_runs()
    if args.as_json:
        print(json.dumps(rows, indent=2))
        return 0
    table = [[row["run_id"], row["status"],
              (f"{row['trials_done']}/{row['total_trials']}"
               if row["trials_done"] is not None else "-"),
              row["shards"], row["spec_hash"] or "-",
              row["problem_name"] or "-"]
             for row in rows]
    print(format_table(
        ["run_id", "status", "trials", "shards", "spec_hash", "problem"],
        table, title=f"runs in {args.store}"))
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "watch": _cmd_watch,
    "cancel": _cmd_cancel,
    "result": _cmd_result,
    "runs": _cmd_runs,
}


def service_main(argv: Sequence[str]) -> int:
    """Entry point for the service subcommands (called by the runner CLI)."""
    parser = build_service_parser()
    args = parser.parse_args(list(argv))
    try:
        return _COMMANDS[args.command](args)
    except SpecError as exc:
        parser.error(str(exc))
    except ServiceError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130
    except BrokenPipeError:
        return 141
    return 0

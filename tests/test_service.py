"""The campaign service: job queue, scheduler, HTTP/JSONL API, streaming.

The acceptance bar (ISSUE 9): ≥3 concurrent campaigns submitted over HTTP,
the daemon SIGKILL-ed mid-run and restarted, and the final stored results
trial-identical to undisturbed serial runs with completed trials never
re-solved.  "Never re-solved" is checked two ways: the store itself raises
on duplicate successful records (so ``load_result`` succeeding is already
proof), and the per-run ``events.jsonl`` — append-only across daemon
restarts — must contain at most one ``trial_completed`` event per trial
index (a resumed replay emits lifecycle events only).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro.exec.supervisor as supervisor
from repro.api import run_campaign
from repro.faults.campaign import FaultCampaign
from repro.results.events import Event, JsonlEventSink
from repro.results.store import RunStore, RunStoreError, StoreLock
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import (CampaignScheduler, JobError, JobRecord,
                                     JobStore, job_fingerprint)
from repro.service.server import ServiceDaemon
from repro.service.streams import (SUBSCRIBER_QUEUE, BroadcastSink, run_events_path,
                                   tail_jsonl)
from repro.specs import CampaignSpec, ServiceSpec, SpecError

# A tiny campaign: 3 fault classes x 7 locations = 21 trials, ~1 s serial.
BASE = dict(problem="poisson:8", inner_iterations=10, max_outer=30, stride=6)
#: Three *distinct* campaigns (different fingerprints) for concurrency tests;
#: stride 2 keeps each one running a few seconds.
TRIO = (dict(BASE, stride=2),
        dict(BASE, stride=2, inner_iterations=12),
        dict(BASE, stride=2, max_outer=40))
#: A campaign of 3 trials that runs in ~10 ms; ``locations`` makes it distinct.
TINY = dict(problem="poisson:4", locations=[1])
#: BASE on two shard workers: the same job (``exec`` is not part of a job's
#: identity), run by the sharded supervisor inside the job worker.
SHARDED = dict(BASE, exec={"workers": 2})

_SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, env.get("PYTHONPATH", "")])
    return env


def _start_daemon(store_dir, *, max_jobs=2, drain_grace=3.0):
    """Launch ``repro serve`` on an ephemeral port; returns (proc, client)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store", str(store_dir),
         "--port", "0", "--max-jobs", str(max_jobs),
         "--drain-grace", str(drain_grace)],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    path = os.path.join(str(store_dir), "_jobs", "daemon.json")
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise AssertionError(
                f"daemon exited rc={proc.returncode}: "
                f"{proc.stdout.read().decode()}")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                info = json.load(handle)
            if info.get("pid") == proc.pid:
                return proc, ServiceClient(f"http://127.0.0.1:{info['port']}")
        except (FileNotFoundError, json.JSONDecodeError):
            pass
        time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon never wrote daemon.json")


def _raw_post_jobs(url: str, content_length: str, body: bytes = b"") -> int:
    """``POST /jobs`` with hand-written framing; the reply's status code."""
    import socket
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    head = (f"POST /jobs HTTP/1.1\r\nHost: {parts.hostname}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode("ascii")
    with socket.create_connection((parts.hostname, parts.port), timeout=5) as sock:
        sock.sendall(head + body)
        status_line = sock.makefile("rb").readline()
    return int(status_line.split()[1])


def _stop_daemon(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def _trial_event_counts(store: RunStore, run_id: str) -> dict[int, int]:
    """trial_completed events per trial index in a run's events.jsonl."""
    counts: dict[int, int] = {}
    try:
        with open(run_events_path(store, run_id), "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from a kill; fine
                if event.get("kind") == "trial_completed":
                    index = event.get("trial_index")
                    counts[index] = counts.get(index, 0) + 1
    except FileNotFoundError:
        pass
    return counts


# ---------------------------------------------------------------------- #
# specs and fingerprints
# ---------------------------------------------------------------------- #
class TestServiceSpec:
    def test_roundtrip_and_defaults(self):
        spec = ServiceSpec(port=0, max_jobs=4)
        assert ServiceSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict() == {"port": 0, "max_jobs": 4}  # compact
        assert ServiceSpec().host == "127.0.0.1"

    @pytest.mark.parametrize("bad", [
        {"host": ""}, {"port": -1}, {"port": 70000}, {"max_jobs": 0},
        {"poll_interval": 0.0}, {"drain_grace": -1.0}, {"bogus": 1},
        {"poll_interval": 0.05},
    ])
    def test_validation(self, bad):
        with pytest.raises(SpecError):
            ServiceSpec.from_dict(bad)

    def test_removed_poll_interval_is_a_spec_error(self, tmp_path):
        """The scheduler has no timer, so its knob is gone everywhere."""
        from repro import api

        for build in (lambda: ServiceSpec.coerce(poll_interval=0.05),
                      lambda: ServiceSpec.coerce(ServiceSpec(), poll_interval=0.05),
                      lambda: api.serve(tmp_path / "store", poll_interval=0.05)):
            with pytest.raises(SpecError) as excinfo:
                build()
            assert excinfo.value.field == "poll_interval"
        assert not (tmp_path / "store").exists()

    def test_coerce(self):
        assert ServiceSpec.coerce(None) == ServiceSpec()
        assert ServiceSpec.coerce({"port": 0}, max_jobs=3).max_jobs == 3
        with pytest.raises(SpecError):
            ServiceSpec.coerce(42)


class TestJobFingerprint:
    def test_exec_knobs_do_not_change_identity(self):
        a = CampaignSpec.coerce(BASE)
        b = CampaignSpec.coerce(dict(BASE, exec={"workers": 4,
                                                 "backend": "sharded"}))
        assert job_fingerprint(a) == job_fingerprint(b)

    def test_problem_is_part_of_identity(self):
        a = CampaignSpec.coerce(BASE)
        b = CampaignSpec.coerce(dict(BASE, problem="poisson:30"))
        assert job_fingerprint(a) != job_fingerprint(b)

    def test_physics_is_part_of_identity(self):
        a = CampaignSpec.coerce(BASE)
        b = CampaignSpec.coerce(dict(BASE, stride=2))
        assert job_fingerprint(a) != job_fingerprint(b)

    def test_problem_required(self):
        with pytest.raises(SpecError, match="problem"):
            job_fingerprint(CampaignSpec())


# ---------------------------------------------------------------------- #
# the durable job store
# ---------------------------------------------------------------------- #
class TestJobStore:
    def test_submit_dedupes_onto_one_job(self, tmp_path):
        jobs = JobStore(tmp_path)
        first, created = jobs.submit(BASE)
        again, created2 = jobs.submit(CampaignSpec.coerce(BASE))
        assert created and not created2
        assert again.job_id == first.job_id
        assert again.submissions == 2
        assert again.run_id == f"job-{first.job_id}"
        assert len(jobs.list()) == 1

    def test_resubmit_requeues_failed_and_cancelled(self, tmp_path):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        jobs.update(record.job_id, status="failed", error="boom",
                    finished_at="t")
        requeued, created = jobs.submit(BASE)
        assert not created
        assert requeued.status == "queued"
        assert requeued.error is None and requeued.finished_at is None

    def test_resubmit_leaves_completed_alone(self, tmp_path):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        jobs.update(record.job_id, status="completed")
        again, _ = jobs.submit(BASE)
        assert again.status == "completed"

    @pytest.mark.parametrize("status", ["failed", "cancelled"])
    def test_resubmit_requeues_with_the_new_spec(self, tmp_path, status):
        """A job that failed on its execution knobs is retried on the ones
        it is resubmitted with (they are all its identity leaves free)."""
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(dict(BASE, exec={"backend": "sharded",
                                                  "workers": 2}))
        jobs.update(record.job_id, status=status)
        requeued, _ = jobs.submit(dict(BASE, exec={}))
        assert requeued.job_id == record.job_id
        assert requeued.status == "queued"
        assert jobs.read(record.job_id).spec == CampaignSpec.coerce(BASE).to_dict()

    @pytest.mark.parametrize("status", ["queued", "running", "completed"])
    def test_resubmit_keeps_the_spec_of_an_open_or_completed_job(self, tmp_path,
                                                                 status):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(SHARDED)
        jobs.update(record.job_id, status=status)
        again, _ = jobs.submit(BASE)
        assert again.status == status
        assert jobs.read(record.job_id).spec == record.spec

    def test_read_unknown_and_update_unknown_field(self, tmp_path):
        jobs = JobStore(tmp_path)
        with pytest.raises(JobError, match="no job"):
            jobs.read("0" * 16)
        record, _ = jobs.submit(BASE)
        with pytest.raises(JobError, match="unknown job record field"):
            jobs.update(record.job_id, bogus=1)

    def test_list_skips_non_job_files(self, tmp_path):
        jobs = JobStore(tmp_path)
        jobs.submit(BASE)
        for name in ("daemon.json", ".jobs.lock", "junk.txt"):
            with open(os.path.join(jobs.dir, name), "w") as handle:
                handle.write("{}")
        assert len(jobs.list()) == 1

    def test_request_cancel_is_flag_only_and_terminal_noop(self, tmp_path):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        flagged = jobs.request_cancel(record.job_id)
        assert flagged.cancel_requested and flagged.status == "queued"
        jobs.update(record.job_id, status="completed",
                    cancel_requested=False)
        done = jobs.request_cancel(record.job_id)
        assert done.status == "completed" and not done.cancel_requested


class TestStoreLock:
    @staticmethod
    def _free(lock):
        """Whether a raw non-blocking flock on the lock file succeeds."""
        import fcntl

        with open(lock.path, "a+") as probe:
            try:
                fcntl.flock(probe.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                return False
            fcntl.flock(probe.fileno(), fcntl.LOCK_UN)
            return True

    def test_mutual_exclusion_and_release(self, tmp_path):
        held = StoreLock(tmp_path)
        held.acquire()
        assert not self._free(held)
        held.release()
        assert self._free(held)

    def test_blocked_acquire_waits_then_wins(self, tmp_path):
        held = StoreLock(tmp_path)
        held.acquire()
        won = threading.Event()

        def contend():
            with StoreLock(tmp_path):
                won.set()

        thread = threading.Thread(target=contend)
        thread.start()
        try:
            assert not won.wait(0.2)  # blocked while the lock is held
        finally:
            held.release()
        assert won.wait(5.0)
        thread.join(5.0)
        assert not thread.is_alive()

    def test_context_manager_and_reentry_guard(self, tmp_path):
        lock = StoreLock(tmp_path)
        with lock:
            from repro.results.store import RunStoreError

            with pytest.raises(RunStoreError, match="already held"):
                lock.acquire()
            assert not self._free(lock)
        assert self._free(lock)
        lock.acquire()
        lock.release()


# ---------------------------------------------------------------------- #
# satellites: RunStore.list_runs, JsonlEventSink flush
# ---------------------------------------------------------------------- #
class TestListRuns:
    def test_empty_store(self, tmp_path):
        assert RunStore(tmp_path).list_runs() == []

    def test_reports_progress_and_status(self, tmp_path):
        store = RunStore(tmp_path)
        run_campaign(spec=BASE, store=store, run_id="done")
        rows = store.list_runs()
        assert [row["run_id"] for row in rows] == ["done"]
        row = rows[0]
        assert row["status"] == "complete"
        assert row["trials_done"] == row["total_trials"] == 21
        assert row["problem_name"] == "poisson-8x8"
        assert row["shards"] == 0 and row["spec_hash"]

    def test_corrupt_run_does_not_hide_the_rest(self, tmp_path):
        store = RunStore(tmp_path)
        run_campaign(spec=BASE, store=store, run_id="good")
        os.makedirs(store.run_path("bad"))
        with open(os.path.join(store.run_path("bad"), "manifest.json"),
                  "w") as handle:
            handle.write("{not json")
        rows = {row["run_id"]: row for row in store.list_runs()}
        assert rows["bad"]["status"] == "corrupt"
        assert rows["good"]["status"] == "complete"


class TestJsonlFlushParam:
    def test_default_flushes_per_event(self, tmp_path):
        path = os.path.join(str(tmp_path), "events.jsonl")
        sink = JsonlEventSink(path)
        try:
            sink.emit(Event("trial_completed", data={"done": 1}))
            with open(path) as handle:  # visible before close
                assert len(handle.readlines()) == 1
        finally:
            sink.close()

    def test_registry_factory_rejects_flush(self, tmp_path):
        """Every event is flushed; ``flush`` is no option of the sink."""
        from repro.registry import RegistryError, resolve_sink

        for flush in (False, "false", True):
            with pytest.raises(RegistryError, match="flush"):
                resolve_sink({"name": "jsonl",
                              "path": os.path.join(str(tmp_path), "e.jsonl"),
                              "flush": flush})
        with pytest.raises(TypeError):
            JsonlEventSink(os.path.join(str(tmp_path), "e.jsonl"), flush=False)


# ---------------------------------------------------------------------- #
# streams: broadcast fan-out + JSONL tailing
# ---------------------------------------------------------------------- #
class TestBroadcastSink:
    def test_fan_out_to_subscribers(self):
        bus = BroadcastSink()
        a, b = bus.subscribe(), bus.subscribe()
        bus.emit(Event("job_update", data={"n": 1}))
        bus.emit(Event("job_update", data={"n": 2}))
        bus.close()
        assert [e.data["n"] for e in a] == [1, 2]
        assert [e.data["n"] for e in b] == [1, 2]

    def test_slow_subscriber_drops_instead_of_blocking(self):
        bus = BroadcastSink()
        sub = bus.subscribe()
        for n in range(SUBSCRIBER_QUEUE + 3):
            bus.emit(Event("job_update", data={"n": n}))
        assert sub.dropped == 3
        bus.close()
        assert [e.data["n"] for e in sub] == list(range(SUBSCRIBER_QUEUE))

    def test_unsubscribe_stops_delivery(self):
        bus = BroadcastSink()
        sub = bus.subscribe()
        sub.close()
        bus.emit(Event("job_update"))
        assert bus.subscribers == 0
        assert list(sub) == []

    def test_subscribe_after_close_is_immediately_done(self):
        bus = BroadcastSink()
        bus.close()
        assert list(bus.subscribe()) == []

    def test_registered_as_sink(self):
        from repro.registry import RegistryError, resolve_sink

        bus = resolve_sink("broadcast")
        assert isinstance(bus, BroadcastSink)
        bus.close()
        # The queue size is fixed (SUBSCRIBER_QUEUE): no colon argument.
        with pytest.raises(RegistryError, match="colon"):
            resolve_sink("broadcast:8")


class TestTailJsonl:
    def test_replays_then_follows_live_appends(self, tmp_path):
        path = os.path.join(str(tmp_path), "events.jsonl")
        with open(path, "w") as handle:
            handle.write('{"n": 1}\n{"n": 2}\n')
        seen: list[dict] = []
        done = threading.Event()

        def _consume():
            for row in tail_jsonl(path, poll_interval=0.01,
                                  stop=lambda: len(seen) >= 3):
                seen.append(row)
            done.set()

        thread = threading.Thread(target=_consume, daemon=True)
        thread.start()
        time.sleep(0.1)
        with open(path, "a") as handle:
            handle.write('{"n": 3}\n')
        assert done.wait(timeout=30)
        assert [row["n"] for row in seen] == [1, 2, 3]

    def test_stop_drains_pending_lines_first(self, tmp_path):
        path = os.path.join(str(tmp_path), "events.jsonl")
        with open(path, "w") as handle:
            handle.write('{"n": 1}\n{"n": 2}\n')
        rows = list(tail_jsonl(path, stop=lambda: True))
        assert [row["n"] for row in rows] == [1, 2]

    def test_missing_file_and_partial_tail(self, tmp_path):
        path = os.path.join(str(tmp_path), "nope.jsonl")
        assert list(tail_jsonl(path, stop=lambda: True)) == []
        with open(path, "w") as handle:
            handle.write('{"n": 1}\n{"torn')  # no newline: stays pending
        rows = list(tail_jsonl(path, stop=lambda: True))
        assert [row["n"] for row in rows] == [1]

    def test_corrupt_complete_line_is_skipped(self, tmp_path):
        path = os.path.join(str(tmp_path), "events.jsonl")
        with open(path, "w") as handle:
            handle.write('{"n": 1}\nnot-json\n{"n": 2}\n')
        rows = list(tail_jsonl(path, stop=lambda: True))
        assert [row["n"] for row in rows] == [1, 2]


# ---------------------------------------------------------------------- #
# the scheduler, in-process (no HTTP)
# ---------------------------------------------------------------------- #
def _drive(scheduler, jobs, job_ids, *, timeout=240):
    """Tick until every job is terminal; returns the final records."""
    deadline = time.monotonic() + timeout
    while True:
        scheduler.tick()
        records = [jobs.read(job_id) for job_id in job_ids]
        if all(record.terminal for record in records):
            return records
        if time.monotonic() > deadline:
            raise AssertionError(
                f"jobs never finished: "
                f"{[(r.job_id, r.status) for r in records]}")
        time.sleep(0.05)


class TestCampaignScheduler:
    def test_distinct_campaigns_complete_trial_identical_to_serial(
            self, tmp_path):
        """Satellite: N distinct campaigns under max_jobs=2 == serial runs."""
        store = RunStore(tmp_path)
        jobs = JobStore(store)
        scheduler = CampaignScheduler(jobs, max_jobs=2)
        ids = [jobs.submit(spec)[0].job_id for spec in TRIO]
        records = _drive(scheduler, jobs, ids)
        assert [record.status for record in records] == ["completed"] * 3
        assert scheduler.running == 0
        for spec, record in zip(TRIO, records):
            serial = run_campaign(spec=dict(spec, exec={"backend": "serial"}))
            stored = store.load_result(record.run_id)
            assert stored.trials == serial.trials

    def test_failing_job_records_the_error(self, tmp_path):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(dict(BASE, problem="no-such-problem:9"))
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        (final,) = _drive(scheduler, jobs, [record.job_id])
        assert final.status == "failed"
        assert "no-such-problem" in final.error

    def test_stored_job_naming_a_removed_field_fails_naming_it(self, tmp_path):
        """A job queued before ``exec.kernels`` was removed fails when it
        runs, with the error naming the field."""
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        record.spec = dict(record.spec, exec={"kernels": "scipy"})
        jobs.write(record)
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        (final,) = _drive(scheduler, jobs, [record.job_id])
        assert final.status == "failed"
        assert "SpecError: exec.kernels" in final.error

    def test_stored_job_naming_the_heartbeat_interval_fails_naming_it(self, tmp_path):
        """A job queued before ``exec.heartbeat_interval`` was removed fails
        when it runs, with the error naming the field."""
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        record.spec = dict(record.spec, exec={"heartbeat_interval": 0.1})
        jobs.write(record)
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        (final,) = _drive(scheduler, jobs, [record.job_id])
        assert final.status == "failed"
        assert "SpecError: exec.heartbeat_interval" in final.error

    def test_cancel_queued_job_never_launches(self, tmp_path):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        jobs.request_cancel(record.job_id)
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        scheduler.tick()
        final = jobs.read(record.job_id)
        assert final.status == "cancelled"
        assert scheduler.running == 0

    def test_recover_requeues_running_orphans(self, tmp_path):
        jobs = JobStore(tmp_path)
        record, _ = jobs.submit(BASE)
        jobs.update(record.job_id, status="running", pid=None)
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        scheduler.recover()
        assert jobs.read(record.job_id).status == "queued"

    def test_round_reads_only_open_and_notified_records(self, tmp_path,
                                                        monkeypatch):
        """After the first round's scan, finished jobs are never re-read."""
        jobs = JobStore(tmp_path)
        for n in range(200):
            jobs.write(JobRecord(job_id=f"{n:016x}", spec={},
                                 run_id=f"job-{n:016x}", status="completed",
                                 created_at=f"2026-01-01T00:00:{n % 60:02d}Z"))
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        scheduler.tick()
        reads: list[str] = []
        read = jobs.read
        monkeypatch.setattr(jobs, "read",
                            lambda job_id: reads.append(job_id) or read(job_id))
        scheduler.tick()
        assert reads == []
        # a cancel handed over by notify is read and acted on, nothing else
        record, _ = jobs.submit(BASE)
        jobs.request_cancel(record.job_id)
        reads.clear()
        scheduler.notify(record.job_id)
        scheduler.tick()
        assert set(reads) == {record.job_id}
        assert read(record.job_id).status == "cancelled"
        assert scheduler.running == 0


# ---------------------------------------------------------------------- #
# sharded jobs: the job worker forks the supervisor's shard workers
# ---------------------------------------------------------------------- #
def _stored(store: RunStore, run_id: str) -> int:
    """How many trials a job's run holds so far (0 before it exists)."""
    try:
        return len(store.completed_indices(run_id))
    except RunStoreError:
        return 0


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestShardedJobs:
    def test_sharded_job_completes_trial_identical_to_serial(self, tmp_path):
        store = RunStore(tmp_path)
        jobs = JobStore(store)
        record, _ = jobs.submit(SHARDED)
        (final,) = _drive(CampaignScheduler(jobs, max_jobs=1), jobs,
                          [record.job_id])
        assert final.status == "completed", final.error
        serial = run_campaign(spec=dict(BASE, exec={"backend": "serial"}))
        assert store.load_result(record.run_id).trials == serial.trials

    @pytest.mark.parametrize("stop", ["cancel", "drain"])
    def test_stopped_sharded_job_leaves_no_shard_and_resumes(
            self, stop, tmp_path, monkeypatch):
        """Cancelling the job, or draining the daemon, stops its shard
        workers with it; the resubmitted (or restarted) job resumes to the
        serial result."""
        store = RunStore(tmp_path / "store")
        jobs = JobStore(store)
        pids = tmp_path / "pids"
        pids.mkdir()
        shard_worker = supervisor._shard_worker
        run_spec_safe = FaultCampaign.run_spec_safe

        def recording_worker(*args):
            (pids / str(os.getpid())).touch()
            shard_worker(*args)

        def slow_trial(self, spec):  # keeps the job running while it stops
            time.sleep(0.1)
            return run_spec_safe(self, spec)

        # Both patches reach the forked job worker and its shard workers.
        monkeypatch.setattr(supervisor, "_shard_worker", recording_worker)
        monkeypatch.setattr(FaultCampaign, "run_spec_safe", slow_trial)
        record, _ = jobs.submit(SHARDED)
        scheduler = CampaignScheduler(jobs, max_jobs=1)
        scheduler.tick()
        deadline = time.monotonic() + 120
        while _stored(store, record.run_id) < 2:
            scheduler.tick()
            state = jobs.read(record.job_id)
            assert state.status == "running", (state.status, state.error)
            assert time.monotonic() < deadline, "the job never made progress"
            time.sleep(0.02)
        if stop == "cancel":
            jobs.request_cancel(record.job_id)
            scheduler.notify(record.job_id)
            (final,) = _drive(scheduler, jobs, [record.job_id])
            assert final.status == "cancelled"
        else:
            assert scheduler.drain() == 1
            assert jobs.read(record.job_id).status == "queued"
        shard_pids = [int(path.name) for path in pids.iterdir()]
        assert len(shard_pids) == 2
        assert not [pid for pid in shard_pids if _alive(pid)]
        assert 2 <= _stored(store, record.run_id) < \
            store.manifest(record.run_id).total_trials
        monkeypatch.undo()
        if stop == "cancel":
            assert jobs.submit(SHARDED)[0].status == "queued"
        (final,) = _drive(CampaignScheduler(jobs, max_jobs=1), jobs,
                          [record.job_id])
        assert final.status == "completed", final.error
        serial = run_campaign(spec=dict(BASE, exec={"backend": "serial"}))
        assert store.load_result(record.run_id).trials == serial.trials


# ---------------------------------------------------------------------- #
# the daemon in-process: it sleeps until something happens
# ---------------------------------------------------------------------- #
class TestEventDrivenDaemon:
    def test_idle_daemon_does_not_tick_and_wakes_on_submit(self, tmp_path):
        daemon = ServiceDaemon(tmp_path, port=0)
        ticks: list[float] = []
        tick = daemon.scheduler.tick

        def _counting_tick():
            ticks.append(time.monotonic())
            tick()

        daemon.scheduler.tick = _counting_tick
        thread = threading.Thread(target=daemon.serve, kwargs={"quiet": True},
                                  daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 60
            while not ticks and time.monotonic() < deadline:
                time.sleep(0.01)
            assert ticks, "the daemon never ran its first round"
            time.sleep(1.0)
            assert len(ticks) == 1  # idle: nothing woke the scheduler
            host, port = daemon.address
            client = ServiceClient(f"http://{host}:{port}")
            record = client.submit(TINY)
            final = client.wait(record["job_id"], timeout=120)
            assert final["status"] == "completed"
            assert len(ticks) >= 3  # the submit and the worker's exit
        finally:
            daemon.request_stop()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert not os.path.exists(os.path.join(daemon.jobs.dir, "daemon.json"))


# ---------------------------------------------------------------------- #
# the daemon over HTTP (subprocess)
# ---------------------------------------------------------------------- #
class TestServiceHTTP:
    def test_e2e_sigkill_restart_trial_identical(self, tmp_path):
        """The acceptance test: 3 concurrent jobs, SIGKILL, restart, resume."""
        store = RunStore(tmp_path)
        proc, client = _start_daemon(tmp_path, max_jobs=2)
        try:
            records = [client.submit(spec) for spec in TRIO]
            job_ids = [record["job_id"] for record in records]
            assert len(set(job_ids)) == 3
            # let some (not all) trials land, then murder the daemon
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                rows = client.jobs()
                done = sum((row.get("progress") or {}).get("trials_done") or 0
                           for row in rows)
                if done >= 3:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("no trials completed before the kill")
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
        finally:
            _stop_daemon(proc)
        statuses = {record.job_id: record.status
                    for record in JobStore(store).list()}
        assert set(statuses) == set(job_ids)
        assert statuses != {job_id: "completed" for job_id in job_ids}, \
            "daemon died after everything finished; the test raced"

        # restart: recovery requeues the casualties, jobs run to completion
        proc, client = _start_daemon(tmp_path, max_jobs=2)
        try:
            for job_id in job_ids:
                final = client.wait(job_id, timeout=240)
                assert final["status"] == "completed"
        finally:
            _stop_daemon(proc)
        for spec, job_id in zip(TRIO, job_ids):
            serial = run_campaign(spec=dict(spec, exec={"backend": "serial"}))
            # load_result itself proves no duplicate successful records
            stored = store.load_result(f"job-{job_id}")
            assert stored.trials == serial.trials
            counts = _trial_event_counts(store, f"job-{job_id}")
            resolved_twice = {i: n for i, n in counts.items() if n > 1}
            assert not resolved_twice, \
                f"trials re-solved after restart: {resolved_twice}"

    def test_sigterm_drains_requeues_and_restart_resumes(self, tmp_path):
        """Satellite: graceful shutdown re-queues; restart = zero re-solves."""
        store = RunStore(tmp_path)
        spec = dict(BASE, stride=2)
        proc, client = _start_daemon(tmp_path, max_jobs=1)
        try:
            record = client.submit(spec)
            job_id = record["job_id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                progress = client.job(job_id).get("progress") or {}
                if (progress.get("trials_done") or 0) >= 2:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError("job never made progress")
            proc.terminate()
            rc = proc.wait(timeout=60)
            assert rc == -signal.SIGTERM  # re-delivered after the drain
        finally:
            _stop_daemon(proc)
        requeued = JobStore(store).read(job_id)
        assert requeued.status == "queued"  # drained, not lost
        checkpointed = store.completed_indices(f"job-{job_id}")
        assert checkpointed  # something durable survived
        assert not os.path.exists(
            os.path.join(str(tmp_path), "_jobs", "daemon.json"))

        proc, client = _start_daemon(tmp_path, max_jobs=1)
        try:
            final = client.wait(job_id, timeout=240)
            assert final["status"] == "completed"
        finally:
            _stop_daemon(proc)
        serial = run_campaign(spec=dict(spec, exec={"backend": "serial"}))
        assert store.load_result(f"job-{job_id}").trials == serial.trials
        counts = _trial_event_counts(store, f"job-{job_id}")
        assert all(n == 1 for n in counts.values())
        # the drained trials were never re-solved: their single event
        # predates the restart
        assert set(counts) >= checkpointed

    def test_concurrent_submissions_race_to_one_job(self, tmp_path):
        """Satellite: two clients POSTing the same spec get the same job."""
        proc, client = _start_daemon(tmp_path, max_jobs=1)
        try:
            results: list[dict] = []
            barrier = threading.Barrier(2)

            def _post():
                barrier.wait()
                results.append(ServiceClient(client.url).submit(BASE))

            threads = [threading.Thread(target=_post) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(results) == 2
            assert results[0]["job_id"] == results[1]["job_id"]
            rows = client.jobs()
            assert len(rows) == 1
            final = client.wait(results[0]["job_id"], timeout=240)
            assert final["submissions"] == 2
            assert final["status"] == "completed"
        finally:
            _stop_daemon(proc)

    def test_concurrent_distinct_submissions_are_never_lost(self, tmp_path):
        """16 distinct jobs POSTed at once from 8 threads all complete."""
        store = RunStore(tmp_path)
        specs = [dict(TINY, locations=[k]) for k in range(16)]
        proc, client = _start_daemon(tmp_path, max_jobs=2)
        try:
            job_ids: list[str] = []
            barrier = threading.Barrier(8)

            def _post(pair):
                barrier.wait()
                for spec in pair:
                    job_ids.append(ServiceClient(client.url).submit(spec)["job_id"])

            threads = [threading.Thread(target=_post, args=(specs[2 * n:2 * n + 2],))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert len(set(job_ids)) == 16
            deadline = time.monotonic() + 120
            for job_id in job_ids:
                remaining = max(deadline - time.monotonic(), 0.1)
                assert client.wait(job_id, timeout=remaining,
                                   poll_interval=0.05)["status"] == "completed"
        finally:
            _stop_daemon(proc)
        for spec in specs[:2]:
            job_id = job_fingerprint(CampaignSpec.coerce(spec))
            serial = run_campaign(spec=dict(spec, exec={"backend": "serial"}))
            assert store.load_result(f"job-{job_id}").trials == serial.trials

    def test_http_error_paths(self, tmp_path):
        proc, client = _start_daemon(tmp_path)
        try:
            health = client.health()
            assert health["status"] == "ok" and health["max_jobs"] == 2

            with pytest.raises(ServiceError) as err:
                client.submit({"problem": "poisson:8", "bogus_field": 1})
            assert err.value.status == 400

            with pytest.raises(ServiceError) as err:
                client.submit({"stride": 3})  # no problem: cannot run remote
            assert err.value.status == 400
            assert "problem" in str(err.value)

            request = urllib.request.Request(
                client.url + "/jobs", data=b"{not json", method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as raw:
                urllib.request.urlopen(request, timeout=30)
            raw.value.close()
            assert raw.value.code == 400

            # Malformed framing is answered, never dropped or left hanging;
            # an oversize body is refused before it is read.
            from repro.service.server import MAX_BODY_BYTES

            assert _raw_post_jobs(client.url, "abc") == 400
            assert _raw_post_jobs(client.url, "-1") == 400
            nested = b"[" * 200_000
            assert _raw_post_jobs(client.url, str(len(nested)), nested) == 400
            assert _raw_post_jobs(client.url, str(MAX_BODY_BYTES + 1)) == 413
            assert client.health()["status"] == "ok"

            with pytest.raises(ServiceError) as err:
                client.job("feedfeedfeedfeed")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.cancel("feedfeedfeedfeed")
            assert err.value.status == 404

            # a failing job: 409 on result, error text in the record
            record = client.submit(dict(BASE, problem="no-such-problem:9"))
            final = client.wait(record["job_id"], timeout=120)
            assert final["status"] == "failed"
            assert "no-such-problem" in final["error"]
            with pytest.raises(ServiceError) as err:
                client.result(final["job_id"])
            assert err.value.status == 409
        finally:
            _stop_daemon(proc)

    def test_removed_and_unbindable_specs_answer_400(self, tmp_path):
        proc, client = _start_daemon(tmp_path)
        try:
            for body, named in (
                    (dict(BASE, exec={"kernels": "scipy"}), "exec.kernels"),
                    (dict(BASE, solver={"method": "ft_gmres", "inner": {
                        "method": "gmres", "preconditioner": "ilu0:level"}}),
                     "solver.inner.preconditioner"),
                    # the five solver twins of campaign fields, agreeing or not
                    (dict(BASE, outer_tol=1e-6, solver={"method": "ft_gmres",
                                                        "tol": 1e-7}), "solver.tol"),
                    (dict(BASE, solver={"method": "ft_gmres", "max_outer": 30}),
                     "solver.max_outer"),
                    (dict(BASE, solver={"method": "ft_gmres", "inner": {
                        "method": "gmres", "maxiter": 10}}), "solver.inner.maxiter"),
                    (dict(BASE, solver={"method": "ft_gmres", "inner": {
                        "method": "gmres", "detector": "bound"}}), "solver.inner.detector"),
                    (dict(BASE, solver={"method": "ft_gmres", "inner": {
                        "method": "gmres", "detector_response": "flag"}}),
                     "solver.inner.detector_response"),
                    # deleted settings
                    (dict(BASE, solver={"method": "ft_gmres", "lsq_tol": 1e-3}),
                     "solver.lsq_tol"),
                    (dict(BASE, solver={"method": "ft_gmres", "rank_tol": 1e-3}),
                     "solver.rank_tol"),
                    (dict(BASE, solver={"method": "ft_gmres", "bound_method": "exact"}),
                     "solver.bound_method"),
                    (dict(BASE, detector={"name": "bound", "slack": 2}), "slack"),
                    (dict(BASE, detector={"name": "bound", "check_nonfinite": False}),
                     "check_nonfinite"),
                    (dict(BASE, problem={"name": "circuit", "n_nodes": 50,
                                         "jacobi_equilibrate": False}),
                     "jacobi_equilibrate")):
                with pytest.raises(ServiceError) as err:
                    client.submit(body)
                assert err.value.status == 400
                assert named in str(err.value)
            assert client.jobs() == []
        finally:
            _stop_daemon(proc)

    def test_heartbeat_interval_and_unbindable_fault_class_answer_400(self, tmp_path):
        proc, client = _start_daemon(tmp_path)
        try:
            for body, named in (
                    (dict(BASE, exec={"heartbeat_interval": 0.1}),
                     "exec.heartbeat_interval"),
                    (dict(BASE, fault_classes={"a": {"name": "scaling", "facto": 2.0}}),
                     "fault_classes.a"),
                    (dict(BASE, fault_classes={"a": "bitflip:999"}), "fault_classes.a"),
                    (dict(BASE, fault_classes={"a": {"name": "bitflip", "rng": 5}}),
                     "fault_classes.a")):
                with pytest.raises(ServiceError) as err:
                    client.submit(body)
                assert err.value.status == 400
                assert named in str(err.value)
            assert client.jobs() == []
        finally:
            _stop_daemon(proc)

    def test_cancel_drains_then_resubmit_finishes(self, tmp_path):
        store = RunStore(tmp_path)
        spec = dict(BASE, stride=1)  # long enough to cancel mid-flight
        proc, client = _start_daemon(tmp_path, max_jobs=1)
        try:
            record = client.submit(spec)
            job_id = record["job_id"]
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                progress = client.job(job_id).get("progress") or {}
                if (progress.get("trials_done") or 0) >= 1:
                    break
                time.sleep(0.05)
            cancelled = client.cancel(job_id)
            assert cancelled["cancel_requested"] or \
                cancelled["status"] in ("cancelled", "completed")
            final = client.wait(job_id, timeout=120)
            assert final["status"] in ("cancelled", "completed")
            if final["status"] == "cancelled":
                done = len(store.completed_indices(f"job-{job_id}"))
                total = store.manifest(f"job-{job_id}").total_trials
                assert done < total  # actually stopped early
                resubmitted = client.submit(spec)
                assert resubmitted["status"] == "queued"
                assert resubmitted["submissions"] == 2
                final = client.wait(job_id, timeout=240)
                assert final["status"] == "completed"
            serial = run_campaign(spec=dict(spec, exec={"backend": "serial"}))
            assert store.load_result(f"job-{job_id}").trials == serial.trials
        finally:
            _stop_daemon(proc)

    def test_event_stream_replays_completed_run(self, tmp_path):
        proc, client = _start_daemon(tmp_path)
        try:
            record = client.submit(BASE)
            job_id = record["job_id"]
            events = list(client.events(job_id))  # blocks until terminal
            kinds = [event["kind"] for event in events]
            assert kinds.count("campaign_started") == 1
            assert kinds.count("trial_completed") == 21
            assert kinds[-1] == "job_update"
            assert events[-1]["data"]["status"] == "completed"
            # a second stream replays the full history from the file
            replay = list(client.events(job_id))
            assert [e["kind"] for e in replay].count("trial_completed") == 21
        finally:
            _stop_daemon(proc)

    def test_service_events_bus_sees_job_lifecycle(self, tmp_path):
        proc, client = _start_daemon(tmp_path)
        try:
            seen: list[dict] = []

            def _listen():
                for event in client.service_events():
                    seen.append(event)
                    statuses = [e["data"].get("status") for e in seen
                                if e["kind"] == "job_update"]
                    if "completed" in statuses:
                        return

            listener = threading.Thread(target=_listen, daemon=True)
            listener.start()
            time.sleep(0.3)
            client.submit(BASE)
            listener.join(timeout=120)
            assert not listener.is_alive()
            statuses = [e["data"]["status"] for e in seen
                        if e["kind"] == "job_update"]
            assert "queued" in statuses or "running" in statuses
            assert "completed" in statuses
        finally:
            _stop_daemon(proc)

    def test_second_daemon_on_same_store_is_refused(self, tmp_path):
        proc, client = _start_daemon(tmp_path)
        try:
            second = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--store",
                 str(tmp_path), "--port", "0"],
                env=_env(), timeout=60, capture_output=True)
            assert second.returncode == 1
            assert b"already serves" in second.stderr
        finally:
            _stop_daemon(proc)


# ---------------------------------------------------------------------- #
# the CLI surface
# ---------------------------------------------------------------------- #
class TestServiceCLI:
    def test_runs_subcommand_lists_the_store(self, tmp_path):
        run_campaign(spec=BASE, store=RunStore(tmp_path), run_id="cli-run")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "runs", "--store", str(tmp_path)],
            env=_env(), timeout=120, capture_output=True, text=True)
        assert proc.returncode == 0
        assert "cli-run" in proc.stdout
        assert "21/21" in proc.stdout
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "runs", "--store", str(tmp_path),
             "--json"],
            env=_env(), timeout=120, capture_output=True, text=True)
        rows = json.loads(proc.stdout)
        assert rows[0]["run_id"] == "cli-run"

    def test_experiment_commands_still_parse(self):
        """The service dispatch must not swallow the experiment CLI."""
        from repro.experiments.runner import build_parser

        args = build_parser().parse_args(["table1", "--scale", "tiny"])
        assert args.experiments == ["table1"]

    def test_removed_poll_interval_exits_2(self, tmp_path):
        config = tmp_path / "service.json"
        config.write_text(json.dumps({"port": 0, "poll_interval": 0.05}))
        for extra in (["--poll-interval", "0.05"], ["--config", str(config)]):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--store",
                 str(tmp_path / "store"), "--port", "0", *extra],
                env=_env(), timeout=60, capture_output=True, text=True)
            assert proc.returncode == 2, proc.stderr
            assert "poll" in proc.stderr
        assert "--poll-interval" not in subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--help"], env=_env(),
            timeout=120, capture_output=True, text=True).stdout

    def test_api_serve_facade_exists(self):
        from repro import api

        assert callable(api.serve)
        assert api.ServiceSpec is ServiceSpec

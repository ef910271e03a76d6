"""The sharded supervisor, its chaos harness, and the legacy shard layout.

The acceptance bar: a sharded campaign whose workers are murdered mid-run
by :class:`~repro.faults.chaos.ChaosPolicy` completes via supervisor
restarts with zero lost and zero duplicated trials, its result
trial-identical to an undisturbed serial reference; a poison trial is
quarantined as an error record after ``max_retries`` without wedging its
shard.  The supervisor is the only writer of a run: workers that outlive
it write nothing, so its run stays resumable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_campaign
from repro.exec.executor import BackendKnobError, resolve_backend
from repro.exec.spec import TrialSpec
from repro.exec.supervisor import (
    DEFAULT_MAX_RETRIES,
    ShardedSupervisor,
    SupervisorDrained,
    partition_shards,
)
from repro.faults.campaign import FaultCampaign, TrialRecord
from repro.faults.chaos import ChaosError, ChaosPolicy
from repro.gallery.problems import poisson_problem
from repro.results.store import (
    RunManifest,
    RunStore,
    RunStoreError,
    read_trial_file,
    trials_path,
)
from repro.specs import CampaignSpec, ExecutionSpec, SpecError

# A tiny campaign: 3 fault classes x 7 locations = 21 trials, ~1 s serial.
BASE = dict(problem="poisson:8", inner_iterations=10, max_outer=30, stride=6)


def spec_with(**exec_knobs) -> dict:
    return dict(BASE, exec=exec_knobs)


@pytest.fixture(scope="module")
def serial_reference():
    """The undisturbed serial run every chaos result must equal."""
    return run_campaign(spec=spec_with(backend="serial"))


# ---------------------------------------------------------------------- #
# shard partitioning (hypothesis)
# ---------------------------------------------------------------------- #
def _specs(n: int) -> list[TrialSpec]:
    return [TrialSpec(index=i, fault_class="none", aggregate_inner_iteration=i)
            for i in range(n)]


class TestPartitionShards:
    @given(n=st.integers(min_value=0, max_value=200),
           shards=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_disjoint_covering_ordered(self, n, shards):
        specs = _specs(n)
        blocks = partition_shards(specs, shards)
        assert len(blocks) == shards
        flat = [spec for block in blocks for spec in block]
        assert flat == specs  # covering, disjoint, order-preserving

    @given(n=st.integers(min_value=1, max_value=200),
           shards=st.integers(min_value=1, max_value=32))
    @settings(max_examples=200, deadline=None)
    def test_balanced(self, n, shards):
        sizes = [len(block) for block in partition_shards(_specs(n), shards)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == n

    @given(n=st.integers(min_value=1, max_value=100),
           shards=st.integers(min_value=1, max_value=8),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_stable_under_resume(self, n, shards, data):
        """Re-partitioning any casualty subset is deterministic."""
        specs = _specs(n)
        keep = data.draw(st.sets(st.integers(0, n - 1)))
        remaining = [s for s in specs if s.index in keep]
        once = partition_shards(remaining, shards)
        again = partition_shards(list(remaining), shards)
        assert once == again

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards must be positive"):
            partition_shards(_specs(3), 0)


# ---------------------------------------------------------------------- #
# chaos kill-points: merged result must be trial-identical to serial
# ---------------------------------------------------------------------- #
FIRST, MID, LAST = 0, 10, 20  # trial indices in the 21-trial campaign

CHAOS_CASES = {
    "sigkill-first-trial": ChaosPolicy(kill_before={FIRST: 1}),
    "sigkill-mid-shard": ChaosPolicy(kill_before={MID: 1}),
    "sigkill-last-trial": ChaosPolicy(kill_before={LAST: 1}),
    "sigkill-during-append": ChaosPolicy(kill_during_append={MID: 1}),
    "sigkill-after-append": ChaosPolicy(kill_after_append={MID: 1}),
    "raise-mid-shard": ChaosPolicy(raise_before={MID: 1}),
    "two-shards-hit": ChaosPolicy(kill_before={FIRST: 1, LAST: 1},
                                  kill_after_append={MID: 1}),
}


class TestChaosKillPoints:
    @pytest.mark.parametrize("case", sorted(CHAOS_CASES))
    def test_merged_result_is_trial_identical(self, case, serial_reference,
                                              tmp_path):
        store = RunStore(tmp_path)
        result = run_campaign(spec=spec_with(workers=2), store=store,
                              run_id="chaos", chaos=CHAOS_CASES[case])
        assert result.trials == serial_reference.trials  # zero lost, zero dup
        assert [t.status for t in result.trials] == \
            [t.status for t in serial_reference.trials]
        assert [t.outer_iterations for t in result.trials] == \
            [t.outer_iterations for t in serial_reference.trials]
        # the run completed: shards were compacted into the flat layout
        assert store.shard_ids("chaos") == []
        assert store.manifest("chaos").status == "complete"
        loaded = store.load_result("chaos")
        assert loaded.trials == serial_reference.trials

    def test_kill_before_counts_a_retry(self, serial_reference, tmp_path):
        result = run_campaign(spec=spec_with(workers=2),
                              store=RunStore(tmp_path), run_id="r",
                              chaos=ChaosPolicy(kill_before={MID: 1}))
        assert result.trials == serial_reference.trials
        assert result.query().retry_count() == 1
        (retried,) = [t for t in result.trials if t.retries]
        assert retried.status != "error"  # the retry healed it

    def test_kill_after_durable_append_never_duplicates(self, serial_reference,
                                                        tmp_path):
        """A kill after the append landed blames nobody and re-runs nothing."""
        result = run_campaign(spec=spec_with(workers=2),
                              store=RunStore(tmp_path), run_id="r",
                              chaos=ChaosPolicy(kill_after_append={MID: 1}))
        assert result.trials == serial_reference.trials
        assert result.query().retry_count() == 0

    def test_storeless_sharded_campaign(self, serial_reference):
        """Without a store the chaos markers live in a temporary directory."""
        result = run_campaign(spec=spec_with(workers=2),
                              chaos=ChaosPolicy(kill_before={MID: 1}))
        assert result.trials == serial_reference.trials


# ---------------------------------------------------------------------- #
# quarantine
# ---------------------------------------------------------------------- #
class TestQuarantine:
    def test_poison_trial_quarantined_without_wedging_shard(
            self, serial_reference, tmp_path):
        store = RunStore(tmp_path)
        # kill trial MID's worker more times than max_retries allows
        result = run_campaign(spec=spec_with(workers=2, max_retries=2),
                              store=store, run_id="p",
                              chaos=ChaosPolicy(kill_before={MID: 5}))
        poison = [t for t in result.trials if t.status == "error"]
        assert len(poison) == 1
        assert poison[0].error.startswith("poison")
        assert poison[0].retries == 2
        # every OTHER trial in the poisoned shard still completed
        healthy = [t for t in result.trials if t.status != "error"]
        assert len(healthy) == len(serial_reference.trials) - 1
        # bookkeeping surfaced in the summary and the manifest
        totals = result.summary()
        assert sum(row["quarantined"] for row in totals.values()) == 1
        assert sum(row["errors"] for row in totals.values()) == 1
        supervisor = store.manifest("p").extra["supervisor"]
        assert supervisor["quarantined"] == [MID]
        assert supervisor["retries"] == {str(MID): 2}

    def test_chaos_free_resume_heals_the_poison_trial(self, serial_reference,
                                                      tmp_path):
        store = RunStore(tmp_path)
        run_campaign(spec=spec_with(workers=2, max_retries=2), store=store,
                     run_id="p", chaos=ChaosPolicy(kill_before={MID: 5}))
        healed = run_campaign(spec=spec_with(workers=2, max_retries=2),
                              store=store, run_id="p", resume=True)
        assert healed.trials == serial_reference.trials
        assert store.shard_ids("p") == []  # compacted after completion

    def test_default_max_retries(self):
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30)
        supervisor = ShardedSupervisor(campaign, shards=2)
        assert supervisor.max_retries == DEFAULT_MAX_RETRIES


# ---------------------------------------------------------------------- #
# hard timeouts
# ---------------------------------------------------------------------- #
class TestHardTimeout:
    def test_sharded_backend_kills_stuck_worker(self, serial_reference,
                                                tmp_path):
        store = RunStore(tmp_path)
        result = run_campaign(
            spec=spec_with(backend="sharded", workers=2, trial_timeout=0.5),
            store=store, run_id="h", chaos=ChaosPolicy(hang_before={MID: 60.0}))
        (timed_out,) = [t for t in result.trials if t.status == "error"]
        assert timed_out.error.startswith("hard timeout")
        assert len(result.trials) == len(serial_reference.trials)
        # resume (the hang is one-shot chaos) heals the casualty
        healed = run_campaign(spec=spec_with(workers=2, trial_timeout=0.5),
                              store=store, run_id="h", resume=True)
        assert healed.trials == serial_reference.trials

    def test_auto_selected_sharded_hard_enforces_trial_timeout(
            self, serial_reference):
        """A worker count alone selects the supervisor, so the budget is
        hard-enforced without naming a backend."""
        result = run_campaign(
            spec=spec_with(workers=2, trial_timeout=0.5),
            chaos=ChaosPolicy(hang_before={MID: 60.0}))
        (timed_out,) = [t for t in result.trials if t.status == "error"]
        assert timed_out.error.startswith("hard timeout")
        healthy = [t for t in result.trials if t.status != "error"]
        assert len(healthy) == len(serial_reference.trials) - 1

    def test_serial_backend_keeps_the_soft_check(self):
        result = run_campaign(spec=spec_with(backend="serial",
                                             trial_timeout=1e-9))
        assert all(t.status == "error" for t in result.trials)
        assert all(t.error.startswith("soft timeout") for t in result.trials)


# ---------------------------------------------------------------------- #
# a shard that fails to start
# ---------------------------------------------------------------------- #
def _sharded_campaign_error(queue) -> None:
    """Run a sharded campaign and report how it ended (a forked child's main)."""
    try:
        run_campaign(spec=spec_with(workers=2))
    except BaseException as exc:  # noqa: BLE001 - the parent asserts on it
        queue.put(f"{type(exc).__name__}: {exc}")
    else:
        queue.put("completed")


class TestShardStartFailure:
    def test_daemonic_parent_reports_why_no_shard_started(self):
        """A daemonic process may not have children: the campaign fails with
        that cause, not with the cleanup's "can only join a started process".
        (The service forks its job workers non-daemonic, so they can.)"""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        queue = ctx.SimpleQueue()
        proc = ctx.Process(target=_sharded_campaign_error, args=(queue,),
                           daemon=True)
        proc.start()
        proc.join(timeout=120)
        assert not proc.is_alive()
        assert not queue.empty()
        outcome = queue.get()
        assert "daemonic processes are not allowed to have children" in outcome
        assert "can only join" not in outcome


# ---------------------------------------------------------------------- #
# drain
# ---------------------------------------------------------------------- #
class TestDrain:
    def test_programmatic_drain_checkpoints_every_shard(self, tmp_path,
                                                         monkeypatch):
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30, exec={"workers": 2})
        plan = campaign.plan(stride=6)
        supervisors = []
        init = ShardedSupervisor.__init__

        def capture(self, *args, **kwargs):
            init(self, *args, **kwargs)
            supervisors.append(self)

        monkeypatch.setattr(ShardedSupervisor, "__init__", capture)
        # Each shard (indices 0-10 and 11-20) stalls on its fourth trial, so
        # the drain lands mid-campaign however fast the solves are.
        records = campaign.iter_records(
            plan.specs, run_dir=str(tmp_path),
            chaos=ChaosPolicy(hang_before={3: 1.0, 14: 1.0}))
        yielded = []
        with pytest.raises(SupervisorDrained):
            for index, _ in records:
                yielded.append(index)
                if len(yielded) == 4:
                    supervisors[0].request_drain()
        assert 4 <= len(yielded) < len(plan.specs)
        pairs, _, torn = read_trial_file(trials_path(str(tmp_path)))
        assert not torn
        # exactly the yielded records are durable: nothing lost, nothing extra
        assert sorted(index for index, _ in pairs) == sorted(yielded)

    def test_sigterm_drains_and_resume_reruns_only_casualties(self, tmp_path):
        """SIGTERM mid-campaign = graceful checkpoint + exit; resume finishes."""
        script = """
import os, signal, sys
from repro.api import run_campaign
store_dir = sys.argv[1]
spec = {"problem": "poisson:8", "inner_iterations": 10, "max_outer": 30,
        "stride": 2, "exec": {"workers": 2}}

def on_event(event):
    # mid-campaign: ask for a graceful drain
    if event.kind == "trial_completed" and event.data["done"] == 5:
        os.kill(os.getpid(), signal.SIGTERM)

run_campaign(spec=spec, store=store_dir, run_id="drain", sink=on_event)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src"),
             env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, timeout=120, capture_output=True)
        assert proc.returncode == -signal.SIGTERM  # re-delivered after drain
        store = RunStore(tmp_path)
        assert store.manifest("drain").status == "running"
        checkpointed = len(store.completed_indices("drain"))
        assert checkpointed > 0  # something durable survived the SIGTERM
        serial = run_campaign(spec=dict(BASE, stride=2,
                                        exec={"backend": "serial"}))
        assert checkpointed < len(serial.trials)  # ... but not everything
        resumed = run_campaign(spec=dict(BASE, stride=2,
                                         exec={"workers": 2}),
                               store=store, run_id="drain", resume=True)
        assert resumed.trials == serial.trials
        assert store.manifest("drain").status == "complete"


# ---------------------------------------------------------------------- #
# one writer per run: the supervisor persists, workers only send
# ---------------------------------------------------------------------- #
def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    return env


def _files(directory: str) -> dict[str, int]:
    """``{relative path: size}`` of every file under ``directory``."""
    return {os.path.relpath(os.path.join(root, name), directory):
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(directory) for name in names}


#: A 210-trial sharded campaign whose process SIGKILLs itself once 10
#: trials are stored, leaving its two workers orphaned mid-block.
_ORPHAN_SPEC = {"problem": "poisson:12", "inner_iterations": 10,
                "max_outer": 30, "stride": 1}
_ORPHAN_SCRIPT = f"""
import os, signal, sys
from repro.api import run_campaign

def on_event(event):
    if event.kind == "trial_completed" and event.data["done"] == 10:
        os.kill(os.getpid(), signal.SIGKILL)

run_campaign(spec=dict({_ORPHAN_SPEC!r}, exec={{"workers": 2}}),
             store=sys.argv[1], run_id="orphans", sink=on_event)
"""


class TestOneWriter:
    def test_sharded_run_writes_only_the_flat_trial_file(self, tmp_path):
        """No ``shard-<k>/`` directory and no ``heartbeat.json``, mid-run or
        after: the run directory holds what a serial run's does."""
        store = RunStore(tmp_path)
        seen: list[dict] = []

        def look(event):
            if event.kind == "trial_completed":
                seen.append(_files(store.run_path("r")))

        result = run_campaign(spec=spec_with(workers=2), store=store,
                              run_id="r", sink=look)
        assert len(seen) == len(result.trials)
        for files in seen + [_files(store.run_path("r"))]:
            assert not [path for path in files
                        if path.startswith("shard-")
                        or os.path.basename(path) == "heartbeat.json"]
        assert store.load_result("r").trials == result.trials

    def test_storeless_run_without_chaos_makes_no_temporary_directory(
            self, serial_reference, monkeypatch):
        made = []
        mkdtemp = tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda *a, **k: made.append(mkdtemp(*a, **k)) or made[-1])
        result = run_campaign(spec=spec_with(workers=2))
        assert result.trials == serial_reference.trials
        assert made == []

    def test_sigkilled_supervisor_leaves_a_resumable_run(self, tmp_path):
        """The orphaned workers die on their next send and never write: an
        immediate resume completes, and the run equals the serial one."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT, str(tmp_path)],
            env=_src_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        assert proc.wait(timeout=120) == -signal.SIGKILL
        store = RunStore(tmp_path)
        run_dir = store.run_path("orphans")
        at_kill = _files(run_dir)
        stored_at_kill, _, _ = read_trial_file(trials_path(run_dir))
        rerun = []
        resumed = run_campaign(
            spec=dict(_ORPHAN_SPEC, exec={"workers": 2}), store=store,
            run_id="orphans", resume=True,
            sink=lambda e: rerun.append(e) if e.kind == "trial_completed" else None)
        serial = run_campaign(spec=dict(_ORPHAN_SPEC, exec={"backend": "serial"}))
        assert resumed.trials == serial.trials
        assert store.load_result("orphans").trials == serial.trials
        # Nothing but the resume wrote after the kill: the trial file holds
        # the lines stored at the kill plus one per re-run trial, and no
        # other file grew.
        final, _, torn = read_trial_file(trials_path(run_dir))
        assert not torn
        assert len(final) == len(stored_at_kill) + len(rerun)
        files = _files(run_dir)
        for path in set(files) - {"manifest.json", "trials.jsonl"}:
            assert files[path] == at_kill.get(path, 0), path


# ---------------------------------------------------------------------- #
# the legacy shard store layout (runs written by older releases)
# ---------------------------------------------------------------------- #
def _record(index: int, *, status: str = "converged",
            spec_hash: str | None = "hash", error: str | None = None,
            retries: int = 0) -> TrialRecord:
    return TrialRecord(
        fault_class="none", fault_description="none",
        aggregate_inner_iteration=index, mgs_position="inner",
        outer_iterations=-1 if status == "error" else 3,
        total_inner_iterations=-1 if status == "error" else 30,
        converged=status != "error", status=status,
        residual_norm=float("nan") if status == "error" else 1e-11,
        faults_injected=1, faults_detected=0, detector_enabled=False,
        error=error, spec_hash=spec_hash, retries=retries)


def _manifest(run_id: str, total: int) -> RunManifest:
    return RunManifest(
        run_id=run_id, spec={}, spec_hash="hash", problem_name="p",
        repro_version="0", seed=None, mgs_position="inner",
        inner_iterations=10, detector_enabled=False, failure_free_outer=3,
        failure_free_residual=1e-11, locations=list(range(total)),
        fault_classes=["none"], total_trials=total)


def _write_shard(store: RunStore, run_id: str, shard: int, rows: list,
                 torn_tail: bytes = b"") -> str:
    shard_dir = store.shard_path(run_id, shard)
    os.makedirs(shard_dir, exist_ok=True)
    path = os.path.join(shard_dir, "trials.jsonl")
    with open(path, "ab") as handle:
        for index, record in rows:
            handle.write((json.dumps({"index": index, **record.to_dict()})
                          + "\n").encode("utf-8"))
        handle.write(torn_tail)
    return path


class TestShardStore:
    def test_read_trials_merges_shards(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 4))
        _write_shard(store, "m", 0, [(0, _record(0)), (1, _record(1))])
        _write_shard(store, "m", 1, [(2, _record(2)), (3, _record(3))])
        pairs, torn = store.read_trials("m")
        assert [index for index, _ in pairs] == [0, 1, 2, 3]
        assert not torn
        assert store.completed_indices("m") == {0, 1, 2, 3}

    def test_recover_truncates_torn_tails_per_shard(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 4))
        clean = _write_shard(store, "m", 0, [(0, _record(0))])
        torn = _write_shard(store, "m", 1, [(1, _record(1))],
                            torn_tail=b'{"index": 2, "half')
        clean_size = os.path.getsize(clean)
        pairs = store.recover("m")
        assert [index for index, _ in pairs] == [0, 1]
        assert os.path.getsize(clean) == clean_size  # untouched
        reread, _, still_torn = read_trial_file(torn)
        assert not still_torn and len(reread) == 1  # healed

    def test_merge_shards_compacts_and_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 3))
        _write_shard(store, "m", 0,
                     [(1, _record(1, status="error", error="crash")),
                      (0, _record(0))])
        _write_shard(store, "m", 1, [(2, _record(2)), (1, _record(1))])
        assert store.merge_shards("m") == 2
        assert store.shard_ids("m") == []
        pairs, torn = store.read_trials("m")
        # flat layout, canonical index order, error superseded
        assert [index for index, _ in pairs] == [0, 1, 2]
        assert all(record.status != "error" for _, record in pairs)
        assert store.merge_shards("m") == 0  # idempotent no-op

    def test_merge_shards_refuses_foreign_records(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 1))
        _write_shard(store, "m", 0, [(0, _record(0, spec_hash="other"))])
        with pytest.raises(RunStoreError, match="different campaign"):
            store.merge_shards("m")

    def test_error_then_success_supersedes_in_either_order(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 1))
        # the SUCCESS lands in a lower-numbered shard than the stale error
        # (a resume re-partitions casualties): success is read FIRST
        _write_shard(store, "m", 0, [(0, _record(0))])
        _write_shard(store, "m", 3,
                     [(0, _record(0, status="error", error="crash"))])
        assert store.completed_indices("m") == {0}
        store.merge_shards("m")
        pairs, _ = store.read_trials("m")
        assert len(pairs) == 1 and pairs[0][1].status != "error"

    def test_duplicate_successes_still_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(_manifest("m", 1))
        _write_shard(store, "m", 0, [(0, _record(0))])
        _write_shard(store, "m", 1, [(0, _record(0))])
        with pytest.raises(RunStoreError, match="duplicate trial index"):
            store.completed_indices("m")


# ---------------------------------------------------------------------- #
# chaos policy mechanics
# ---------------------------------------------------------------------- #
class TestChaosPolicy:
    def test_firings_are_one_shot_across_restarts(self, tmp_path):
        chaos = ChaosPolicy(raise_before={3: 2}).bound_to(str(tmp_path))
        fired = 0
        for _ in range(5):  # five "worker lifetimes"
            try:
                chaos.on_trial_start(3)
            except ChaosError:
                fired += 1
        assert fired == 2  # times=2 means exactly two firings, ever

    def test_unbound_policy_refuses_to_fire(self):
        with pytest.raises(RuntimeError, match="unbound"):
            ChaosPolicy(kill_before={0: 1}).on_trial_start(0)

    def test_schedules_validate(self):
        with pytest.raises(ValueError, match="times must be >= 1"):
            ChaosPolicy(kill_before={0: 0})


# ---------------------------------------------------------------------- #
# reliability surfaced in analysis
# ---------------------------------------------------------------------- #
class TestQueryReliability:
    def test_errors_and_retry_count(self):
        from repro.results.query import TrialQuery

        records = [_record(0), _record(1, status="error", error="crash",
                                       retries=2),
                   _record(2, status="error", error="poison: dead"),
                   _record(3, retries=1)]
        q = TrialQuery(records)
        assert len(q.errors()) == 2
        assert q.retry_count() == 3
        assert q.errors().count(
            lambda t: (t.error or "").startswith("poison")) == 1


# ---------------------------------------------------------------------- #
# plumbing: spec, knob validation, registry, CLI
# ---------------------------------------------------------------------- #
class TestPlumbing:
    def test_execution_spec_round_trip(self):
        spec = ExecutionSpec(backend="sharded", workers=4, max_retries=2)
        assert ExecutionSpec.from_dict(spec.to_dict()) == spec
        kwargs = spec.executor_kwargs()
        assert kwargs["workers"] == 4
        assert kwargs["max_retries"] == 2

    def test_shards_auto_selects_sharded_backend(self):
        """The shard count is ``workers``: more than one selects sharded."""
        campaign = FaultCampaign(poisson_problem(8), inner_iterations=10,
                                 max_outer=30, exec={"workers": 2})
        assert campaign.backend == "sharded"
        assert campaign.spec.exec.workers == 2

    def test_knob_conflicts_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pytest.raises(BackendKnobError, match="mutually exclusive"):
            resolve_backend(workers=2, batch_size=4)
        with pytest.raises(BackendKnobError, match="sharded"):
            resolve_backend("batched", workers=2)
        with pytest.raises(BackendKnobError, match="sharded"):
            resolve_backend(max_retries=3)
        with pytest.raises(BackendKnobError, match="sharded"):
            resolve_backend("serial", max_retries=3)

    def test_spec_layer_rejects_conflicts_too(self):
        with pytest.raises(SpecError):
            ExecutionSpec(backend="batched", workers=2)
        with pytest.raises(SpecError):
            ExecutionSpec(workers=-1)
        with pytest.raises(SpecError):
            ExecutionSpec.from_dict({"backend": "sharded", "heartbeat_interval": 0.0})

    def test_runner_flags_map_to_exec_spec(self):
        from repro.experiments.runner import build_parser, build_campaign_spec

        parser = build_parser()
        args = parser.parse_args(
            ["fig3", "--workers", "3", "--max-retries", "2", "--backend", "sharded"])
        spec = build_campaign_spec(args)
        assert spec.exec.backend == "sharded"
        assert spec.exec.workers == 3
        assert spec.exec.max_retries == 2

    def test_campaign_spec_accepts_supervisor_knobs(self):
        spec = CampaignSpec.coerce(dict(BASE, exec={"workers": 2,
                                                    "max_retries": 5}))
        assert spec.exec.workers == 2
        assert spec.exec.max_retries == 5

"""Crash/resume determinism of the persistent run store.

The contract under test (the PR's acceptance criterion): a campaign
interrupted at *any* trial boundary and resumed via
``run_campaign(..., store=..., resume=True)`` yields a ``CampaignResult``
trial-identical to an uninterrupted run, on all three execution backends —
exactly for serial/sharded, and per the batched engine's documented
1e-10 residual contract (a resumed batched run re-batches the remaining
trials, so reduction orders may legally differ at that level).  Includes the
corrupted-last-line JSONL recovery case and the zero-solve regeneration of
figure data from a stored run.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.api import run_campaign
from repro.core import batched as batched_mod
from repro.experiments import runner as runner_mod
from repro.faults import campaign as campaign_mod
from repro.gallery.problems import poisson_problem
from repro.results.store import RunStore, RunStoreError
from repro.specs import CampaignSpec


#: Small but non-trivial campaign: 3 fault classes x 4 locations = 12 trials.
SPEC = dict(inner_iterations=5, max_outer=25, locations=[0, 2, 5, 9])


class _ForbiddenSolve(BaseException):
    """Raised by a forbidden solve; not an ``Exception``, so the campaign's
    crash isolation cannot turn it into an error record."""


def _forbid_solves(monkeypatch, message):
    """Make every nested solve a campaign can start fail: the serial solver
    behind the baseline and each trial, and the batched engine."""
    def forbidden(*args, **kwargs):  # pragma: no cover - guard
        raise _ForbiddenSolve(message)

    monkeypatch.setattr(campaign_mod, "ft_gmres", forbidden)
    monkeypatch.setattr(batched_mod, "batched_ft_gmres", forbidden)


#: Execution-backend grid (knobs per backend, as the executor demands).
BACKENDS = [
    ("serial", {}),
    ("sharded", {"workers": 2}),
    ("batched", {"batch_size": 3}),
]


@pytest.fixture(scope="module")
def problem():
    return poisson_problem(8)


@pytest.fixture(scope="module")
def reference(problem):
    """The uninterrupted serial reference result."""
    return run_campaign(problem, dict(SPEC))


class _InterruptAfter(Exception):
    pass


class _Bomb:
    """A sink that raises after n trial_completed events (mid-campaign kill)."""

    def __init__(self, n: int):
        self.n = n

    def __call__(self, event):
        if event.kind == "trial_completed" and event.data["done"] >= self.n:
            raise _InterruptAfter


def _spec_with(backend, knobs) -> dict:
    spec = dict(SPEC)
    if backend != "serial" or knobs:
        spec["exec"] = {"backend": backend, **knobs}
    return spec


def assert_trials_match(got, want, *, batched: bool):
    """Trial-identity, with the batched engine's 1e-10 residual contract."""
    assert len(got.trials) == len(want.trials)
    assert got.failure_free_outer == want.failure_free_outer
    assert got.failure_free_residual == want.failure_free_residual
    if not batched:
        assert got.trials == want.trials
        return
    for g, w in zip(got.trials, want.trials):
        assert dataclasses.replace(g, residual_norm=0.0) == \
            dataclasses.replace(w, residual_norm=0.0)
        if np.isnan(w.residual_norm):
            assert np.isnan(g.residual_norm)
        else:
            assert abs(g.residual_norm - w.residual_norm) <= \
                1e-10 * max(1.0, abs(w.residual_norm))


# ====================================================================== #
# the headline guarantee
# ====================================================================== #
class TestCrashResumeDeterminism:
    @pytest.mark.parametrize("backend,knobs", BACKENDS)
    @pytest.mark.parametrize("kill_after", [1, 5, 11])
    def test_interrupt_resume_is_trial_identical(self, problem, reference,
                                                 tmp_path, backend, knobs,
                                                 kill_after):
        store = RunStore(tmp_path)
        spec = _spec_with(backend, knobs)
        with pytest.raises(_InterruptAfter):
            run_campaign(problem, dict(spec), store=store, run_id="r",
                         sink=_Bomb(kill_after))
        persisted = store.completed_indices("r")
        # at least the observed trials are on disk; the sharded/batched
        # backends may have persisted more (writes precede observation)
        assert len(persisted) >= kill_after
        assert store.manifest("r").status == "running"

        resumed = run_campaign(problem, dict(spec), store=store, run_id="r",
                               resume=True)
        assert_trials_match(resumed, reference, batched=(backend == "batched"))
        assert store.manifest("r").status == "complete"
        # the merged run is fully persisted and loads back identically
        loaded = store.load_result("r")
        assert loaded.trials == resumed.trials

    @pytest.mark.parametrize("backend,knobs", BACKENDS)
    def test_uninterrupted_stored_run_matches_unstored(self, problem,
                                                       reference, tmp_path,
                                                       backend, knobs):
        """Persisting a run does not perturb it."""
        store = RunStore(tmp_path)
        result = run_campaign(problem, _spec_with(backend, knobs), store=store)
        assert_trials_match(result, reference, batched=(backend == "batched"))
        run_id = store.run_ids()[0]
        assert store.load_result(run_id).trials == result.trials

    def test_resume_after_torn_tail(self, problem, reference, tmp_path):
        """Crash mid-append: the torn JSONL line is dropped and re-run."""
        store = RunStore(tmp_path)
        with pytest.raises(_InterruptAfter):
            run_campaign(problem, dict(SPEC), store=store, run_id="r",
                         sink=_Bomb(4))
        trials_path = os.path.join(store.run_path("r"), "trials.jsonl")
        with open(trials_path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 4, "fault_class": "larg')  # torn write
        before = len(store.read_trials("r")[0])
        resumed = run_campaign(problem, dict(SPEC), store=store, run_id="r",
                               resume=True)
        assert resumed.trials == reference.trials
        pairs, torn = store.read_trials("r")
        assert not torn and len(pairs) == len(reference.trials) >= before

    def test_resume_of_complete_run_solves_nothing(self, problem, reference,
                                                   tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        run_campaign(problem, dict(SPEC), store=store, run_id="r")

        _forbid_solves(monkeypatch, "resume of a complete run must not solve")
        resumed = run_campaign(problem, dict(SPEC), store=store, run_id="r",
                               resume=True)
        assert resumed.trials == reference.trials

    def test_resume_with_trials_left_solves_the_baseline_once(self, problem, reference,
                                                              tmp_path, monkeypatch):
        store, spec = RunStore(tmp_path), _spec_with("serial", {})
        with pytest.raises(_InterruptAfter):
            run_campaign(problem, spec, store=store, run_id="r", sink=_Bomb(5))
        solve = campaign_mod.ft_gmres
        calls = []

        def counting(*args, injector=None, state=None, **kwargs):
            calls.append((injector, state.iterations if state else None))
            return solve(*args, injector=injector, state=state, **kwargs)

        monkeypatch.setattr(campaign_mod, "ft_gmres", counting)
        resumed = run_campaign(problem, spec, store=store, run_id="r", resume=True)
        assert resumed.trials == reference.trials
        # One baseline solve keeping its state, then the 7 trials left, each
        # started from that state at the outer iteration its location is in.
        last = reference.failure_free_outer - 1
        assert calls[0] == (None, 0)
        assert None not in [injector for injector, _ in calls[1:]]
        assert [start for _, start in calls[1:]] == [
            min(loc // SPEC["inner_iterations"], last) for loc in (SPEC["locations"] * 3)[5:]]

    def test_execution_knobs_do_not_change_run_identity(self, problem,
                                                        reference, tmp_path):
        """A sweep run in parallel and resumed serially shares one store
        entry: backend/worker knobs are excluded from the fingerprint."""
        store = RunStore(tmp_path)
        with pytest.raises(_InterruptAfter):
            run_campaign(problem, _spec_with("sharded", {"workers": 2}),
                         store=store, sink=_Bomb(2))
        run_ids = store.run_ids()
        assert len(run_ids) == 1
        # resume with a *different* backend and no explicit run_id: the
        # default id must land on the same run and complete it
        resumed = run_campaign(problem, dict(SPEC), store=store, resume=True)
        assert store.run_ids() == run_ids
        assert resumed.trials == reference.trials

    def test_repro_workers_alone_shards_a_stored_run(self, problem, reference,
                                                     tmp_path, monkeypatch):
        """REPRO_WORKERS=2 with no exec knobs selects the sharded backend on
        the stored path too: an interrupted run keeps its records in the
        run's own trial file, with no shard directory, and the resume
        completes it identically."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        store = RunStore(tmp_path)
        with pytest.raises(_InterruptAfter):
            run_campaign(problem, dict(SPEC), store=store, run_id="r",
                         sink=_Bomb(2))
        assert store.shard_ids("r") == []
        assert len(store.completed_indices("r")) >= 2
        resumed = run_campaign(problem, dict(SPEC), store=store, run_id="r",
                               resume=True)
        assert resumed.trials == reference.trials
        assert store.shard_ids("r") == []
        assert store.load_result("r").trials == reference.trials

    def test_resume_rejects_a_different_spec(self, problem, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(_InterruptAfter):
            run_campaign(problem, dict(SPEC), store=store, run_id="r",
                         sink=_Bomb(1))
        changed = dict(SPEC, inner_iterations=6)
        with pytest.raises(RunStoreError, match="different campaign"):
            run_campaign(problem, changed, store=store, run_id="r", resume=True)

    def test_resume_rejects_a_problem_of_another_seed(self, problem, tmp_path):
        """The fingerprint names the problem but not its seed, so a problem
        that differs only in its seed finds the same run id: resuming it
        must not hand back the other seed's trials."""
        store = RunStore(tmp_path)
        run_campaign(problem, dict(SPEC), store=store, run_id="r")
        reseeded = poisson_problem(8, seed=9)
        assert reseeded.name == problem.name and reseeded.seed != problem.seed
        with pytest.raises(RunStoreError, match="seed 7, not 9"):
            run_campaign(reseeded, dict(SPEC), store=store, run_id="r", resume=True)

    def test_existing_run_without_resume_is_refused(self, problem, tmp_path):
        store = RunStore(tmp_path)
        run_campaign(problem, dict(SPEC), store=store, run_id="r")
        with pytest.raises(RunStoreError, match="resume=True"):
            run_campaign(problem, dict(SPEC), store=store, run_id="r")

    def test_resume_without_existing_run_starts_fresh(self, problem,
                                                      reference, tmp_path):
        store = RunStore(tmp_path)
        result = run_campaign(problem, dict(SPEC), store=store, run_id="r",
                              resume=True)
        assert result.trials == reference.trials

    def test_store_flags_require_store(self, problem):
        with pytest.raises(RunStoreError, match="require store"):
            run_campaign(problem, dict(SPEC), resume=True)


# ====================================================================== #
# zero-solve figure regeneration through the runner CLI
# ====================================================================== #
class TestRunnerStoreIntegration:
    ARGS = ["fig3", "--scale", "tiny", "--stride", "25"]

    def test_fig3_regenerates_from_store_with_zero_solves(self, tmp_path,
                                                          capsys, monkeypatch):
        store_args = ["--store", str(tmp_path)]
        assert runner_mod.main(self.ARGS + store_args) == 0
        live = capsys.readouterr().out

        _forbid_solves(monkeypatch, "--from-store must not solve")
        assert runner_mod.main(self.ARGS + store_args + ["--from-store"]) == 0
        regenerated = capsys.readouterr().out
        assert regenerated == live

    def test_from_store_rejects_a_problem_of_another_seed(self, tmp_path, capsys):
        """``--from-store`` must not print another seed's sweep: the run id
        is the same, the stored manifest's seed is not."""
        def problem_args(seed):
            return ["--set", f'problem={{"name": "poisson", "grid_n": 6, "seed": {seed}}}']

        store_args = ["--store", str(tmp_path)]
        assert runner_mod.main(self.ARGS + store_args + problem_args(7)) == 0
        capsys.readouterr()
        assert runner_mod.main(self.ARGS + store_args + problem_args(7)
                               + ["--from-store"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            runner_mod.main(self.ARGS + store_args + problem_args(9) + ["--from-store"])
        assert exc.value.code == 2
        assert "seed 7, not 9" in capsys.readouterr().err

    def test_from_store_names_the_missing_run(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            runner_mod.main(self.ARGS + ["--store", str(tmp_path),
                                         "--from-store"])
        assert exc.value.code == 2
        assert "no run" in capsys.readouterr().err

    def test_runner_resume_completes_an_interrupted_store(self, tmp_path,
                                                          capsys):
        """Simulate the CI resume-smoke flow in-process: run, truncate the
        store to an interrupted state, resume, and diff the reports."""
        store_args = ["--store", str(tmp_path)]
        assert runner_mod.main(self.ARGS + store_args) == 0
        live = capsys.readouterr().out

        store = RunStore(tmp_path)
        run_id = store.run_ids()[0]
        manifest_status = store.manifest(run_id).status
        assert manifest_status == "complete"
        # rewind the run to "interrupted": drop trials, mark it running
        trials_path = os.path.join(store.run_path(run_id), "trials.jsonl")
        with open(trials_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(trials_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:1])
        manifest = store.manifest(run_id)
        manifest.status = "running"
        store._write_manifest(manifest)

        assert runner_mod.main(self.ARGS + store_args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert resumed == live
        assert store.manifest(run_id).status == "complete"

    def test_events_jsonl_sink_from_cli(self, tmp_path, capsys):
        events_dir = str(tmp_path / "events") + os.sep
        assert runner_mod.main(self.ARGS + ["--sink", f"jsonl:{events_dir}"]) == 0
        capsys.readouterr()
        with open(os.path.join(events_dir, "events.jsonl"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        kinds = {json.loads(line)["kind"] for line in lines}
        assert {"campaign_started", "baseline_completed", "trial_completed",
                "campaign_completed"} <= kinds

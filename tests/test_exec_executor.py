"""Tests for the campaign execution backends (:mod:`repro.exec`).

The engine's central promise: a sharded campaign run is trial-for-trial
identical to a serial one — same :class:`TrialRecord` values, same order —
for every worker count and shard layout.  :func:`resolve_backend` is the one
place the execution knobs become a backend; its table is pinned here, and a
campaign runs on the backend its spec's ``exec`` section resolves to.
"""

from __future__ import annotations

import pytest

from repro.exec.executor import BackendKnobError, resolve_backend, resolve_workers
from repro.exec.spec import TrialSpec
from repro.faults.campaign import FaultCampaign
from repro.gallery.problems import poisson_problem
from repro.results.events import CollectingSink
from repro.specs import CampaignSpec, ExecutionSpec, SpecError, apply_overrides


@pytest.fixture(scope="module")
def tiny_problem():
    return poisson_problem(grid_n=8)


@pytest.fixture(scope="module")
def campaign(tiny_problem):
    return FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                         detector="bound", detector_response="zero")


@pytest.fixture(scope="module")
def serial_result(campaign):
    return _run(campaign, stride=11)


def _run(campaign, **fields):
    """Run ``campaign``'s spec with some fields replaced."""
    return FaultCampaign(campaign.problem, campaign.spec, **fields).run()


class TestWorkerResolution:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_backend_auto_selection(self):
        assert resolve_backend(None, workers=1) == "serial"
        assert resolve_backend(None, workers=4) == "sharded"
        assert resolve_backend("batched") == "batched"
        with pytest.raises(ValueError):
            resolve_backend("gpu", workers=4)


class TestResolveBackend:
    """The resolution table: ``batch_size`` gives batched, a resolved worker
    count above 1 (explicit, else ``REPRO_WORKERS``) gives sharded, anything
    else gives serial; the executor and the spec layer agree with it."""

    @pytest.mark.parametrize("knobs, env, expected", [
        ({"batch_size": 8}, None, "batched"),
        ({"batch_size": 8}, "2", "batched"),
        ({"workers": 2}, None, "sharded"),
        ({"workers": 2}, "1", "sharded"),
        ({}, "2", "sharded"),
        ({}, None, "serial"),
        ({}, "1", "serial"),
        ({"workers": 1}, "2", "serial"),
        ({"backend": "sharded"}, None, "sharded"),
        ({"backend": "serial"}, "2", "serial"),
    ])
    def test_resolution_table(self, campaign, monkeypatch, knobs, env, expected):
        if env is None:
            monkeypatch.delenv("REPRO_WORKERS", raising=False)
        else:
            monkeypatch.setenv("REPRO_WORKERS", env)
        assert resolve_backend(**knobs) == expected
        assert FaultCampaign(campaign.problem, campaign.spec,
                             exec=knobs).backend == expected
        ExecutionSpec(**knobs)  # the spec layer accepts every row

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_removed_backends_rejected(self, campaign, backend):
        with pytest.raises(SpecError) as info:
            ExecutionSpec(backend=backend)
        assert info.value.field == "backend"
        with pytest.raises(SpecError) as info:
            CampaignSpec.from_dict({"exec": {"backend": backend}})
        assert info.value.field == "exec.backend"
        with pytest.raises(SpecError) as info:
            apply_overrides(CampaignSpec(), {"exec.backend": backend})
        assert info.value.field == "exec.backend"
        with pytest.raises(BackendKnobError, match="backend must be one of"):
            resolve_backend(backend, workers=2)

    @pytest.mark.parametrize("key", ["chunksize", "shards"])
    def test_removed_knobs_rejected(self, key):
        with pytest.raises(SpecError) as info:
            CampaignSpec.from_dict({"exec": {key: 2}})
        assert info.value.field == f"exec.{key}"
        with pytest.raises(SpecError) as info:
            apply_overrides(CampaignSpec(), {f"exec.{key}": 2})
        assert info.value.field == f"exec.{key}"


class TestCampaignConfig:
    """The campaign itself is the worker payload: shard workers inherit it
    through fork, and where fork is unavailable it is pickled once per
    worker, so its configuration must survive a pickle round trip."""

    def test_round_trip(self, campaign):
        import pickle

        rebuilt = pickle.loads(pickle.dumps(campaign))
        assert rebuilt.inner_iterations == campaign.inner_iterations
        assert rebuilt.mgs_position == campaign.mgs_position
        assert rebuilt.solver.fgmres_kwargs() == campaign.solver.fgmres_kwargs()
        assert rebuilt.solver.inner.maxiter == campaign.inner_iterations
        assert rebuilt.detector is not None
        assert sorted(rebuilt.fault_classes) == sorted(campaign.fault_classes)

    def test_picklable(self, campaign):
        import pickle

        clone = pickle.loads(pickle.dumps(campaign))
        assert clone.inner_iterations == campaign.inner_iterations
        assert clone.problem.name == campaign.problem.name
        assert clone.provenance == campaign.provenance
        specs = campaign.trial_specs([1, 26])
        assert [clone.run_spec(s) for s in specs] == [campaign.run_spec(s) for s in specs]


class TestDeterministicParallelism:
    """The headline guarantee: parallel output == serial output, in order."""

    @pytest.mark.parametrize("backend", ["sharded"])
    def test_backend_matches_serial(self, campaign, serial_result, backend):
        parallel = _run(campaign, stride=11, exec={"backend": backend, "workers": 2})
        assert parallel.trials == serial_result.trials
        assert parallel.failure_free_outer == serial_result.failure_free_outer
        assert parallel.failure_free_residual == serial_result.failure_free_residual

    def test_stateful_detector_resets_per_trial(self, tiny_problem):
        """A ``norm_growth`` detector keeps a running reference, reset before
        every solve: each record equals a fresh campaign's run of that trial,
        so serial and sharded runs agree too."""
        def fresh():
            return FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                                 detector="norm_growth", detector_response="flag",
                                 stride=11)

        campaign = fresh()
        serial = campaign.run()
        locations = range(0, serial.failure_free_outer * 10, 11)
        specs = campaign.trial_specs(locations)
        assert [fresh().run_spec(spec) for spec in specs] == serial.trials
        assert any(t.faults_detected for t in serial.trials)
        parallel = _run(campaign, exec={"backend": "sharded", "workers": 2})
        assert parallel.trials == serial.trials

    def test_single_trial_chunks_match_serial(self, campaign):
        """One trial per shard maximizes completion reordering; the
        canonical order must survive it."""
        serial = _run(campaign, locations=(1, 12))
        parallel = _run(campaign, locations=(1, 12),
                        exec={"backend": "sharded", "workers": len(serial.trials)})
        assert parallel.trials == serial.trials

    def test_workers_env_knob_respected(self, campaign, serial_result, monkeypatch):
        """REPRO_WORKERS alone selects the sharded backend."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert campaign.backend == "sharded"
        parallel = _run(campaign, stride=11)
        assert parallel.trials == serial_result.trials


class TestExecutorMechanics:
    def test_progress_reaches_total(self, campaign):
        sink = CollectingSink()
        result = FaultCampaign(campaign.problem, campaign.spec, stride=17,
                               exec={"backend": "sharded", "workers": 2}).run(sink=sink)
        progress = [(e.data["done"], e.data["total"])
                    for e in sink.of_kind("trial_completed")]
        assert [done for done, _ in progress] == list(range(1, len(result.trials) + 1))
        assert {total for _, total in progress} == {len(result.trials)}

    def test_empty_spec_list(self, campaign):
        assert list(campaign.iter_records([])) == []

    def test_duplicate_indices_rejected(self, campaign):
        specs = [TrialSpec(0, "large", 1), TrialSpec(0, "large", 2)]
        with pytest.raises(ValueError):
            list(campaign.iter_records(specs))

    def test_unknown_fault_class(self, campaign):
        with pytest.raises(KeyError):
            campaign.run_spec(TrialSpec(0, "no-such-class", 1))

    def test_invalid_chunksize(self, campaign):
        """chunksize is no longer an execution knob at all."""
        with pytest.raises(SpecError) as info:
            FaultCampaign(campaign.problem, campaign.spec, exec={"chunksize": 0})
        assert info.value.field == "exec.chunksize"

    def test_batch_size_with_pool_backend_rejected(self, campaign):
        """Knobs the backend would silently ignore are errors up front."""
        with pytest.raises(ValueError, match="batch_size"):
            resolve_backend("sharded", batch_size=8)

    def test_parallel_workers_with_serial_rejected(self, campaign):
        with pytest.raises(ValueError, match="workers"):
            resolve_backend("serial", workers=4)

    def test_chunksize_with_batched_rejected(self, campaign):
        with pytest.raises(SpecError) as info:
            FaultCampaign(campaign.problem, campaign.spec,
                          exec={"backend": "batched", "chunksize": 2})
        assert info.value.field == "exec.chunksize"

    def test_workers_one_accepted_everywhere(self, campaign):
        assert resolve_backend("serial", workers=1) == "serial"
        assert resolve_backend("batched", workers=1) == "batched"

    def test_batch_size_auto_selects_batched(self, campaign):
        batched = FaultCampaign(campaign.problem, campaign.spec, exec={"batch_size": 4})
        assert batched.backend == "batched"
        assert batched.spec.exec.batch_size == 4

    def test_ambiguous_auto_backend_rejected(self, campaign):
        with pytest.raises(ValueError, match="batch_size"):
            ExecutionSpec(workers=4, batch_size=4)
        with pytest.raises(BackendKnobError, match="mutually exclusive"):
            resolve_backend(batch_size=8, workers=2)

    def test_env_workers_do_not_trip_serial_validation(self, campaign, monkeypatch):
        """REPRO_WORKERS is a default, not an explicit knob; serial ignores it."""
        monkeypatch.setenv("REPRO_WORKERS", "4")
        serial = FaultCampaign(campaign.problem, campaign.spec, exec={"backend": "serial"})
        assert serial.backend == "serial"

    def test_env_workers_do_not_veto_explicit_batch_size(self, campaign, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        batched = FaultCampaign(campaign.problem, campaign.spec, exec={"batch_size": 8})
        assert batched.backend == "batched"
        assert batched.spec.exec.batch_size == 8

    def test_workers_zero_means_one_per_cpu(self, campaign):
        """workers=0 must stay accepted even when it resolves to 1 CPU."""
        workers = resolve_workers(0)
        assert workers >= 1
        assert (FaultCampaign(campaign.problem, campaign.spec, exec={"workers": 0}).backend
                == ("sharded" if workers > 1 else "serial"))

    def test_spec_order_defines_output_order(self, campaign):
        """Reversed input specs still come back sorted by spec.index."""
        plan = campaign.plan(locations=(1, 26))
        forward = campaign.run_plan(plan).trials
        backward = campaign.run_plan(plan, specs=list(reversed(plan.specs))).trials
        assert forward == backward


class TestWorkerIsolation:
    def test_built_campaigns_share_no_mutable_state(self, tiny_problem):
        """Shard workers run private (forked) copies of the campaign: a
        stateful detector in the parent is untouched by a sharded run,
        while the serial loop updates it in place."""
        from repro.core.detectors import NormGrowthDetector

        references = {}
        for backend, knobs in (("sharded", {"workers": 2}), ("serial", {})):
            campaign = FaultCampaign(tiny_problem, inner_iterations=10,
                                     max_outer=50,
                                     detector=NormGrowthDetector(factor=1e6),
                                     exec={"backend": backend, **knobs})
            list(campaign.iter_records(campaign.trial_specs([1, 12])))
            references[backend] = campaign.detector._reference
        assert references["sharded"] == 0.0
        assert references["serial"] > 0.0

    def test_custom_solver_params_survive_rebuild(self, tiny_problem):
        """A custom solver spec must reach the worker campaigns."""
        from repro.specs import SolveSpec

        custom = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                               solver=SolveSpec(method="ft_gmres",
                                                inner=SolveSpec(method="gmres", tol=0.0,
                                                                orthogonalization="cgs2")),
                               stride=13)
        assert custom.solver.inner.orthogonalization == "cgs2"
        serial = custom.run()
        parallel = _run(custom, exec={"backend": "sharded", "workers": 2})
        assert parallel.trials == serial.trials

    def test_trial_specs_accepts_iterator(self, campaign):
        """A generator of locations must sweep every fault class."""
        from_list = campaign.trial_specs([1, 12])
        from_iter = campaign.trial_specs(iter([1, 12]))
        assert from_iter == from_list
        assert len(from_iter) == 2 * len(campaign.fault_classes)

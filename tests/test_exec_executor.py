"""Tests for the campaign execution engine (:mod:`repro.exec`).

The engine's central promise: a sharded campaign run is trial-for-trial
identical to a serial one — same :class:`TrialRecord` values, same order —
for every worker count and shard layout.  :func:`resolve_backend` is the one
place the execution knobs become a backend; its table is pinned here.
"""

from __future__ import annotations

import pytest

from repro.exec.executor import (BackendKnobError, CampaignExecutor,
                                 resolve_backend, resolve_workers)
from repro.exec.spec import TrialSpec
from repro.faults.campaign import FaultCampaign
from repro.gallery.problems import poisson_problem
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
    return campaign.run(stride=11)


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
        assert CampaignExecutor(campaign, **knobs).backend == expected
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
            CampaignExecutor(campaign, backend=backend, workers=2)

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
        parallel = campaign.run(stride=11, backend=backend, workers=2)
        assert parallel.trials == serial_result.trials
        assert parallel.failure_free_outer == serial_result.failure_free_outer
        assert parallel.failure_free_residual == serial_result.failure_free_residual

    def test_single_trial_chunks_match_serial(self, campaign):
        """One trial per shard maximizes completion reordering; the
        canonical order must survive it."""
        serial = campaign.run(locations=[1, 12])
        parallel = campaign.run(locations=[1, 12], backend="sharded",
                                workers=len(serial.trials))
        assert parallel.trials == serial.trials

    def test_workers_env_knob_respected(self, campaign, serial_result, monkeypatch):
        """REPRO_WORKERS alone selects the sharded backend."""
        monkeypatch.setenv("REPRO_WORKERS", "2")
        assert CampaignExecutor(campaign).backend == "sharded"
        parallel = campaign.run(stride=11)
        assert parallel.trials == serial_result.trials


class TestExecutorMechanics:
    def test_progress_reaches_total(self, campaign):
        calls = []
        campaign.run(stride=17, backend="sharded", workers=2,
                     progress=lambda done, total: calls.append((done, total)))
        assert calls, "progress callback never fired"
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1][0] == calls[-1][1]

    def test_empty_spec_list(self, campaign):
        executor = CampaignExecutor(campaign)
        assert executor.run([]) == []

    def test_duplicate_indices_rejected(self, campaign):
        executor = CampaignExecutor(campaign)
        specs = [TrialSpec(0, "large", 1), TrialSpec(0, "large", 2)]
        with pytest.raises(ValueError):
            executor.run(specs)

    def test_unknown_fault_class(self, campaign):
        with pytest.raises(KeyError):
            campaign.run_spec(TrialSpec(0, "no-such-class", 1))

    def test_invalid_chunksize(self, campaign):
        """chunksize is no longer an executor knob at all."""
        with pytest.raises(TypeError, match="chunksize"):
            CampaignExecutor(campaign, chunksize=0)

    def test_batch_size_with_pool_backend_rejected(self, campaign):
        """Knobs the backend would silently ignore are errors up front."""
        with pytest.raises(ValueError, match="batch_size"):
            CampaignExecutor(campaign, backend="sharded", batch_size=8)

    def test_parallel_workers_with_serial_rejected(self, campaign):
        with pytest.raises(ValueError, match="workers"):
            CampaignExecutor(campaign, backend="serial", workers=4)

    def test_chunksize_with_batched_rejected(self, campaign):
        with pytest.raises(TypeError, match="chunksize"):
            CampaignExecutor(campaign, backend="batched", chunksize=2)

    def test_workers_one_accepted_everywhere(self, campaign):
        assert CampaignExecutor(campaign, backend="serial", workers=1).backend == "serial"
        assert CampaignExecutor(campaign, backend="batched", workers=1).backend == "batched"

    def test_batch_size_auto_selects_batched(self, campaign):
        executor = CampaignExecutor(campaign, batch_size=4)
        assert executor.backend == "batched"
        assert executor.batch_size == 4

    def test_ambiguous_auto_backend_rejected(self, campaign):
        with pytest.raises(ValueError, match="batch_size"):
            CampaignExecutor(campaign, workers=4, batch_size=4)
        with pytest.raises(BackendKnobError, match="mutually exclusive"):
            resolve_backend(batch_size=8, workers=2)

    def test_env_workers_do_not_trip_serial_validation(self, campaign, monkeypatch):
        """REPRO_WORKERS is a default, not an explicit knob; serial ignores it."""
        monkeypatch.setenv("REPRO_WORKERS", "4")
        executor = CampaignExecutor(campaign, backend="serial")
        assert executor.backend == "serial"

    def test_env_workers_do_not_veto_explicit_batch_size(self, campaign, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "4")
        executor = CampaignExecutor(campaign, batch_size=8)
        assert executor.backend == "batched"
        assert executor.batch_size == 8

    def test_workers_zero_means_one_per_cpu(self, campaign):
        """workers=0 must stay accepted even when it resolves to 1 CPU."""
        executor = CampaignExecutor(campaign, workers=0)
        assert executor.workers >= 1
        assert executor.backend == ("sharded" if executor.workers > 1 else "serial")

    def test_non_campaign_config_rejected(self):
        with pytest.raises(TypeError):
            CampaignExecutor(object())

    def test_spec_order_defines_output_order(self, campaign):
        """Reversed input specs still come back sorted by spec.index."""
        specs = campaign.trial_specs([1, 26])
        executor = CampaignExecutor(campaign)
        forward = executor.run(specs)
        backward = executor.run(list(reversed(specs)))
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
                                     detector=NormGrowthDetector(factor=1e6))
            executor = CampaignExecutor(campaign, backend=backend, **knobs)
            executor.run(campaign.trial_specs([1, 12]))
            references[backend] = campaign.detector._reference
        assert references["sharded"] == 0.0
        assert references["serial"] > 0.0

    def test_custom_solver_params_survive_rebuild(self, tiny_problem):
        """A custom solver spec must reach the worker campaigns."""
        from repro.specs import SolveSpec

        custom = FaultCampaign(tiny_problem, inner_iterations=10, max_outer=50,
                               solver=SolveSpec(method="ft_gmres",
                                                inner=SolveSpec(method="gmres", tol=0.0,
                                                                orthogonalization="cgs2")))
        assert custom.solver.inner.orthogonalization == "cgs2"
        serial = custom.run(stride=13)
        parallel = custom.run(stride=13, backend="sharded", workers=2)
        assert parallel.trials == serial.trials

    def test_trial_specs_accepts_iterator(self, campaign):
        """A generator of locations must sweep every fault class."""
        from_list = campaign.trial_specs([1, 12])
        from_iter = campaign.trial_specs(iter([1, 12]))
        assert from_iter == from_list
        assert len(from_iter) == 2 * len(campaign.fault_classes)

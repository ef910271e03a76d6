"""One differential property over the campaign entry points.

A :class:`~repro.specs.CampaignSpec` is a campaign's only configuration, so
every way to run one must agree on every spec: a spec-built
:class:`~repro.faults.campaign.FaultCampaign`, the same campaign built from
the spec's fields as keywords, :func:`repro.api.run_campaign` and
:func:`repro.api.iter_trials` give equal records on the serial backend, with
two shard workers and on a stored run resumed after losing half its trials,
and the batched backend meets its documented contract (equal counts,
statuses and classification; residuals to 1e-10).  Fault models that draw
random bits are on the spec axis: their bits come from each trial's
generator, so they are held to the same identity.
"""

from __future__ import annotations

import inspect
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.faults.campaign import FaultCampaign
from repro.gallery.problems import poisson_problem
from repro.results.store import campaign_fingerprint, trials_path
from repro.specs import CampaignSpec

PROBLEM = poisson_problem(grid_n=6)  # 36 unknowns, a few outer iterations

#: The paper's classes, and models that draw random bits from the trial's
#: generator (a random bit, three random bits, a random exponent bit).
FAULT_CLASSES = ["paper", {"a": "bitflip"}, {"a": "multibit:3"},
                 {"a": {"name": "bitflip", "bits": list(range(52, 63))}}]


@st.composite
def campaign_fields(draw):
    """Campaign fields over the axes the backends treat differently."""
    fields = {
        "inner_iterations": 5,
        "max_outer": 40,
        "detector": draw(st.sampled_from([None, "bound"])),
        "detector_response": draw(st.sampled_from(["flag", "zero", "clamp",
                                                   "recompute"])),
        "mgs_position": draw(st.sampled_from(["first", "last"])),
        "site": draw(st.sampled_from(["hessenberg", "spmv"])),
        "fault_rate": draw(st.sampled_from([None, 2])),
        "fault_classes": draw(st.sampled_from(FAULT_CLASSES)),
        "locations": tuple(draw(st.lists(st.integers(0, 30), min_size=1,
                                         max_size=2, unique=True))),
    }
    return {key: value for key, value in fields.items() if value is not None}


def assert_within_batched_contract(serial, batched):
    assert len(batched) == len(serial)
    for s, b in zip(serial, batched):
        assert ((b.fault_class, b.aggregate_inner_iteration, b.outer_iterations,
                 b.total_inner_iterations, b.status, b.faults_injected,
                 b.faults_detected)
                == (s.fault_class, s.aggregate_inner_iteration, s.outer_iterations,
                    s.total_inner_iterations, s.status, s.faults_injected,
                    s.faults_detected))
        if np.isnan(s.residual_norm):
            assert np.isnan(b.residual_norm)
        else:
            assert abs(b.residual_norm - s.residual_norm) <= \
                1e-10 * max(1.0, abs(s.residual_norm))


@given(fields=campaign_fields())
@settings(max_examples=30, deadline=None)
def test_campaign_entry_points_agree(fields):
    spec = CampaignSpec(**fields)
    by_spec = FaultCampaign(PROBLEM, spec)
    by_fields = FaultCampaign(PROBLEM, **fields)
    assert by_fields.spec == spec
    # Each campaign resolves its own detector instance; compare their specs.
    assert by_fields.solver.to_dict() == by_spec.solver.to_dict()
    assert by_fields.provenance == by_spec.provenance

    serial = by_spec.run().trials
    assert serial
    assert by_fields.run().trials == serial
    facade = api.run_campaign(PROBLEM, spec)
    assert facade.trials == serial
    assert {t.spec_hash for t in facade.trials} == {by_fields.provenance["spec_hash"]}
    assert list(api.iter_trials(PROBLEM, spec)) == serial
    assert FaultCampaign(PROBLEM, spec, exec={"workers": 2}).run().trials == serial
    assert_within_batched_contract(
        serial, FaultCampaign(PROBLEM, spec, exec={"backend": "batched"}).run().trials)
    with tempfile.TemporaryDirectory() as store:
        assert api.run_campaign(PROBLEM, spec, store=store, run_id="r").trials == serial
        path = trials_path(os.path.join(store, "r"))
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[: len(lines) // 2])
        resumed = api.run_campaign(PROBLEM, spec, store=store, run_id="r", resume=True)
        assert resumed.trials == serial


def test_random_bit_campaign_repeats():
    """Random bits come from each trial's generator (problem seed x
    location), never from OS entropy: two serial runs agree."""
    spec = CampaignSpec(fault_classes={"a": "bitflip", "b": "multibit"},
                        inner_iterations=5, max_outer=40, stride=2)
    first = FaultCampaign(PROBLEM, spec).run().trials
    assert len(first) > 20
    assert FaultCampaign(PROBLEM, spec).run().trials == first


class TestOneConfiguration:
    def test_run_takes_only_a_sink(self):
        assert list(inspect.signature(FaultCampaign.run).parameters) == ["self", "sink"]

    def test_keyword_built_campaign_stamps_the_spec_hash(self):
        """A campaign built from keywords stamps the fingerprint
        ``run_campaign`` stamps for the same spec."""
        campaign = FaultCampaign(PROBLEM, inner_iterations=5, detector="bound",
                                 locations=(3,))
        expected = campaign_fingerprint(campaign.spec, PROBLEM.name)
        assert campaign.provenance["spec_hash"] == expected
        assert {t.spec_hash for t in campaign.run().trials} == {expected}
        stamped = api.run_campaign(PROBLEM, inner_iterations=5, detector="bound",
                                   locations=(3,))
        assert {t.spec_hash for t in stamped.trials} == {expected}
        assert stamped.spec_hash == expected

    def test_unhashable_component_leaves_the_hash_unset(self, tmp_path):
        """A built component with no ``to_spec()`` has no hashable form: the
        campaign stamps no hash, and a stored run (which needs one) refuses."""
        from repro.precond.jacobi import JacobiPreconditioner
        from repro.specs import SolveSpec, SpecError

        inner = SolveSpec(method="gmres", tol=0.0,
                          preconditioner=JacobiPreconditioner(PROBLEM.A))
        campaign = FaultCampaign(PROBLEM, inner_iterations=5,
                                 solver=SolveSpec(method="ft_gmres", inner=inner))
        assert campaign.provenance["spec_hash"] is None
        with pytest.raises(SpecError):
            api.run_campaign(PROBLEM, campaign.spec, store=tmp_path)

    def test_spec_fields_reach_the_run(self):
        """``run()`` sweeps the spec's locations, else every stride-th one."""
        located = FaultCampaign(PROBLEM, inner_iterations=5, locations=(4, 1))
        assert [t.aggregate_inner_iteration for t in located.run().trials[:2]] == [4, 1]
        strided = FaultCampaign(PROBLEM, inner_iterations=5, stride=7).run()
        reach = strided.failure_free_outer * 5
        assert sorted({t.aggregate_inner_iteration for t in strided.trials}) == \
            list(range(0, reach, 7))

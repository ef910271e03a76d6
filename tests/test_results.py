"""The streaming results subsystem: event bus, query API, run store.

Covers the unified Event schema and sink protocol (including the streaming
contract: a sink passed to any solver receives exactly ``result.events``,
bit-identically to an unobserved solve), the TrialQuery filter/group/aggregate
helpers against the legacy CampaignResult methods they reimplement, the
RunStore layout (manifest round trip, torn-tail recovery, artifacts), and
the provenance/timing satellite guarantees.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.api import iter_trials, run_campaign
from repro.baselines.cg import cg
from repro.core.exceptions import FaultDetectedError
from repro.core.fgmres import fgmres
from repro.core.gmres import gmres
from repro.core.ftgmres import ft_gmres
from repro.faults.campaign import FaultCampaign, TrialRecord, CampaignResult
from repro.faults.injector import FaultInjector
from repro.faults.models import ScalingFault
from repro.faults.schedule import InjectionSchedule
from repro.gallery.problems import poisson_problem
from repro.registry import RegistryError, resolve_sink
from repro.results.events import (
    CallbackSink,
    CollectingSink,
    Event,
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
    campaign_fingerprint,
)
from repro.specs import CampaignSpec, SolveSpec, spec_hash


@pytest.fixture
def problem():
    return poisson_problem(8)


@pytest.fixture
def campaign(problem):
    return FaultCampaign(problem, inner_iterations=5, max_outer=20)


@pytest.fixture
def result(campaign):
    return sweep(campaign, (0, 2, 4))


def sweep(campaign, locations, *, sink=None, **fields):
    """Run ``campaign``'s spec at ``locations`` (and other replaced fields)."""
    return FaultCampaign(campaign.problem, campaign.spec, locations=locations,
                         **fields).run(sink=sink)


# ====================================================================== #
# Event schema + sinks
# ====================================================================== #
class TestEventSchema:
    def test_round_trip(self):
        event = Event("fault_detected", where="hessenberg", outer_iteration=3,
                      inner_iteration=7, trial_index=12,
                      data={"value": 1.5, "bound": 2.0})
        assert Event.from_dict(event.to_dict()) == event

    def test_defaults_omitted_from_dict(self):
        assert Event("converged").to_dict() == {"kind": "converged"}

    def test_collecting_and_multi_sinks(self):
        a, b = CollectingSink(), CollectingSink()
        multi = MultiSink([a, b])
        multi.emit(Event("x"))
        multi.emit(Event("y"))
        assert [e.kind for e in a] == ["x", "y"]
        assert a.events == b.events
        assert len(a.of_kind("x")) == 1

    def test_ensure_sink_coercions(self):
        seen = []
        sink = ensure_sink(seen.append)
        assert isinstance(sink, CallbackSink)
        sink.emit(Event("z"))
        assert seen[0].kind == "z"
        assert ensure_sink(None) is None
        null = NullSink()
        assert ensure_sink(null) is null
        assert isinstance(ensure_sink([null, seen.append]), MultiSink)
        with pytest.raises(TypeError):
            ensure_sink(42)

    def test_jsonl_sink_appends_readable_lines(self, tmp_path):
        sink = JsonlEventSink(str(tmp_path / "sub") + os.sep)  # directory form
        sink.emit(Event("a", data={"v": 1}))
        sink.emit(Event("b"))
        sink.close()
        lines = (tmp_path / "sub" / "events.jsonl").read_text().splitlines()
        assert [Event.from_dict(json.loads(l)).kind for l in lines] == ["a", "b"]


def _injector(aggregate_inner_iteration=3):
    """A single 1e150 scaling of the first MGS coefficient of one step."""
    return FaultInjector(ScalingFault(1e150), InjectionSchedule(
        aggregate_inner_iteration=aggregate_inner_iteration, mgs_position="first"))


def _nested_spec(response):
    inner = SolveSpec(method="gmres", tol=0.0, maxiter=5, detector="bound",
                      detector_response=response)
    return SolveSpec(method="ft_gmres", tol=1e-10, max_outer=20, inner=inner)


#: One solve per solver, each recording events: ``case(problem, events)``.
STREAM_CASES = {
    "gmres": lambda p, events: gmres(
        p.A, p.b, tol=1e-10, maxiter=30, detector="bound", detector_response="zero",
        injector=_injector(), events=events),
    "fgmres": lambda p, events: fgmres(
        p.A, p.b, tol=1e-10, max_outer=30, detector="bound", detector_response="zero",
        injector=_injector(), events=events),
    "ft_gmres": lambda p, events: ft_gmres(
        p.A, p.b, spec=_nested_spec("zero"), injector=_injector(), events=events),
    # p^T A p = 0 on the first step: CG records a breakdown.
    "cg": lambda p, events: cg(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 0.0]),
                               events=events),
}


class TestStreamingContract:
    """The streaming contract: a sink passed to any solver receives exactly
    ``result.events``, in order, each event as it is recorded."""

    @pytest.mark.parametrize("solve", list(STREAM_CASES.values()), ids=list(STREAM_CASES))
    def test_gmres_streams_events_bit_identically(self, problem, solve):
        """Observing a solve through a sink changes nothing numerically."""
        plain = solve(problem, None)
        sink = CollectingSink()
        observed = solve(problem, sink)
        assert observed.events, "each case must record events"
        assert np.array_equal(plain.x, observed.x)
        assert plain.residual_norm == observed.residual_norm
        assert observed.events == plain.events
        # the sink saw exactly the events on the result
        assert sink.events == observed.events

    def test_ft_gmres_streams_inner_events_before_raise(self, problem):
        """An inner fault and its detection reach the sink before a
        ``"raise"`` response propagates out of the nested solve."""
        sink = CollectingSink()
        with pytest.raises(FaultDetectedError):
            ft_gmres(problem.A, problem.b, spec=_nested_spec("raise"),
                     injector=_injector(aggregate_inner_iteration=7), events=sink)
        assert [e.kind for e in sink] == ["inner_solve_complete", "fault_injected",
                                          "fault_detected"]
        assert sink.events[-1].data["response"] == "raise"

    def test_ft_gmres_streams_merged_events(self, problem):
        sink = CollectingSink()
        result = ft_gmres(problem.A, problem.b, inner_iterations=5,
                          max_outer=20, events=sink)
        assert result.converged
        assert sink.events == list(result.events)
        assert any(e.kind == "inner_solve_complete" for e in sink)


class TestCampaignEvents:
    def test_lifecycle_events(self, campaign):
        sink = CollectingSink()
        result = sweep(campaign, (0, 3), sink=sink)
        kinds = [e.kind for e in sink]
        assert kinds[0] == "campaign_started"
        assert kinds[1] == "baseline_completed"
        assert kinds[-1] == "campaign_completed"
        completed = sink.of_kind("trial_completed")
        assert len(completed) == len(result.trials)
        assert completed[-1].data["done"] == completed[-1].data["total"]
        # payload carries the full record
        record = TrialRecord.from_dict(
            {k: v for k, v in completed[0].data["record"].items() if k != "kind"})
        assert record in result.trials

    def test_sink_does_not_change_results(self, campaign):
        with_sink = sweep(campaign, (0, 3), sink=CollectingSink())
        without = sweep(campaign, (0, 3))
        assert with_sink.trials == without.trials

    def test_sink_list_may_mix_specs_and_callables(self, campaign):
        seen = []
        memory = resolve_sink("memory")
        result = sweep(campaign, (1,), sink=["memory", seen.append, memory])
        assert [e.kind for e in memory] == [e.kind for e in seen]
        assert len(memory.of_kind("trial_completed")) == len(result.trials)

    def test_jsonl_sink_path_without_extension_is_a_directory(self, tmp_path):
        sink = resolve_sink(f"jsonl:{tmp_path / 'runs'}")  # no trailing sep
        sink.emit(Event("a"))
        sink.close()
        assert (tmp_path / "runs").is_dir()
        assert (tmp_path / "runs" / "events.jsonl").is_file()

    def test_jsonl_sink_trailing_sep_wins_over_dotted_name(self, tmp_path):
        dotted = str(tmp_path / "runs.v2") + os.sep
        sink = JsonlEventSink(dotted)
        sink.emit(Event("a"))
        sink.close()
        assert (tmp_path / "runs.v2" / "events.jsonl").is_file()

    def test_registered_sink_specs(self, campaign, tmp_path):
        jsonl = resolve_sink(f"jsonl:{tmp_path}/ev/")
        sweep(campaign, (1,), sink=jsonl)
        jsonl.close()
        lines = (tmp_path / "ev" / "events.jsonl").read_text().splitlines()
        kinds = [json.loads(l)["kind"] for l in lines]
        assert "campaign_started" in kinds and "trial_completed" in kinds
        assert isinstance(resolve_sink("memory"), CollectingSink)
        assert isinstance(resolve_sink("null"), NullSink)
        with pytest.raises(RegistryError):
            resolve_sink("no-such-sink")


# ====================================================================== #
# TrialQuery
# ====================================================================== #
class TestTrialQuery:
    def test_filter_group_series_match_legacy_helpers(self, result):
        q = result.query()
        assert isinstance(q, TrialQuery)
        for cls in result.fault_classes():
            x, y = result.series(cls)
            qx, qy = q.filter(fault_class=cls).series()
            assert np.array_equal(x, qx) and np.array_equal(y, qy)
            assert result.detection_rate(cls) == (
                q.filter(fault_class=cls).rate(lambda t: t.faults_detected > 0))
            assert result.max_outer(cls) == (
                q.filter(fault_class=cls).max("outer_iterations"))
        groups = q.group_by("fault_class")
        assert list(groups) == result.fault_classes()
        assert sum(len(g) for g in groups.values()) == len(result.trials)

    def test_predicates_and_projections(self, result):
        q = result.query()
        assert q.filter(lambda t: t.converged).count() + \
            q.filter(converged=False).count() == len(q)
        assert q.exclude(fault_class="large").distinct("fault_class") == \
            [c for c in result.fault_classes() if c != "large"]
        locs = q.values("aggregate_inner_iteration")
        assert q.sort_by("aggregate_inner_iteration").values(
            "aggregate_inner_iteration") == sorted(locs)
        assert q.min("outer_iterations") <= q.mean("outer_iterations") \
            <= q.max("outer_iterations")
        assert q.median("outer_iterations") >= 0

    def test_campaign_class_table_matches_result_helpers(self, result):
        from repro.experiments.report import campaign_class_table

        _, rows = campaign_class_table(result)
        assert [row[0] for row in rows] == result.fault_classes()
        for row in rows:
            cls = row[0]
            assert row[1] == result.max_outer(cls)
            assert row[2] == result.max_increase(cls)

    def test_aggregate_and_empty_query(self):
        empty = TrialQuery([])
        assert not empty
        assert empty.series() == pytest.approx((np.empty(0), np.empty(0))) \
            or empty.series()[0].size == 0
        assert empty.rate(lambda t: True) == 0.0
        assert empty.max("outer_iterations") == 0
        assert empty.aggregate(n=len) == {"n": 0}


# ====================================================================== #
# provenance + timing satellites
# ====================================================================== #
class TestProvenanceAndTiming:
    def test_spec_hash_is_stable_and_canonical(self):
        a = CampaignSpec(stride=3, detector="bound")
        b = CampaignSpec.from_dict(a.to_dict())
        assert spec_hash(a) == spec_hash(b)
        assert spec_hash(a) != spec_hash(CampaignSpec(stride=4, detector="bound"))
        assert len(spec_hash(a)) == 16

    def test_run_campaign_stamps_provenance(self, problem):
        result = run_campaign(problem, locations=[0, 2], inner_iterations=5,
                              max_outer=20)
        assert result.repro_version
        assert result.seed == problem.seed == 7
        assert result.spec_hash == campaign_fingerprint(
            CampaignSpec(locations=(0, 2), inner_iterations=5, max_outer=20),
            problem.name)
        for trial in result.trials:
            assert trial.repro_version == result.repro_version
            assert trial.seed == result.seed
            assert trial.spec_hash == result.spec_hash

    def test_provenance_round_trips_through_to_dict(self, problem):
        result = run_campaign(problem, locations=[1], inner_iterations=5,
                              max_outer=20)
        rebuilt = CampaignResult.from_dict(result.to_dict())
        assert rebuilt.repro_version == result.repro_version
        assert rebuilt.seed == result.seed
        assert rebuilt.spec_hash == result.spec_hash
        assert rebuilt.trials[0].spec_hash == result.trials[0].spec_hash
        assert rebuilt.trials[0].elapsed == result.trials[0].elapsed

    def test_unstamped_record_dict_omits_provenance(self):
        record = TrialRecord("c", "d", 0, "first", 1, 5, True, "converged",
                             1e-9, 1, 0, False)
        out = record.to_dict()
        assert "repro_version" not in out and "spec_hash" not in out
        assert out["elapsed"] == 0.0
        assert TrialRecord.from_dict({k: v for k, v in out.items()
                                      if k != "kind"}) == record

    def test_provenance_and_elapsed_do_not_affect_equality(self):
        record = TrialRecord("c", "d", 0, "first", 1, 5, True, "converged",
                             1e-9, 1, 0, False)
        stamped = dataclasses.replace(record, elapsed=3.0, repro_version="x",
                                      seed=1, spec_hash="h")
        assert stamped == record

    @pytest.mark.parametrize("backend,knobs", [
        ("serial", {}),
        ("sharded", {"workers": 2}),
        (None, {"workers": 2}),  # a worker count alone selects sharded
        ("batched", {"batch_size": 2}),
    ])
    def test_all_backends_record_wall_time(self, campaign, backend, knobs):
        result = sweep(campaign, (0, 2, 5), exec={"backend": backend, **knobs})
        assert all(t.elapsed > 0.0 for t in result.trials)


# ====================================================================== #
# RunStore
# ====================================================================== #
class TestRunStore:
    def _manifest(self, run_id="r1", total=2) -> RunManifest:
        return RunManifest(
            run_id=run_id, spec={"stride": 5}, spec_hash="abc",
            problem_name="p", repro_version="1", seed=7, mgs_position="first",
            inner_iterations=5, detector_enabled=False, failure_free_outer=3,
            failure_free_residual=1e-9, locations=[0, 1], fault_classes=["large"],
            total_trials=total)

    def _record(self, loc=0) -> TrialRecord:
        return TrialRecord("large", "d", loc, "first", 3, 15, True,
                           "converged", 1e-9, 1, 0, False)

    def test_manifest_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        manifest = store.manifest("r1")
        assert manifest.to_dict() == self._manifest().to_dict()
        assert store.run_ids() == ["r1"]
        assert store.exists("r1") and not store.exists("nope")

    def test_fresh_create_refuses_overwrite(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        with pytest.raises(RunStoreError, match="already exists"):
            store.write_manifest(self._manifest())

    def test_missing_run_raises_with_inventory(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(RunStoreError, match="no run"):
            store.manifest("ghost")
        with pytest.raises(RunStoreError, match="invalid run id"):
            store.run_path("../escape")
        with pytest.raises(RunStoreError, match="reserved"):
            store.run_path("artifacts")

    def test_append_read_and_finalize(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        with RunWriter(store.run_path("r1")) as writer:
            writer.append(0, self._record(0))
            writer.append(1, self._record(1))
        pairs, torn = store.read_trials("r1")
        assert not torn
        assert [i for i, _ in pairs] == [0, 1]
        assert pairs[0][1] == self._record(0)
        assert store.completed_indices("r1") == {0, 1}
        assert store.manifest("r1").status == "running"
        store.finalize("r1")
        assert store.manifest("r1").status == "complete"

    def test_torn_tail_detected_and_recovered(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        with RunWriter(store.run_path("r1")) as writer:
            writer.append(0, self._record(0))
        trials_path = os.path.join(store.run_path("r1"), "trials.jsonl")
        with open(trials_path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "fault_class": "larg')  # torn write
        pairs, torn = store.read_trials("r1")
        assert torn and len(pairs) == 1
        recovered = store.recover("r1")
        assert len(recovered) == 1
        # the file is clean again: appends after recovery parse fine
        with RunWriter(store.run_path("r1")) as writer:
            writer.append(1, self._record(1))
        pairs, torn = store.read_trials("r1")
        assert not torn and len(pairs) == 2

    def test_corruption_before_the_tail_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        with RunWriter(store.run_path("r1")) as writer:
            writer.append(0, self._record(0))
        trials_path = os.path.join(store.run_path("r1"), "trials.jsonl")
        with open(trials_path, encoding="utf-8") as handle:
            content = handle.read()
        with open(trials_path, "w", encoding="utf-8") as handle:
            handle.write("GARBAGE\n" + content)
        with pytest.raises(RunStoreError, match="corrupt trial record"):
            store.read_trials("r1")

    def test_load_result_requires_completeness(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest(total=2))
        with RunWriter(store.run_path("r1")) as writer:
            writer.append(0, self._record(0))
        with pytest.raises(RunStoreError, match="incomplete"):
            store.load_result("r1")
        partial = store.load_result("r1", allow_partial=True)
        assert len(partial.trials) == 1
        assert partial.repro_version == "1" and partial.spec_hash == "abc"

    def test_query_over_stored_run(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        with RunWriter(store.run_path("r1")) as writer:
            writer.append(1, self._record(1))  # completion order != canonical
            writer.append(0, self._record(0))
        q = store.query("r1")
        assert q.values("aggregate_inner_iteration") == [0, 1]  # canonical
        assert q.filter(fault_class="large").count() == 2

    def test_artifacts_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        payload = {"headers": ["a"], "rows": [[np.float64(1.5)]]}
        store.save_artifact("table1-tiny", payload)
        assert store.has_artifact("table1-tiny")
        loaded = store.load_artifact("table1-tiny")
        assert loaded["rows"] == [[1.5]]
        with pytest.raises(RunStoreError, match="no artifact"):
            store.load_artifact("missing")


# ====================================================================== #
# streaming facade
# ====================================================================== #
class TestIterTrials:
    def test_iter_trials_matches_run_campaign(self, problem):
        spec = dict(inner_iterations=5, max_outer=20, locations=[0, 2, 4])
        reference = run_campaign(problem, dict(spec))
        streamed = list(iter_trials(problem, dict(spec)))
        assert streamed == reference.trials

    def test_serial_streaming_is_lazy(self, problem):
        spec = dict(inner_iterations=5, max_outer=20, locations=[0, 2, 4, 6])
        stream = iter_trials(problem, spec)
        first = next(stream)
        assert first.aggregate_inner_iteration == 0
        stream.close()  # closing early must not raise

    def test_early_close_over_pool_backend(self, problem):
        """Closing a stream over the multi-process backend stops its shard
        workers instead of running the campaign out."""
        spec = dict(inner_iterations=5, max_outer=20,
                    locations=[0, 1, 2, 3, 4, 5],
                    exec={"backend": "sharded", "workers": 2})
        stream = iter_trials(problem, spec)
        next(stream)
        stream.close()  # must neither hang nor raise

    def test_windowed_streaming_over_batched(self, problem):
        spec = dict(inner_iterations=5, max_outer=20, locations=[0, 2, 4],
                    exec={"backend": "batched", "batch_size": 2})
        reference = run_campaign(problem, dict(spec,
                                               exec={"backend": "serial"}))
        streamed = sorted(iter_trials(problem, spec),
                          key=lambda t: (t.fault_class, t.aggregate_inner_iteration))
        ordered = sorted(reference.trials,
                         key=lambda t: (t.fault_class, t.aggregate_inner_iteration))
        assert [(t.fault_class, t.aggregate_inner_iteration, t.outer_iterations,
                 t.status) for t in streamed] == \
            [(t.fault_class, t.aggregate_inner_iteration, t.outer_iterations,
              t.status) for t in ordered]

"""The trial log: the run store's trials-file codec and stores already on disk.

Two halves:

* a hypothesis property over the codec (:func:`encode_trial`,
  :func:`read_trial_file`, :func:`recover_trial_file`): encoded lines read
  back as the same records, a cut inside the last line reads as a torn tail
  that recovery cuts off exactly, and a read from any line boundary returns
  exactly the suffix;
* a store written by an earlier release (``tests/data/parent-store``), which
  today's code must read, heal, merge and resume without changing a byte.
  ``serial/`` is one complete serial run of ``poisson:8`` (inner 10,
  ``max_outer`` 30, stride 6; 21 trials).  ``sharded/`` holds the same
  lines split over ``shard-0/`` and ``shard-1/``, plus a hard-timeout error
  record for index 5 that the real index-5 line later in ``shard-1``
  supersedes, and a torn final line: the first two thirds of index 20's line.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run_campaign
from repro.faults.campaign import TrialRecord
from repro.results.events import CollectingSink
from repro.results.store import (
    RunStore,
    RunStoreError,
    RunWriter,
    encode_trial,
    read_trial_file,
    recover_trial_file,
    trials_path,
)

PARENT_STORE = Path(__file__).parent / "data" / "parent-store"
SPEC = {"problem": "poisson:8", "inner_iterations": 10, "max_outer": 30, "stride": 6}
TORN_INDEX = 20


# ---------------------------------------------------------------------- #
# the codec (hypothesis)
# ---------------------------------------------------------------------- #
_text = st.text(max_size=12)  # non-ASCII included
_floats = st.floats(allow_nan=True, allow_infinity=True)

records = st.builds(
    TrialRecord,
    fault_class=_text,
    fault_description=_text,
    aggregate_inner_iteration=st.integers(min_value=0, max_value=10**6),
    mgs_position=st.sampled_from(["first", "last"]),
    outer_iterations=st.integers(min_value=-1, max_value=500),
    total_inner_iterations=st.integers(min_value=-1, max_value=50_000),
    converged=st.booleans(),
    status=st.sampled_from(["converged", "max_iterations", "breakdown", "error"]),
    residual_norm=_floats,
    faults_injected=st.integers(min_value=0, max_value=9),
    faults_detected=st.integers(min_value=0, max_value=9),
    detector_enabled=st.booleans(),
    elapsed=st.floats(min_value=0.0, allow_infinity=False),
    error=st.none() | _text,
    repro_version=st.none() | _text,
    seed=st.none() | st.integers(min_value=0, max_value=2**63),
    spec_hash=st.none() | st.text("0123456789abcdef", min_size=16, max_size=16),
    retries=st.integers(min_value=0, max_value=5),
)
# error records: NaN residual, the sentinel payload, a message
error_records = records.map(lambda r: TrialRecord(**{
    **r.__dict__, "status": "error", "residual_norm": float("nan"),
    "outer_iterations": -1, "total_inner_iterations": -1, "converged": False,
    "error": r.error or "boom — échec"}))
trial_logs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10**5), records | error_records),
    min_size=1, max_size=6)


def _canonical(pairs) -> list:
    """JSON of each (index, record): NaN != NaN, but its JSON is one token."""
    return [(index, json.dumps(record.to_dict())) for index, record in pairs]


def _write(path, pairs) -> list[int]:
    """Write encoded lines; return the byte offset of every line boundary."""
    bounds = [0]
    with open(path, "wb") as handle:
        for index, record in pairs:
            line = encode_trial(index, record)
            handle.write(line)
            bounds.append(bounds[-1] + len(line))
    return bounds


class TestCodec:
    @given(pairs=trial_logs)
    @settings(max_examples=60, deadline=None)
    def test_encoded_lines_read_back_as_the_same_records(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("codec") / "trials.jsonl"
        bounds = _write(path, pairs)
        read, valid_bytes, torn = read_trial_file(path)
        assert _canonical(read) == _canonical(pairs)
        assert (valid_bytes, torn) == (bounds[-1], False)
        # stored lines stay 7-bit clean: non-ASCII text is escaped
        assert Path(path).read_bytes().isascii()

    @given(pairs=trial_logs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_cut_inside_the_last_line_is_torn_and_recovers(self, tmp_path_factory,
                                                          pairs, data):
        path = tmp_path_factory.mktemp("torn") / "trials.jsonl"
        bounds = _write(path, pairs)
        start = bounds[-2]
        cut = data.draw(st.integers(min_value=start + 1, max_value=bounds[-1] - 1))
        os.truncate(path, cut)
        read, valid_bytes, torn = read_trial_file(path)
        assert torn and valid_bytes == start
        assert _canonical(read) == _canonical(pairs[:-1])
        recovered, _, _ = recover_trial_file(path)
        assert _canonical(recovered) == _canonical(pairs[:-1])
        assert os.path.getsize(path) == start
        # the healed file appends cleanly
        with RunWriter(os.path.dirname(path)) as writer:
            writer.append(*pairs[-1])
        assert read_trial_file(path)[1:] == (bounds[-1], False)
        assert _canonical(read_trial_file(path)[0]) == _canonical(pairs)

    @given(pairs=trial_logs, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_read_from_any_line_boundary_is_the_suffix(self, tmp_path_factory,
                                                         pairs, data):
        path = tmp_path_factory.mktemp("tail") / "trials.jsonl"
        bounds = _write(path, pairs)
        k = data.draw(st.integers(min_value=0, max_value=len(pairs)))
        read, valid_bytes, torn = read_trial_file(path, bounds[k])
        assert _canonical(read) == _canonical(pairs[k:])
        assert (valid_bytes, torn) == (bounds[-1], False)

    @given(pairs=trial_logs, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_corruption_before_the_last_line_raises(self, tmp_path_factory,
                                                    pairs, data):
        path = tmp_path_factory.mktemp("corrupt") / "trials.jsonl"
        bounds = _write(path, pairs + [pairs[0]])
        k = data.draw(st.integers(min_value=0, max_value=len(pairs) - 1))
        blob = bytearray(Path(path).read_bytes())
        blob[bounds[k]] = ord("#")  # the line no longer parses
        Path(path).write_bytes(bytes(blob))
        with pytest.raises(RunStoreError, match="corrupt trial record"):
            read_trial_file(path)


# ---------------------------------------------------------------------- #
# a store written by an earlier release
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serial_run():
    return run_campaign(spec=SPEC)


@pytest.fixture
def store(tmp_path) -> RunStore:
    shutil.copytree(PARENT_STORE, tmp_path / "store")
    return RunStore(tmp_path / "store")


def _serial_lines() -> list[bytes]:
    return (PARENT_STORE / "serial" / "trials.jsonl").read_bytes().splitlines(keepends=True)


def _shard_files(store) -> list[str]:
    return [trials_path(store.shard_path("sharded", k)) for k in (0, 1)]


class TestParentStore:
    def test_load_result_equals_the_serial_run(self, serial_run):
        store = RunStore(PARENT_STORE)
        assert store.load_result("serial").trials == serial_run.trials
        partial = store.load_result("sharded", allow_partial=True)
        assert partial.trials == serial_run.trials[:TORN_INDEX]

    def test_the_encoder_writes_the_stored_bytes(self):
        path = PARENT_STORE / "serial" / "trials.jsonl"
        pairs, _, torn = read_trial_file(path)
        assert not torn
        assert b"".join(encode_trial(i, r) for i, r in pairs) == path.read_bytes()

    def test_recover_cuts_exactly_the_torn_bytes(self, store):
        before = [Path(path).read_bytes() for path in _shard_files(store)]
        torn_line = _serial_lines()[TORN_INDEX]
        torn_bytes = torn_line[: (2 * len(torn_line)) // 3]
        assert before[1].endswith(torn_bytes)
        latest = store.recover("sharded")
        after = [Path(path).read_bytes() for path in _shard_files(store)]
        assert after == [before[0], before[1][: -len(torn_bytes)]]
        assert [index for index, _ in latest] == list(range(TORN_INDEX))
        assert not latest[5][1].is_error  # the later line superseded the error

    def test_merge_shards_rewrites_the_serial_file(self, store):
        assert store.merge_shards("sharded") == 2
        merged = Path(trials_path(store.run_path("sharded"))).read_bytes()
        # every stored index, byte for byte the serial run's line
        assert merged == b"".join(_serial_lines()[:TORN_INDEX])
        assert store.shard_ids("sharded") == []

    @pytest.mark.parametrize("exec_spec", [{}, {"workers": 2}], ids=["serial", "sharded"])
    def test_resume_reruns_only_the_torn_index(self, store, serial_run, exec_spec):
        sink = CollectingSink()
        resumed = run_campaign(spec=dict(SPEC, exec=exec_spec), store=store,
                               run_id="sharded", resume=True, sink=sink)
        completed = sink.of_kind("trial_completed")
        assert [event.trial_index for event in completed] == [TORN_INDEX]
        assert resumed.trials == serial_run.trials
        assert store.load_result("sharded").trials == serial_run.trials
        lines = Path(trials_path(store.run_path("sharded"))).read_bytes()
        lines = lines.splitlines(keepends=True)
        assert lines[:TORN_INDEX] == _serial_lines()[:TORN_INDEX]

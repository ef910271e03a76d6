"""The persistent run store: append-only JSONL runs with manifests.

Layout (one directory per run under the store root)::

    <root>/
      <run_id>/
        manifest.json     # full CampaignSpec, spec hash, seed, repro version,
                          # baseline numbers, resolved locations, status
        trials.jsonl      # one TrialRecord per line, appended + flushed as
                          # each trial completes, in COMPLETION order
        shard-<k>/        # legacy, read-only: a sharded run begun by an
          trials.jsonl    # older release (merged on read, compacted into
                          # the flat layout by merge_shards)
      artifacts/
        <name>.json       # non-campaign artifacts (Table I rows, Figure 2)

The trial log
-------------
This module alone knows the trials-file format: :func:`encode_trial` writes
a trial's line, :func:`read_trial_file` reads a file (or its tail from a
byte offset), :func:`recover_trial_file` cuts a torn tail off, and
:func:`trials_path` names a run's or shard's file.  One :class:`RunWriter`
appends every line of a run to its flat file, in the process that runs the
campaign, on every backend
(:meth:`~repro.faults.campaign.FaultCampaign.iter_records`; the sharded
backend's workers send their records to that process over pipes).

Durability contract
-------------------
``trials.jsonl`` is append-only and flushed per record, so a crash (or
SIGTERM, or SIGKILL) at any point loses at most the record being written.
A torn final line is expected after a crash:
:meth:`RunStore.read_trials` detects it, reports it, and
:meth:`RunStore.recover` truncates the file (and each legacy shard file
independently) back to its last complete record so appending can resume.  A corrupt line
*before* the final one is real corruption and raises :class:`RunStoreError`.

Legacy shard layout
-------------------
Older releases had every sharded worker process append to its own
``shard-<k>/trials.jsonl`` (beside a ``heartbeat.json``).  Nothing writes
that layout any more, but runs that have it still load, resume and merge:
all read paths (:meth:`RunStore.read_trials`,
:meth:`~RunStore.load_result`, :meth:`~RunStore.query`,
:meth:`~RunStore.completed_indices`) merge the flat file and every shard
file transparently, deduping through the error-supersede rules; a resumed
run may have re-partitioned casualties across *different* shards, so a stale
error record and its superseding measurement can appear in either file
order.  Once such a run is complete, :meth:`RunStore.merge_shards` compacts
the shards into the flat layout (idempotent, fingerprint-verified).

Resume contract
---------------
The manifest freezes everything a resumed run needs to be trial-identical to
an uninterrupted one: the spec (and its hash, verified on resume), the
failure-free baseline numbers, and the resolved injection locations.  Trials
are keyed by their canonical index, so a resume runs exactly the missing
indices and the merged result is in canonical order.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any

from repro.results.query import TrialQuery
from repro.utils.io import atomic_write_json, atomic_write_text

__all__ = ["RunStoreError", "RunManifest", "RunWriter", "RunStore", "StoreLock",
           "campaign_fingerprint", "encode_trial", "read_trial_file",
           "recover_trial_file", "trials_path", "shard_dir_name",
           "FINGERPRINT_EXCLUDED_FIELDS"]

_MANIFEST = "manifest.json"
_TRIALS = "trials.jsonl"
_ARTIFACTS = "artifacts"
_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_SHARD_DIR_RE = re.compile(r"^shard-(\d+)$")


class RunStoreError(RuntimeError):
    """A run-store consistency problem (missing run, spec mismatch, ...)."""


def shard_dir_name(shard: int) -> str:
    """The directory name of one store shard (``shard-<k>``)."""
    return f"shard-{int(shard)}"


def trials_path(directory: str) -> str:
    """The trials file of a run or shard directory."""
    return os.path.join(directory, _TRIALS)


def encode_trial(index: int, record) -> bytes:
    """One stored trial (a TrialRecord) as its JSON line, newline included."""
    return (json.dumps({"index": int(index), **record.to_dict()}) + "\n").encode("utf-8")


def read_trial_file(path: str, offset: int = 0) -> tuple[list[tuple[int, Any]], int, bool]:
    """Parse one trials file (flat or shard) from byte ``offset`` on.

    Returns ``(pairs, valid_bytes, torn)``: the parsed ``(index,
    TrialRecord)`` pairs in file order, the byte offset just past the last
    complete parseable line (where the next read of a growing file starts,
    and where :func:`recover_trial_file` cuts), and whether a torn tail — an
    unterminated or corrupt *final* line, the signature of a crash (or of a
    live writer) mid-append — follows it.  Corruption before the final line
    raises :class:`RunStoreError`; a missing file reads as empty.
    """
    from repro.faults.campaign import TrialRecord

    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except FileNotFoundError:
        return [], offset, False
    pairs: list[tuple[int, Any]] = []
    pos = 0
    torn = False
    while pos < len(data):
        newline = data.find(b"\n", pos)
        if newline < 0:
            torn = True  # unterminated tail: crash mid-append
            break
        try:
            row = json.loads(data[pos:newline].decode("utf-8"))
            index = int(row.pop("index"))
            record = TrialRecord.from_dict(row)
        except (ValueError, TypeError, KeyError, UnicodeDecodeError) as exc:
            if newline + 1 < len(data):
                raise RunStoreError(f"corrupt trial record at {path} "
                                    f"byte {offset + pos}: {exc}") from None
            torn = True  # corrupt final line: same crash signature
            break
        pairs.append((index, record))
        pos = newline + 1
    return pairs, offset + pos, torn


def recover_trial_file(path: str, offset: int = 0) -> tuple[list[tuple[int, Any]], int, bool]:
    """:func:`read_trial_file`, then cut a torn tail off the file.

    The file then ends with a complete line, so appends resume cleanly.  Only
    call it with the file's writer dead: a live writer's half-written line
    would be cut away under it.
    """
    pairs, valid_bytes, torn = read_trial_file(path, offset)
    if torn:
        with open(path, "rb+") as handle:
            handle.truncate(valid_bytes)
    return pairs, valid_bytes, torn


#: CampaignSpec fields deliberately excluded from :func:`campaign_fingerprint`.
#: Every other spec field MUST change the fingerprint (the static-analysis
#: rule RPR003 probes each field and fails the lint gate otherwise):
#:
#: * ``problem`` — the problem *name* is mixed into the hash separately, so a
#:   spec with ``problem=None`` run on an explicit problem object and the
#:   equivalent named spec resolve to the same stored run;
#: * ``exec`` — execution knobs (backend, workers, batch size, ...)
#:   are documented not to change results, so reruns under any backend find
#:   and resume the same run.
FINGERPRINT_EXCLUDED_FIELDS = ("problem", "exec")


def campaign_fingerprint(spec, problem_name: str) -> str:
    """The identity hash of (campaign spec, problem) — what resume verifies.

    The spec alone is not enough: a spec with ``problem=None`` runs on
    whatever problem the caller passes in code, so the problem name is mixed
    into the hash.  Two normalizations keep the identity about the *physics*
    of the campaign:

    * ``problem`` is dropped from the spec (the problem name stands for it);
    * ``exec`` is dropped — execution knobs (backend, workers, batch size)
      are documented not to change results, so ``--workers 4`` and a plain
      serial rerun must find (and resume) the same stored run.
    """
    from repro.specs import ExecutionSpec, spec_hash

    # Normalizes away exactly FINGERPRINT_EXCLUDED_FIELDS (RPR003 probes
    # every spec field against the fingerprint to keep the two in sync).
    spec = spec.replace(problem=None, exec=ExecutionSpec())
    return spec_hash({"problem_name": str(problem_name), "spec": spec.to_dict()})


@dataclass
class RunManifest:
    """Everything needed to identify, resume, and rebuild a stored run."""

    run_id: str
    spec: dict
    spec_hash: str
    problem_name: str
    repro_version: str
    seed: int | None
    mgs_position: str
    inner_iterations: int
    detector_enabled: bool
    failure_free_outer: int
    failure_free_residual: float
    locations: list[int]
    fault_classes: list[str]
    total_trials: int
    status: str = "running"
    created_at: str = ""
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "run_id": self.run_id,
            "spec": self.spec,
            "spec_hash": self.spec_hash,
            "problem_name": self.problem_name,
            "repro_version": self.repro_version,
            "seed": self.seed,
            "mgs_position": self.mgs_position,
            "inner_iterations": self.inner_iterations,
            "detector_enabled": self.detector_enabled,
            "failure_free_outer": self.failure_free_outer,
            "failure_free_residual": self.failure_free_residual,
            "locations": [int(loc) for loc in self.locations],
            "fault_classes": list(self.fault_classes),
            "total_trials": self.total_trials,
            "status": self.status,
            "created_at": self.created_at,
        }
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        data = dict(data)
        data.setdefault("extra", {})
        return cls(**data)

    def check_seed(self, seed: int | None) -> None:
        """Raise :class:`RunStoreError` unless the run solved a problem of ``seed``.

        :func:`campaign_fingerprint` names the problem but not its seed, so
        problems that differ only in their seed share a run id, and their
        trials must not stand in for each other on resume or reload.
        """
        if self.seed != seed:
            raise RunStoreError(
                f"run {self.run_id!r} was produced on a problem of seed {self.seed}, "
                f"not {seed}; choose another run_id or store")


class RunWriter:
    """Appends trial records to the trials file of a run directory.

    Each record is one :func:`encode_trial` line, flushed before
    :meth:`append` returns.
    """

    def __init__(self, directory: str):
        self.path = trials_path(directory)
        self._handle = open(self.path, "ab")

    def append(self, index: int, record) -> None:
        """Persist one completed trial (``record`` is a TrialRecord)."""
        self._handle.write(encode_trial(index, record))
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class StoreLock:
    """A cross-process advisory lock on a store directory (``flock``-based).

    Guards read-modify-write cycles that span processes — the campaign
    service's job submissions and state transitions all happen under one of
    these, so two clients racing to submit the same spec serialize onto a
    single durable job record.  Locks are *advisory*: nothing stops a writer
    that does not take the lock (the store's append-only trial files never
    need it).

    Use as a context manager, or ``acquire``/``release``; ``acquire``
    blocks until the lock is free.  ``release`` explicitly unlocks before
    closing the file so a child process that inherited the open description
    across ``fork`` cannot keep the lock alive.  On platforms without
    ``fcntl`` the lock degrades to a no-op (single-host POSIX is the
    supported service deployment).
    """

    def __init__(self, directory, *, name: str = ".lock"):
        self.path = os.path.join(str(directory), name)
        self._handle = None

    def acquire(self) -> None:
        """Take the lock, waiting for another holder to release it."""
        if self._handle is not None:
            raise RunStoreError(f"lock {self.path} is already held by this object")
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        handle = open(self.path, "a+")
        try:
            import fcntl
        except ImportError:  # pragma: no cover - non-POSIX fallback
            self._handle = handle
            return
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        except Exception:
            handle.close()
            raise
        self._handle = handle

    def release(self) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            import fcntl

            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        except (ImportError, OSError):  # pragma: no cover
            pass
        handle.close()

    def __enter__(self) -> "StoreLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()


class RunStore:
    """A directory of persisted campaign runs (see the module docstring)."""

    def __init__(self, root) -> None:
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    @classmethod
    def coerce(cls, store) -> "RunStore":
        """A RunStore from an instance or a path."""
        if isinstance(store, cls):
            return store
        return cls(store)

    # ------------------------------------------------------------------ #
    # run directory plumbing
    # ------------------------------------------------------------------ #
    def run_path(self, run_id: str) -> str:
        """The directory of one run (validated; need not exist yet)."""
        if not _RUN_ID_RE.match(run_id):
            raise RunStoreError(
                f"invalid run id {run_id!r}: use letters, digits, '.', '_', '-'")
        if run_id == _ARTIFACTS:
            raise RunStoreError(
                f"run id {_ARTIFACTS!r} is reserved for the store's "
                f"artifact directory")
        return os.path.join(self.root, run_id)

    def exists(self, run_id: str) -> bool:
        """True if the run has a manifest on disk."""
        return os.path.isfile(os.path.join(self.run_path(run_id), _MANIFEST))

    def run_ids(self) -> list[str]:
        """All stored run ids, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(name for name in os.listdir(self.root)
                      if os.path.isfile(os.path.join(self.root, name, _MANIFEST)))

    def list_runs(self) -> list[dict]:
        """One summary row per stored run, sorted by run id.

        Each row carries the manifest identity plus live trial progress::

            {"run_id", "status", "spec_hash", "problem_name", "created_at",
             "trials_done", "total_trials", "shards"}

        ``trials_done`` counts indices whose latest record is successful
        (error records — crashes, timeouts — read as still missing, matching
        :meth:`completed_indices`); a run whose trial files are unreadable
        reports ``status="corrupt"`` instead of raising, so one damaged run
        cannot hide the rest of the store from ``repro runs`` or the
        service's job listing.
        """
        rows = []
        for run_id in self.run_ids():
            try:
                manifest = self.manifest(run_id)
            except RunStoreError:
                rows.append({"run_id": run_id, "status": "corrupt",
                             "spec_hash": None, "problem_name": None,
                             "created_at": None, "trials_done": None,
                             "total_trials": None, "shards": 0})
                continue
            try:
                done = len(self.completed_indices(run_id))
            except RunStoreError:
                done = None
            rows.append({
                "run_id": run_id,
                "status": manifest.status if done is not None else "corrupt",
                "spec_hash": manifest.spec_hash,
                "problem_name": manifest.problem_name,
                "created_at": manifest.created_at,
                "trials_done": done,
                "total_trials": manifest.total_trials,
                "shards": len(self.shard_ids(run_id)),
            })
        return rows

    # ------------------------------------------------------------------ #
    # manifests
    # ------------------------------------------------------------------ #
    def write_manifest(self, manifest: RunManifest, *, resume: bool = False) -> None:
        """Persist a new run's manifest (its directory is created too).

        A fresh write refuses to overwrite an existing run — stored trials
        are evidence, not cache — and ``resume=True`` keeps the stored
        manifest (the caller checks the fingerprint first via
        :meth:`manifest`).  Trials are appended through a :class:`RunWriter`.
        """
        path = self.run_path(manifest.run_id)
        if self.exists(manifest.run_id) and not resume:
            raise RunStoreError(
                f"run {manifest.run_id!r} already exists in {self.root}; "
                f"pass resume=True to continue it or choose another run_id")
        os.makedirs(path, exist_ok=True)
        if not self.exists(manifest.run_id):
            self._write_manifest(manifest)

    def _manifest_lock(self, run_id: str) -> StoreLock:
        """The lock serializing manifest read-modify-write cycles of a run.

        A run's own writers (the sharded supervisor's retry accounting and
        the finalize at its end) all run in the campaign's process, so they
        never race each other.  The lock guards against a second process
        working on the same run at once — a ``--resume`` or a service job
        started on a run id that another invocation is still writing — so
        every RMW (:meth:`update_manifest_extra`, :meth:`finalize`) runs
        under it and concurrent merges never lose keys.
        """
        return StoreLock(self.run_path(run_id), name=".manifest.lock")

    def update_manifest_extra(self, run_id: str, **extra) -> RunManifest:
        """Merge keys into a stored manifest's ``extra`` dict (atomic rewrite).

        The supervisor's retry/quarantine accounting persists here, so a
        resumed campaign (and post-mortem analysis) can see how flaky the
        infrastructure was without scanning trial files.
        """
        with self._manifest_lock(run_id):
            manifest = self.manifest(run_id)
            manifest.extra.update(extra)
            self._write_manifest(manifest)
        return manifest

    def manifest(self, run_id: str) -> RunManifest:
        """The manifest of a stored run."""
        path = os.path.join(self.run_path(run_id), _MANIFEST)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return RunManifest.from_dict(json.load(handle))
        except FileNotFoundError:
            raise RunStoreError(
                f"no run {run_id!r} in {self.root} "
                f"(stored runs: {self.run_ids() or 'none'})") from None
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise RunStoreError(f"corrupt manifest for run {run_id!r}: {exc}") from None

    def _write_manifest(self, manifest: RunManifest) -> None:
        path = os.path.join(self.run_path(manifest.run_id), _MANIFEST)
        # Atomic replace: a crash never leaves a torn manifest.
        atomic_write_json(path, manifest.to_dict(), indent=2)

    def finalize(self, run_id: str) -> None:
        """Mark a run complete (all trials written)."""
        with self._manifest_lock(run_id):
            manifest = self.manifest(run_id)
            manifest.status = "complete"
            self._write_manifest(manifest)

    # ------------------------------------------------------------------ #
    # trial records (flat file + shard files, merged on read)
    # ------------------------------------------------------------------ #
    def shard_ids(self, run_id: str) -> list[int]:
        """The shard numbers present in a run's directory, sorted."""
        run_dir = self.run_path(run_id)
        if not os.path.isdir(run_dir):
            return []
        return sorted(int(match.group(1)) for name in os.listdir(run_dir)
                      if (match := _SHARD_DIR_RE.match(name))
                      and os.path.isdir(os.path.join(run_dir, name)))

    def shard_path(self, run_id: str, shard: int) -> str:
        """The directory of one store shard (need not exist yet)."""
        return os.path.join(self.run_path(run_id), shard_dir_name(shard))

    def _trial_paths(self, run_id: str) -> list[str]:
        """Every trials file of a run: the flat file, then shards in order.

        Raises :class:`RunStoreError` if the whole run is missing.
        """
        dirs = [self.run_path(run_id)] + [self.shard_path(run_id, shard)
                                          for shard in self.shard_ids(run_id)]
        paths = [path for path in map(trials_path, dirs) if os.path.isfile(path)]
        if not paths:
            self.manifest(run_id)
        return paths

    def read_trials(self, run_id: str) -> tuple[list[tuple[int, Any]], bool]:
        """All persisted ``(index, TrialRecord)`` pairs, in file order.

        Pairs come from the flat ``trials.jsonl`` followed by every
        ``shard-<k>/trials.jsonl`` in shard order.  Returns ``(pairs,
        torn_tail)`` where ``torn_tail`` reports a truncated/corrupt *final*
        line in any of the files (the expected signature of a crash
        mid-append) — such lines are skipped.  Corruption anywhere else
        raises :class:`RunStoreError`.
        """
        reads = [read_trial_file(path) for path in self._trial_paths(run_id)]
        return ([pair for pairs, _, _ in reads for pair in pairs],
                any(torn for _, _, torn in reads))

    def recover(self, run_id: str) -> list[tuple[int, Any]]:
        """Cut torn tails so appends can resume; return the latest records.

        Shard-aware: each trials file (flat and legacy per-shard) is
        truncated *independently* back to its last complete record — in a
        legacy run a SIGKILL-ed shard worker tore only its own file.  Returns one ``(index,
        TrialRecord)`` pair per stored index, in index order, deduped by
        :meth:`_latest_records`; an index whose latest record is an error
        record is still missing for a resume.
        """
        return self._latest_records(run_id, [
            pair for path in self._trial_paths(run_id)
            for pair in recover_trial_file(path)[0]])

    def _latest_records(self, run_id: str,
                        pairs: list[tuple[int, Any]]) -> list[tuple[int, Any]]:
        """Dedupe records per index with error-supersede semantics, in index order.

        A resumed or sharded run legitimately holds several records for one
        index: an attempt that crashed or timed out left an ``"error"``
        record and a later attempt superseded it.  Because a legacy resume
        may re-partition the remaining indices across *different* shards, the
        error record and the superseding measurement can appear in either
        read order — the successful record wins regardless.  Two
        *successful* records for one index still raise: that signature means
        two writers raced on the same run, which the store must not paper
        over.
        """
        latest: dict[int, Any] = {}
        for index, record in pairs:
            prev = latest.get(index)
            if prev is None:
                latest[index] = record
                continue
            prev_error = getattr(prev, "status", None) == "error"
            this_error = getattr(record, "status", None) == "error"
            if not prev_error and not this_error:
                raise RunStoreError(
                    f"run {run_id!r} has duplicate trial index {index} "
                    f"(the earlier record is not an error record)")
            if prev_error:
                latest[index] = record  # measurement (or newer error) wins
            # else: keep the measurement; the error record is stale
        return sorted(latest.items())

    def merge_shards(self, run_id: str) -> int:
        """Compact shard directories into the flat ``trials.jsonl`` layout.

        Recovers per-shard torn tails, dedupes every record through the
        error-supersede rules, verifies each provenance-stamped record
        against the manifest's spec hash, rewrites the flat file atomically
        in canonical index order, and removes the shard directories.
        Idempotent: a run with no shard directories returns unchanged.

        Returns the number of shard directories merged away.
        """
        import shutil

        # The whole read-shards -> rewrite-flat-file -> delete-shards cycle
        # runs under the store lock: a second merge racing this window could
        # resurrect deleted shards or clobber the compacted file.
        with self._manifest_lock(run_id):
            shard_ks = self.shard_ids(run_id)
            if not shard_ks:
                return 0
            manifest = self.manifest(run_id)
            latest = self.recover(run_id)
            for index, record in latest:
                stamped = getattr(record, "spec_hash", None)
                if (stamped is not None and manifest.spec_hash
                        and stamped != manifest.spec_hash):
                    raise RunStoreError(
                        f"run {run_id!r}: shard record for trial {index} was "
                        f"produced by a different campaign (record spec hash "
                        f"{stamped}, manifest {manifest.spec_hash}); refusing "
                        f"to merge")
            atomic_write_text(trials_path(self.run_path(run_id)), b"".join(
                encode_trial(index, record) for index, record in latest).decode("utf-8"))
            for shard in shard_ks:
                shutil.rmtree(self.shard_path(run_id, shard),
                              ignore_errors=True)
            return len(shard_ks)

    def completed_indices(self, run_id: str) -> set[int]:
        """Indices of the trials already persisted *successfully* for a run.

        An index whose latest record is an ``"error"`` record (worker crash,
        soft timeout) is treated as missing, so resume re-runs exactly the
        casualties without re-solving completed trials.
        """
        pairs = self._latest_records(run_id, self.read_trials(run_id)[0])
        return {index for index, record in pairs
                if getattr(record, "status", None) != "error"}

    # ------------------------------------------------------------------ #
    # reading whole results back
    # ------------------------------------------------------------------ #
    def load_result(self, run_id: str, *, allow_partial: bool = False):
        """Rebuild the :class:`CampaignResult` of a stored run — zero solves.

        The returned result is trial-identical to the one the original
        ``run_campaign`` call returned (asserted in the test suite).  By
        default an incomplete run raises; ``allow_partial=True`` returns
        whatever is persisted (trials sorted into canonical order).
        """
        from repro.faults.campaign import CampaignResult

        manifest = self.manifest(run_id)
        raw, torn = self.read_trials(run_id)
        pairs = self._latest_records(run_id, raw)
        if not allow_partial and (torn or len(pairs) < manifest.total_trials):
            raise RunStoreError(
                f"run {run_id!r} is incomplete ({len(pairs)}/{manifest.total_trials} "
                f"trials{' + torn tail' if torn else ''}); resume it first or "
                f"pass allow_partial=True")
        return CampaignResult(
            problem_name=manifest.problem_name,
            mgs_position=manifest.mgs_position,
            inner_iterations=manifest.inner_iterations,
            detector_enabled=manifest.detector_enabled,
            failure_free_outer=manifest.failure_free_outer,
            failure_free_residual=manifest.failure_free_residual,
            trials=[record for _, record in pairs],
            repro_version=manifest.repro_version,
            seed=manifest.seed,
            spec_hash=manifest.spec_hash,
        )

    def query(self, run_id: str, *, allow_partial: bool = True) -> TrialQuery:
        """A :class:`TrialQuery` over a stored run's trial records."""
        pairs = self._latest_records(run_id, self.read_trials(run_id)[0])
        if not allow_partial:
            manifest = self.manifest(run_id)
            if len(pairs) < manifest.total_trials:
                raise RunStoreError(
                    f"run {run_id!r} is incomplete "
                    f"({len(pairs)}/{manifest.total_trials} trials)")
        return TrialQuery(record for _, record in pairs)

    # ------------------------------------------------------------------ #
    # non-campaign artifacts (Table I, Figure 2)
    # ------------------------------------------------------------------ #
    def _artifact_path(self, name: str) -> str:
        if not _RUN_ID_RE.match(name):
            raise RunStoreError(f"invalid artifact name {name!r}")
        return os.path.join(self.root, _ARTIFACTS, name + ".json")

    def save_artifact(self, name: str, payload: dict) -> None:
        """Persist a provenance-stamped JSON artifact under the store."""
        from repro import __version__

        path = self._artifact_path(name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        from repro.results.events import _jsonable

        atomic_write_json(path, {"name": name, "repro_version": __version__,
                                 "payload": payload},
                          indent=2, default=_jsonable)

    def has_artifact(self, name: str) -> bool:
        """True if an artifact with this name is stored."""
        return os.path.isfile(self._artifact_path(name))

    def load_artifact(self, name: str) -> dict:
        """The payload saved by :meth:`save_artifact`."""
        try:
            with open(self._artifact_path(name), "r", encoding="utf-8") as handle:
                return json.load(handle)["payload"]
        except FileNotFoundError:
            raise RunStoreError(f"no artifact {name!r} in {self.root}") from None
        except (json.JSONDecodeError, KeyError) as exc:
            raise RunStoreError(f"corrupt artifact {name!r}: {exc}") from None

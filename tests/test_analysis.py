"""Tests for :mod:`repro.analysis` — framework, the five rules, CLI,
and the self-hosting acceptance gate.

Fixture trees are written under ``tmp_path`` mirroring the package layout
(``<tmp>/repro/service/x.py``) so rule path filters and the scan-relative
path convention (``repro/...``) are exercised exactly as in production.
"""

import json
import os
import textwrap
import threading

import pytest

from repro.analysis import Finding, run_lint
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import (AtomicDurabilityRule, DeterminismRule,
                                  EventKindExhaustivenessRule,
                                  ForkLockSafetyRule,
                                  RegistrySpecCoherenceRule)
from repro.results.store import RunManifest, RunStore

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def write_tree(tmp_path, files):
    """Write ``{rel: source}`` under tmp_path; return the scan target."""
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(tmp_path / "repro")


def lint_fixture(tmp_path, files, rule_cls):
    return run_lint(write_tree(tmp_path, files), rules=[rule_cls()])


# --------------------------------------------------------------------- #
# framework: pragmas, baselines, parse failures, report schema
# --------------------------------------------------------------------- #
class TestFramework:
    VIOLATION = {
        "repro/service/writer.py": """\
            import json

            def save(path, payload):
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            """,
    }

    def test_violation_is_active_and_fails(self, tmp_path):
        report = lint_fixture(tmp_path, self.VIOLATION, AtomicDurabilityRule)
        assert report.exit_code == 1
        assert {f.rule for f in report.active} == {"RPR001"}
        assert all(f.file == "repro/service/writer.py" for f in report.active)

    def test_pragma_suppresses_one_line(self, tmp_path):
        files = {
            "repro/service/writer.py": """\
                def save(path, text):
                    with open(path, "w") as fh:  # repro: allow(RPR001)
                        fh.write(text)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.exit_code == 0
        assert len(report.suppressed) == 1 and not report.active

    def test_star_pragma_suppresses_every_rule(self, tmp_path):
        files = {
            "repro/service/writer.py": """\
                def save(path, text):
                    with open(path, "w") as fh:  # repro: allow(*)
                        fh.write(text)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.exit_code == 0 and len(report.suppressed) == 1

    def test_pragma_on_other_line_does_not_suppress(self, tmp_path):
        files = {
            "repro/service/writer.py": """\
                # repro: allow(RPR001)
                def save(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.exit_code == 1

    def test_baseline_grandfathers_and_detects_stale(self, tmp_path):
        target = write_tree(tmp_path, self.VIOLATION)
        first = run_lint(target, rules=[AtomicDurabilityRule()])
        entries = [{"rule": f.rule, "file": f.file, "message": f.message}
                   for f in first.findings]
        entries.append({"rule": "RPR001", "file": "repro/service/gone.py",
                        "message": "a finding that no longer exists"})
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"version": 1, "findings": entries}))
        report = run_lint(target, rules=[AtomicDurabilityRule()],
                          baseline=str(baseline))
        assert report.exit_code == 0
        assert len(report.baselined) == len(first.findings)
        assert report.stale_baseline == [
            ("RPR001", "repro/service/gone.py",
             "a finding that no longer exists")]

    def test_malformed_baseline_raises(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"findings": [{"rule": "RPR001"}]}))
        with pytest.raises(ValueError, match="malformed baseline entry"):
            run_lint(str(tmp_path / "repro"), rules=[],
                     baseline=str(baseline))

    def test_parse_failure_reported_as_rpr000(self, tmp_path):
        files = {"repro/service/broken.py": "def oops(:\n"}
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.exit_code == 1
        assert [f.rule for f in report.active] == ["RPR000"]
        assert "does not parse" in report.active[0].message

    def test_json_report_schema(self, tmp_path):
        report = lint_fixture(tmp_path, self.VIOLATION, AtomicDurabilityRule)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["version"] == 1
        assert set(payload["summary"]) == {
            "files", "findings", "active", "suppressed", "baselined",
            "severities", "stale_baseline"}
        assert payload["summary"]["active"] == len(report.active)
        for entry in payload["findings"]:
            assert {"rule", "severity", "file", "line", "col",
                    "message"} <= set(entry)
        assert payload["rules"][0]["id"] == "RPR001"

    def test_findings_sorted_by_location(self, tmp_path):
        files = {
            "repro/service/b.py": """\
                def save(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
                """,
            "repro/service/a.py": """\
                def save(path, text):
                    with open(path, "w") as fh:
                        fh.write(text)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert [f.file for f in report.findings] == [
            "repro/service/a.py", "repro/service/b.py"]

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="severity"):
            Finding(rule="RPRX", severity="fatal", file="x.py", line=1,
                    col=0, message="nope")


# --------------------------------------------------------------------- #
# RPR001 atomic durability
# --------------------------------------------------------------------- #
class TestAtomicDurabilityRule:
    def test_catches_bare_write_and_json_dump(self, tmp_path):
        report = lint_fixture(tmp_path, TestFramework.VIOLATION,
                              AtomicDurabilityRule)
        messages = [f.message for f in report.active]
        assert any("truncating open" in m for m in messages)
        assert any("json.dump" in m for m in messages)

    def test_tmp_then_replace_is_clean(self, tmp_path):
        files = {
            "repro/service/writer.py": """\
                import os

                def save(path, text):
                    tmp = f"{path}.{os.getpid()}.tmp"
                    with open(tmp, "w") as fh:
                        fh.write(text)
                    os.replace(tmp, path)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.findings == []

    def test_append_mode_is_clean(self, tmp_path):
        files = {
            "repro/service/writer.py": """\
                def append(path, line):
                    with open(path, "a") as fh:
                        fh.write(line)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.findings == []

    def test_out_of_scope_module_not_checked(self, tmp_path):
        files = {
            "repro/core/notdurable.py": """\
                import json

                def save(path, payload):
                    with open(path, "w") as fh:
                        json.dump(payload, fh)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert report.findings == []

    def test_unlocked_rmw_flagged_locked_clean(self, tmp_path):
        files = {
            "repro/service/store.py": """\
                class Store:
                    def racy_merge(self, key, value):
                        record = self.load(key)
                        record[key] = value
                        self.save(record)

                    def safe_merge(self, key, value):
                        with self.lock():
                            record = self.load(key)
                            record[key] = value
                            self.save(record)
                """,
        }
        report = lint_fixture(tmp_path, files, AtomicDurabilityRule)
        assert len(report.active) == 1
        assert "racy_merge" in report.active[0].message
        assert "lock" in report.active[0].message


# --------------------------------------------------------------------- #
# RPR002 determinism
# --------------------------------------------------------------------- #
class TestDeterminismRule:
    def test_catches_wall_clock_and_unseeded_rng(self, tmp_path):
        files = {
            "repro/core/trial.py": """\
                import random
                import time
                import numpy as np

                def jitter():
                    stamp = time.time()
                    noise = random.random()
                    draw = np.random.rand(3)
                    rng = np.random.default_rng()
                    return stamp, noise, draw, rng
                """,
        }
        report = lint_fixture(tmp_path, files, DeterminismRule)
        messages = " | ".join(f.message for f in report.active)
        assert len(report.active) == 4
        assert "time.time()" in messages
        assert "random.random()" in messages
        assert "np.random.rand()" in messages
        assert "no seed" in messages

    def test_seeded_generator_is_clean(self, tmp_path):
        files = {
            "repro/faults/inject.py": """\
                import numpy as np

                def trial_rng(seed, index):
                    return np.random.default_rng((seed & 0xFFFFFFFF, index))
                """,
        }
        report = lint_fixture(tmp_path, files, DeterminismRule)
        assert report.findings == []

    def test_catches_set_iteration_sorted_is_clean(self, tmp_path):
        files = {
            "repro/exec/plan.py": """\
                def order(indices):
                    bad = [i for i in set(indices)]
                    good = [i for i in sorted(set(indices))]
                    for item in {1, 2, 3}:
                        bad.append(item)
                    return bad, good
                """,
        }
        report = lint_fixture(tmp_path, files, DeterminismRule)
        assert len(report.active) == 2
        assert all("set" in f.message for f in report.active)

    def test_out_of_scope_module_not_checked(self, tmp_path):
        files = {
            "repro/results/timing.py": """\
                import time

                def now():
                    return time.time()
                """,
        }
        report = lint_fixture(tmp_path, files, DeterminismRule)
        assert report.findings == []

    def test_pragma_allows_infrastructure_wall_clock(self, tmp_path):
        files = {
            "repro/exec/heartbeat.py": """\
                import time

                def stamp():
                    return time.time()  # repro: allow(RPR002)
                """,
        }
        report = lint_fixture(tmp_path, files, DeterminismRule)
        assert report.exit_code == 0 and len(report.suppressed) == 1


# --------------------------------------------------------------------- #
# RPR003 registry/spec coherence (semantic; probes the live library)
# --------------------------------------------------------------------- #
class TestRegistrySpecCoherenceRule:
    def test_gated_off_on_fixture_trees(self, tmp_path):
        files = {"repro/other.py": "x = 1\n"}
        report = lint_fixture(tmp_path, files, RegistrySpecCoherenceRule)
        assert report.findings == []

    def test_clean_on_real_tree(self):
        report = run_lint(SRC_REPRO, rules=[RegistrySpecCoherenceRule()])
        assert report.active == [], "\n".join(
            f.render() for f in report.active)

    def test_catches_unbindable_registry_entry(self):
        from repro.registry import registry

        @registry.register("detector", "rpr003-bogus",
                           positional=("no_such_param",))
        def _bogus(ctx):
            return None

        try:
            report = run_lint(SRC_REPRO,
                              rules=[RegistrySpecCoherenceRule()])
            hits = [f for f in report.active
                    if "rpr003-bogus" in f.message]
            assert hits and "no_such_param" in hits[0].message
        finally:
            del registry._spaces["detector"]["rpr003-bogus"]

    def test_catches_factory_without_context_param(self):
        from repro.registry import registry

        @registry.register("detector", "rpr003-noctx")
        def _noctx(value):
            return None

        try:
            report = run_lint(SRC_REPRO,
                              rules=[RegistrySpecCoherenceRule()])
            hits = [f for f in report.active
                    if "rpr003-noctx" in f.message]
            assert hits and "ResolveContext" in hits[0].message
        finally:
            del registry._spaces["detector"]["rpr003-noctx"]

    def test_catches_bogus_cli_flag_mapping(self, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setitem(runner.SPEC_FLAG_DESTS,
                            "bogus_flag", "no_such_field")
        report = run_lint(SRC_REPRO, rules=[RegistrySpecCoherenceRule()])
        messages = [f.message for f in report.active]
        assert any("bogus_flag" in m and "no such argument" in m
                   for m in messages)
        assert any("no_such_field" in m for m in messages)

    def test_catches_unprobed_fingerprint_exclusion(self, monkeypatch):
        import repro.results.store as store_mod

        monkeypatch.setattr(store_mod, "FINGERPRINT_EXCLUDED_FIELDS",
                            store_mod.FINGERPRINT_EXCLUDED_FIELDS
                            + ("not_a_field",))
        report = run_lint(SRC_REPRO, rules=[RegistrySpecCoherenceRule()])
        assert any("not_a_field" in f.message for f in report.active)


# --------------------------------------------------------------------- #
# RPR004 event-kind exhaustiveness
# --------------------------------------------------------------------- #
class TestEventKindExhaustivenessRule:
    def test_catches_undeclared_kinds_in_every_emission_shape(self, tmp_path):
        files = {
            "repro/core/emit.py": """\
                from repro.results.events import Event

                def emit(log, stream):
                    Event("totally_bogus_kind", outer=1)
                    log.record("another_bogus_kind")
                    _stream_line({"kind": "stream_bogus_kind"})
                """,
        }
        report = lint_fixture(tmp_path, files, EventKindExhaustivenessRule)
        kinds = {f.message.split("'")[1] for f in report.active}
        assert kinds == {"totally_bogus_kind", "another_bogus_kind",
                         "stream_bogus_kind"}

    def test_declared_kinds_are_clean(self, tmp_path):
        files = {
            "repro/core/emit.py": """\
                from repro.results.events import Event

                def emit(log):
                    Event("fault_injected", outer=1)
                    Event(kind="trial_completed")
                    log.record("happy_breakdown")
                """,
        }
        report = lint_fixture(tmp_path, files, EventKindExhaustivenessRule)
        assert report.findings == []

    def test_reverse_check_only_when_events_module_present(self, tmp_path):
        # No repro/results/events.py in the tree: no never-emitted warnings.
        files = {"repro/core/quiet.py": "x = 1\n"}
        report = lint_fixture(tmp_path, files, EventKindExhaustivenessRule)
        assert report.findings == []
        # With the module present and nothing emitted, every declared kind
        # is reported as never-emitted — at warning severity (exit 0).
        files["repro/results/events.py"] = "EVENT_KINDS = frozenset()\n"
        report = lint_fixture(tmp_path, files, EventKindExhaustivenessRule)
        assert report.findings and not report.active
        assert all(f.severity == "warning" and "never emitted" in f.message
                   for f in report.findings)

    def test_clean_on_real_tree(self):
        report = run_lint(SRC_REPRO, rules=[EventKindExhaustivenessRule()])
        assert report.active == [], "\n".join(
            f.render() for f in report.active)
        # The declared<->emitted tables agree in both directions.
        assert not [f for f in report.findings if f.severity == "warning"]


# --------------------------------------------------------------------- #
# RPR005 fork/lock safety
# --------------------------------------------------------------------- #
class TestForkLockSafetyRule:
    def test_catches_raw_os_fork(self, tmp_path):
        files = {
            "repro/exec/spawner.py": """\
                import os

                def spawn():
                    return os.fork()
                """,
        }
        report = lint_fixture(tmp_path, files, ForkLockSafetyRule)
        assert len(report.active) == 1
        assert "os.fork" in report.active[0].message

    def test_catches_thread_in_forking_module(self, tmp_path):
        files = {
            "repro/service/mixed.py": """\
                import multiprocessing
                import threading

                def run(job):
                    ctx = multiprocessing.get_context("fork")
                    watcher = threading.Thread(target=print, daemon=True)
                    watcher.start()
                    return ctx.Process(target=job)
                """,
        }
        report = lint_fixture(tmp_path, files, ForkLockSafetyRule)
        assert len(report.active) == 1
        assert "forks" in report.active[0].message

    def test_thread_without_fork_is_clean(self, tmp_path):
        files = {
            "repro/service/threads.py": """\
                import threading

                def watch():
                    return threading.Thread(target=print, daemon=True)
                """,
        }
        report = lint_fixture(tmp_path, files, ForkLockSafetyRule)
        assert report.findings == []

    def test_catches_unpaired_flock(self, tmp_path):
        files = {
            "repro/results/store.py": """\
                import fcntl

                def hold(handle):
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
                """,
        }
        report = lint_fixture(tmp_path, files, ForkLockSafetyRule)
        assert len(report.active) == 1
        assert "LOCK_UN" in report.active[0].message

    def test_paired_flock_is_clean(self, tmp_path):
        files = {
            "repro/results/store.py": """\
                import fcntl

                def hold(handle):
                    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)

                def release(handle):
                    fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
                """,
        }
        report = lint_fixture(tmp_path, files, ForkLockSafetyRule)
        assert report.findings == []

    def test_out_of_scope_module_not_checked(self, tmp_path):
        files = {
            "repro/core/forky.py": """\
                import os

                def spawn():
                    return os.fork()
                """,
        }
        report = lint_fixture(tmp_path, files, ForkLockSafetyRule)
        assert report.findings == []


# --------------------------------------------------------------------- #
# CLI: exit codes, formats, baseline workflow
# --------------------------------------------------------------------- #
class TestCli:
    def test_exit_two_on_missing_target(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_exit_two_on_unknown_rule(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--rules", "RPR999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_exit_one_on_violation_zero_when_clean(self, tmp_path, capsys):
        target = write_tree(tmp_path, TestFramework.VIOLATION)
        assert lint_main([target, "--no-baseline"]) == 1
        clean = tmp_path / "clean" / "repro"
        clean.mkdir(parents=True)
        (clean / "ok.py").write_text("x = 1\n")
        capsys.readouterr()
        assert lint_main([str(clean), "--no-baseline"]) == 0

    def test_json_format_is_parseable(self, tmp_path, capsys):
        target = write_tree(tmp_path, TestFramework.VIOLATION)
        code = lint_main([target, "--format", "json", "--no-baseline"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["summary"]["active"] >= 1

    def test_write_then_use_baseline(self, tmp_path, capsys):
        target = write_tree(tmp_path, TestFramework.VIOLATION)
        baseline = str(tmp_path / "baseline.json")
        assert lint_main([target, "--write-baseline", baseline]) == 0
        assert lint_main([target, "--baseline", baseline]) == 0
        out = capsys.readouterr().out
        assert "[baselined]" in out

    def test_rules_filter_scopes_the_run(self, tmp_path):
        target = write_tree(tmp_path, TestFramework.VIOLATION)
        assert lint_main([target, "--rules", "RPR002",
                          "--no-baseline"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
            assert rule_id in out

    def test_repro_cli_dispatches_lint(self, capsys):
        from repro.experiments.runner import main

        assert main(["lint", "--list-rules"]) == 0
        assert "RPR001" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# self-hosting acceptance gate
# --------------------------------------------------------------------- #
class TestSelfHosting:
    def test_repro_source_tree_has_zero_active_findings(self):
        baseline = os.path.join(REPO_ROOT, "lint-baseline.json")
        report = run_lint(
            SRC_REPRO,
            baseline=baseline if os.path.isfile(baseline) else None)
        assert report.active == [], "\n".join(
            f.render() for f in report.active)
        assert report.files_scanned > 50

    def test_suppressions_are_visible_not_silent(self):
        # A pragma'd wall-clock read stays reported as suppressed (see
        # test_pragma_allows_infrastructure_wall_clock); the tree needs none,
        # since the supervisor times its deadlines with time.monotonic().
        report = run_lint(SRC_REPRO)
        assert [f.render() for f in report.findings if f.rule == "RPR002"] == []


# --------------------------------------------------------------------- #
# regression: concurrent manifest RMW keeps every key (the RPR001 fix)
# --------------------------------------------------------------------- #
class TestManifestLockRegression:
    def _manifest(self, run_id="r1", total=4):
        return RunManifest(
            run_id=run_id, spec={"stride": 1}, spec_hash="abc",
            problem_name="p", repro_version="1", seed=7,
            mgs_position="first", inner_iterations=5,
            detector_enabled=False, failure_free_outer=3,
            failure_free_residual=1e-9, locations=[0],
            fault_classes=["large"], total_trials=total)

    def test_concurrent_update_manifest_extra_loses_no_keys(self, tmp_path):
        store = RunStore(tmp_path)
        store.write_manifest(self._manifest())
        errors = []

        def update(i):
            try:
                store.update_manifest_extra("r1", **{f"key_{i}": i})
            except Exception as exc:  # noqa: BLE001 - surfaced via assert
                errors.append(exc)

        threads = [threading.Thread(target=update, args=(i,))
                   for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        extra = store.manifest("r1").extra
        assert {f"key_{i}" for i in range(16)} <= set(extra)
        assert all(extra[f"key_{i}"] == i for i in range(16))

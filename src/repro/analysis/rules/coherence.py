"""RPR003 — registry / spec / fingerprint / CLI coherence.

The config-first surface (PR 4) is a set of cross-layer promises:

* every registered component's declared colon-positional names exist on
  its factory, so every spec string that names it can actually bind;
* every paper fault model's ``to_spec()`` round-trips through
  ``resolve_fault_model`` back to the same spec;
* a representative :class:`~repro.specs.CampaignSpec` survives the
  ``to_dict -> JSON -> from_dict`` cycle unchanged;
* every ``CampaignSpec`` field either changes
  :func:`~repro.results.store.campaign_fingerprint` or is listed on the
  documented exclusion list
  (:data:`~repro.results.store.FINGERPRINT_EXCLUDED_FIELDS`), and no
  ``ExecutionSpec`` knob ever changes it;
* every CLI flag in the runner's ``SPEC_FLAG_DESTS`` table exists on the
  argparse parser and its dotted path resolves to a real spec field.

Unlike the purely syntactic rules this one *imports the library under
analysis* and probes it — it only runs when the scanned tree is the repro
source tree itself (the self-hosting configuration), never on fixture
trees.  A new spec field without a probe value below is itself a finding:
extend :data:`CAMPAIGN_FIELD_PROBES` / :data:`EXEC_FIELD_PROBES` (or the
exclusion list) in the same change that adds the field.
"""

from __future__ import annotations

import inspect
import json
import os
from typing import Any, Iterable

from repro.analysis.core import Project, ProjectRule
from repro.analysis.findings import Finding

__all__ = ["RegistrySpecCoherenceRule",
           "CAMPAIGN_FIELD_PROBES", "EXEC_FIELD_PROBES"]

#: A valid non-default value per CampaignSpec field, used to probe whether
#: the field enters the campaign fingerprint.
CAMPAIGN_FIELD_PROBES: dict[str, Any] = {
    "problem": "poisson:8",
    "inner_iterations": 26,
    "max_outer": 101,
    "outer_tol": 1e-7,
    "fault_classes": {"probe": "bitflip"},
    "mgs_position": "last",
    "detector": "bound",
    "detector_response": "flag",
    "site": "spmv",
    "fault_rate": 2,
    "fault_persistence": "sticky",
    "stride": 2,
    "locations": (1, 2),
    "solver": {"method": "ft_gmres", "orthogonalization": "cgs2"},
    "exec": {"backend": "batched"},
}

#: A valid ExecutionSpec construction exercising each knob — none of these
#: may change the fingerprint (execution is excluded wholesale).
EXEC_FIELD_PROBES: dict[str, dict[str, Any]] = {
    "backend": {"backend": "sharded"},
    "workers": {"workers": 3},
    "batch_size": {"batch_size": 9},
    "trial_timeout": {"trial_timeout": 12.5},
    "max_retries": {"workers": 2, "max_retries": 5},
}


def _rel_path(path: str | None) -> str:
    """A repro-relative path (``repro/...``) for an absolute source file."""
    if not path:
        return "repro/registry.py"
    import repro

    base = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    rel = os.path.relpath(os.path.abspath(path), base)
    return rel.replace(os.sep, "/")


def _anchor(obj) -> tuple[str, int]:
    """``(rel_path, line)`` of a live object's definition, best effort."""
    try:
        path = inspect.getsourcefile(obj)
        _, line = inspect.getsourcelines(obj)
        return _rel_path(path), line
    except (TypeError, OSError):
        return "repro/registry.py", 1


class RegistrySpecCoherenceRule(ProjectRule):
    id = "RPR003"
    name = "registry-spec-coherence"
    description = ("registered components, spec round-trips, fingerprint "
                   "coverage, and CLI flag tables must agree")

    def check_project(self, project: Project) -> Iterable[Finding]:
        # Semantic checks probe the importable library; they are only
        # meaningful when the scanned tree IS the library source tree.
        if project.file("repro/specs.py") is None:
            return []
        findings: list[Finding] = []
        for check in (self._check_registry, self._check_fault_round_trips,
                      self._check_spec_round_trip,
                      self._check_fingerprint_coverage,
                      self._check_cli_flags):
            try:
                findings.extend(check())
            except Exception as exc:  # a crashed check IS a coherence failure
                findings.append(self.project_finding(
                    "repro/specs.py", 1,
                    f"coherence check {check.__name__} crashed: "
                    f"{type(exc).__name__}: {exc}"))
        return findings

    # ------------------------------------------------------------------ #
    def _check_registry(self) -> Iterable[Finding]:
        from repro.registry import NAMESPACES, registry

        for namespace in NAMESPACES:
            space = registry._spaces[namespace]
            seen: set[int] = set()
            for entry in space.values():
                if id(entry) in seen:
                    continue
                seen.add(id(entry))
                try:
                    params = inspect.signature(entry.factory).parameters
                except (TypeError, ValueError):
                    continue  # C-level factory: nothing to check statically
                names = list(params)
                has_var_kw = any(p.kind is inspect.Parameter.VAR_KEYWORD
                                 for p in params.values())
                rel, line = _anchor(entry.factory)
                if not names or names[0] not in ("ctx", "context"):
                    yield self.project_finding(
                        rel, line,
                        f"{namespace} {entry.name!r}: factory's first "
                        f"parameter must be the ResolveContext "
                        f"(got {names[:1] or 'no parameters'})")
                for positional in entry.positional:
                    if positional not in names and not has_var_kw:
                        yield self.project_finding(
                            rel, line,
                            f"{namespace} {entry.name!r} declares colon "
                            f"positional {positional!r} but its factory "
                            f"accepts {names[1:]}; spec strings like "
                            f"'{entry.name}:...' cannot bind")

    # ------------------------------------------------------------------ #
    def _check_fault_round_trips(self) -> Iterable[Finding]:
        from repro.faults.models import PAPER_FAULT_CLASSES
        from repro.registry import resolve_fault_model

        for label, model in sorted(PAPER_FAULT_CLASSES.items()):
            spec = model.to_spec()
            rel, line = _anchor(type(model))
            try:
                rebuilt = resolve_fault_model(spec)
            except Exception as exc:
                yield self.project_finding(
                    rel, line,
                    f"fault class {label!r}: to_spec() produced {spec!r} "
                    f"which resolve_fault_model cannot rebuild ({exc})")
                continue
            if rebuilt.to_spec() != spec:
                yield self.project_finding(
                    rel, line,
                    f"fault class {label!r}: to_spec() does not round-trip "
                    f"({spec!r} -> {rebuilt.to_spec()!r})")

    # ------------------------------------------------------------------ #
    def _check_spec_round_trip(self) -> Iterable[Finding]:
        from repro.specs import CampaignSpec

        spec = CampaignSpec().replace(**{
            name: value for name, value in CAMPAIGN_FIELD_PROBES.items()
            if name not in ("solver", "exec", "fault_classes")})
        payload = json.loads(json.dumps(spec.to_dict()))
        rebuilt = CampaignSpec.from_dict(payload)
        if rebuilt != spec:
            yield self.project_finding(
                "repro/specs.py", 1,
                f"CampaignSpec does not survive to_dict -> JSON -> "
                f"from_dict: {spec.to_dict()!r} rebuilt as "
                f"{rebuilt.to_dict()!r}")

    # ------------------------------------------------------------------ #
    def _check_fingerprint_coverage(self) -> Iterable[Finding]:
        import dataclasses

        from repro.results.store import (FINGERPRINT_EXCLUDED_FIELDS,
                                         campaign_fingerprint)
        from repro.specs import CampaignSpec, ExecutionSpec

        campaign_fields = [f.name for f in dataclasses.fields(CampaignSpec)]
        for name in FINGERPRINT_EXCLUDED_FIELDS:
            if name not in campaign_fields:
                yield self.project_finding(
                    "repro/results/store.py", 1,
                    f"FINGERPRINT_EXCLUDED_FIELDS names {name!r}, which is "
                    f"not a CampaignSpec field")
        default = CampaignSpec()
        base = campaign_fingerprint(default, "probe-problem")
        for name in campaign_fields:
            if name not in CAMPAIGN_FIELD_PROBES:
                yield self.project_finding(
                    "repro/specs.py", 1,
                    f"CampaignSpec.{name} has no fingerprint probe; add it "
                    f"to CAMPAIGN_FIELD_PROBES (repro/analysis/rules/"
                    f"coherence.py) or to FINGERPRINT_EXCLUDED_FIELDS")
                continue
            # coerce (not replace): the solver/exec probes are dict forms.
            probed = CampaignSpec.coerce(default,
                                         **{name: CAMPAIGN_FIELD_PROBES[name]})
            changed = campaign_fingerprint(probed, "probe-problem") != base
            excluded = name in FINGERPRINT_EXCLUDED_FIELDS
            if excluded and changed:
                yield self.project_finding(
                    "repro/results/store.py", 1,
                    f"CampaignSpec.{name} is on FINGERPRINT_EXCLUDED_FIELDS "
                    f"but changing it changes the fingerprint")
            elif not excluded and not changed:
                yield self.project_finding(
                    "repro/results/store.py", 1,
                    f"CampaignSpec.{name} does not enter the campaign "
                    f"fingerprint and is not on FINGERPRINT_EXCLUDED_FIELDS"
                    f"; resume could silently mix incompatible campaigns")
        exec_fields = [f.name for f in dataclasses.fields(ExecutionSpec)]
        for name in exec_fields:
            if name not in EXEC_FIELD_PROBES:
                yield self.project_finding(
                    "repro/specs.py", 1,
                    f"ExecutionSpec.{name} has no fingerprint probe; add it "
                    f"to EXEC_FIELD_PROBES (repro/analysis/rules/"
                    f"coherence.py)")
                continue
            kwargs = EXEC_FIELD_PROBES[name]
            probe_exec = ExecutionSpec(**kwargs)
            if getattr(probe_exec, name) == getattr(ExecutionSpec(), name):
                yield self.project_finding(
                    "repro/specs.py", 1,
                    f"EXEC_FIELD_PROBES[{name!r}] does not actually set "
                    f"ExecutionSpec.{name} to a non-default value")
                continue
            probed = default.replace(exec=probe_exec)
            if campaign_fingerprint(probed, "probe-problem") != base:
                yield self.project_finding(
                    "repro/results/store.py", 1,
                    f"ExecutionSpec.{name} changes the campaign fingerprint"
                    f"; execution knobs are documented not to affect "
                    f"results, so resume across backends would break")

    # ------------------------------------------------------------------ #
    def _check_cli_flags(self) -> Iterable[Finding]:
        import dataclasses

        from repro.experiments.runner import SPEC_FLAG_DESTS, build_parser
        from repro.specs import CampaignSpec, ExecutionSpec, SolveSpec

        nested = {"exec": ExecutionSpec, "solver": SolveSpec}
        dests = {action.dest for action in build_parser()._actions}
        for dest, path in sorted(SPEC_FLAG_DESTS.items()):
            if dest not in dests:
                yield self.project_finding(
                    "repro/experiments/runner.py", 1,
                    f"SPEC_FLAG_DESTS maps dest {dest!r}, but build_parser() "
                    f"defines no such argument")
            cls: Any = CampaignSpec
            for i, segment in enumerate(path.split(".")):
                fields = {f.name for f in dataclasses.fields(cls)}
                if segment not in fields:
                    yield self.project_finding(
                        "repro/experiments/runner.py", 1,
                        f"SPEC_FLAG_DESTS[{dest!r}] = {path!r} does not "
                        f"resolve: {cls.__name__} has no field {segment!r}")
                    break
                cls = nested.get(segment, cls)

"""RPR004 — event-kind exhaustiveness.

Every event the library emits must use a ``kind`` declared in
:data:`repro.results.events.EVENT_KINDS` — the vocabulary the README's
event table, the sinks, and stream consumers rely on.  The rule collects
literal kinds from the three emission shapes in use:

* ``Event("kind", ...)`` / ``Event(kind="kind", ...)`` constructions;
* ``<context>.record("kind", ...)`` calls
  (:meth:`~repro.core.arnoldi.ArnoldiContext.record`, the solver-level
  helper);
* ``_stream_line({"kind": "...", ...})`` service-stream payloads.

A literal kind missing from the table is an error wherever it appears
(including fixture trees).  When the scanned tree is the repro source
itself, the reverse direction is checked too: a *declared* kind that
nothing emits is reported as a warning (dead vocabulary misleads stream
consumers).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.astutil import keyword_arg, str_const, walk_calls
from repro.analysis.core import Project, ProjectRule, SourceFile
from repro.analysis.findings import Finding

__all__ = ["EventKindExhaustivenessRule"]

_EVENTS_MODULE = "repro/results/events.py"


def _emitted_kinds(src: SourceFile) -> Iterator[tuple[str, ast.Call]]:
    """Every literal event kind emitted in one file, with its call node."""
    for call in walk_calls(src.tree):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "Event":
            kind = str_const(call.args[0] if call.args else
                             keyword_arg(call, "kind"))
            if kind is not None:
                yield kind, call
        elif name == "record":
            kind = str_const(call.args[0] if call.args else
                             keyword_arg(call, "kind"))
            if kind is not None:
                yield kind, call
        elif name == "_stream_line":
            for arg in call.args:
                if isinstance(arg, ast.Dict):
                    for key, value in zip(arg.keys, arg.values):
                        if str_const(key) == "kind":
                            kind = str_const(value)
                            if kind is not None:
                                yield kind, call


class EventKindExhaustivenessRule(ProjectRule):
    id = "RPR004"
    name = "event-kind-exhaustiveness"
    description = ("every emitted Event kind must appear in the declared "
                   "EVENT_KINDS table (and every declared kind be emitted)")

    def check_project(self, project: Project) -> Iterable[Finding]:
        from repro.results.events import EVENT_KINDS

        findings: list[Finding] = []
        emitted: set[str] = set()
        for src in project.files:
            for kind, call in _emitted_kinds(src):
                emitted.add(kind)
                if kind not in EVENT_KINDS:
                    findings.append(self.finding(
                        src, call,
                        f"event kind {kind!r} is not declared in "
                        f"repro.results.events.EVENT_KINDS; add it to the "
                        f"kind table (and the README event docs) or fix "
                        f"the typo"))
        # Reverse direction only when self-hosting on the real tree.
        events_src = project.file(_EVENTS_MODULE)
        if events_src is not None:
            for kind in sorted(EVENT_KINDS - emitted):
                findings.append(self.finding(
                    events_src, None,
                    f"declared event kind {kind!r} is never emitted; "
                    f"remove it from EVENT_KINDS or wire up the emitter",
                    severity="warning"))
        return findings

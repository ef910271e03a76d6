"""RPR002 — determinism in trial-identity modules.

The cross-backend identity contract — serial, batched and sharded
execution must produce bit-identical trial records — holds
only while everything feeding a trial's outcome is a pure function of the
campaign seed and the trial index.  This rule patrols the modules on that
path (``repro/core/``, ``repro/faults/``, ``repro/exec/``) and flags:

* ``time.time()`` — wall clock reads (infrastructure that times things,
  such as the supervisor's hard-timeout deadlines, reads
  ``time.monotonic()``, which this rule leaves alone; a wall-clock read that
  is truly infrastructure may carry a ``# repro: allow(RPR002)`` pragma);
* unseeded randomness: any ``random.*`` call, module-level
  ``np.random.<fn>(...)`` draws, and ``np.random.default_rng()`` with no
  seed (the blessed pattern is ``default_rng((seed, trial_index))`` — see
  ``repro.faults.campaign._trial_injector``);
* direct iteration over set displays/calls (set order is
  insertion-history dependent and must be ``sorted(...)`` first).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.astutil import call_name, walk_calls
from repro.analysis.core import Rule, SourceFile
from repro.analysis.findings import Finding

__all__ = ["DeterminismRule"]

TRIAL_IDENTITY_PREFIXES = ("repro/core/", "repro/faults/", "repro/exec/")

#: np.random attributes that are fine (seeded-generator constructors).
_SEEDED_CONSTRUCTORS = frozenset({"default_rng", "Generator", "SeedSequence",
                                  "PCG64", "Philox", "MT19937", "SFC64"})


class DeterminismRule(Rule):
    id = "RPR002"
    name = "determinism"
    description = ("no wall-clock, unseeded RNG, or set-iteration in "
                   "modules feeding the trial-identity contract")

    def applies_to(self, rel: str) -> bool:
        return any(rel.startswith(p) for p in TRIAL_IDENTITY_PREFIXES)

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        findings: list[Finding] = []
        for call in walk_calls(src.tree):
            name = call_name(call)
            if name is None:
                continue
            if name == "time.time":
                findings.append(self.finding(
                    src, call,
                    "time.time() in a trial-identity module; wall-clock "
                    "must not influence trial outcomes (pragma legitimate "
                    "infrastructure uses with `# repro: allow(RPR002)`)"))
            elif name.startswith("random."):
                findings.append(self.finding(
                    src, call,
                    f"{name}() draws from the unseeded process-global RNG; "
                    f"use np.random.default_rng((seed, trial_index)) so "
                    f"every backend replays the same stream"))
            else:
                findings.extend(self._check_np_random(src, call, name))
        for node in ast.walk(src.tree):
            findings.extend(self._check_set_iteration(src, node))
        return findings

    # ------------------------------------------------------------------ #
    def _check_np_random(self, src: SourceFile, call: ast.Call,
                         name: str) -> Iterable[Finding]:
        parts = name.split(".")
        if len(parts) < 3 or parts[0] not in ("np", "numpy") or parts[1] != "random":
            return
        fn = parts[2]
        if fn == "default_rng":
            if not call.args and not call.keywords:
                yield self.finding(
                    src, call,
                    "np.random.default_rng() with no seed is entropy-seeded "
                    "per process; derive the seed from (campaign seed, "
                    "trial index) instead")
        elif fn not in _SEEDED_CONSTRUCTORS:
            yield self.finding(
                src, call,
                f"np.random.{fn}() uses NumPy's process-global RNG; draw "
                f"from a per-trial np.random.default_rng((seed, "
                f"trial_index)) generator instead")

    # ------------------------------------------------------------------ #
    def _check_set_iteration(self, src: SourceFile,
                             node: ast.AST) -> Iterable[Finding]:
        iters: list[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if self._is_set_expr(it):
                yield self.finding(
                    src, it,
                    "iterating a set directly in a trial-identity module; "
                    "set order depends on insertion history — iterate "
                    "sorted(...) for a deterministic order")

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            return name in ("set", "frozenset")
        return False

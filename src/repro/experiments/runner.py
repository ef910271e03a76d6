"""Command-line experiment runner (the ``repro`` console command).

Regenerates the paper's artifacts without going through pytest:

.. code-block:: bash

    repro table1 --scale small          # or: python -m repro ...
    repro fig2
    repro fig3 --scale small --stride 5
    repro fig4 --scale tiny --stride 5
    repro summary --scale small --stride 5
    repro all --scale tiny --stride 10

Each sweep panel is one :class:`~repro.specs.CampaignSpec` run through
:func:`repro.api.run_campaign`; the spec can come from a JSON file and be
patched field-by-field:

.. code-block:: bash

    # declarative campaign configuration
    repro fig3 --config campaign.json

    # dotted-path overrides on top of flags/config
    repro fig3 --scale small \\
        --set exec.backend=batched --set exec.batch_size=16 \\
        --set solver.inner.maxiter=25 --set detector=bound

Precedence (last wins): CampaignSpec defaults < ``--config`` file < explicit
flags (``--stride``/``--detector``/``--inner-iterations``/``--workers``/
``--backend``/``--batch-size``) < ``--set`` overrides.  Each subcommand
prints the same report as the corresponding benchmark in ``benchmarks/``
(tables and ASCII series plots).  The ``--scale`` choices match
``REPRO_BENCH_SCALE`` (``tiny``/``small``/``medium``/``paper``).

Persistence (the results subsystem):

.. code-block:: bash

    # checkpoint every trial into a run store; SIGTERM-safe
    repro fig3 --scale small --store runs/ --sink console:25

    # continue an interrupted invocation (skips completed trials)
    repro fig3 --scale small --store runs/ --resume

    # regenerate the report purely from the store — zero new solves
    repro fig3 --scale small --store runs/ --from-store

Runs are keyed by a deterministic id (experiment, panel, and the campaign
spec's fingerprint), so the same configuration always finds its own store
entry and a changed configuration gets a fresh one.

The campaign service (:mod:`repro.service`) shares this console command:
``repro serve --store runs/`` starts the daemon, and ``repro
submit/jobs/watch/cancel/result/runs`` talk to it (see that module's docs).
"""

from __future__ import annotations

import argparse
import json
from typing import Sequence

from repro.api import run_campaign
from repro.experiments.figure2 import figure2_payload
from repro.experiments.figure34 import FigureSweep, load_fault_sweep, sweep_run_id
from repro.experiments.report import format_table
from repro.experiments.summary import detector_comparison, summarize_campaign
from repro.experiments.table1 import table1_rows
from repro.gallery.problems import paper_problems
from repro.exec.executor import BACKENDS, BackendKnobError
from repro.registry import RegistryError
from repro.registry import names as registry_names
from repro.registry import resolve_problem, resolve_sink
from repro.results.events import MultiSink
from repro.results.store import RunStore, RunStoreError
from repro.specs import CampaignSpec, SpecError, apply_overrides, parse_override_value

__all__ = ["main", "build_parser", "run_experiment", "build_campaign_spec"]

EXPERIMENTS = ("table1", "fig2", "fig3", "fig4", "summary")


def _service_commands() -> tuple[str, ...]:
    """The service subcommand names (import deferred: the runner must not
    pay for the service stack on every experiment invocation)."""
    from repro.service.client import SERVICE_COMMANDS

    return SERVICE_COMMANDS

#: Outer-iteration budgets per problem used by the sweep experiments (applied
#: only when neither ``--config`` nor ``--set`` chooses ``max_outer``).
MAX_OUTER = {"poisson": 100, "circuit": 200}

#: The runner's historical stride default (``--stride`` beats it, and a
#: config file that sets ``stride`` beats it too).
DEFAULT_STRIDE = 5

#: Declarative map from argparse dest -> dotted CampaignSpec path for every
#: flag that patches the spec.  :func:`build_campaign_spec` applies it, and
#: the static-analysis rule RPR003 cross-checks it both ways: each dest must
#: exist on :func:`build_parser`'s parser, and each dotted path must resolve
#: to a real spec field — so a new spec-backed flag cannot silently drift
#: from the spec schema.  (``stride`` has bespoke default handling and
#: ``max_outer`` a per-problem fallback; both are special-cased in
#: :func:`build_campaign_spec` but still validated through this table.)
SPEC_FLAG_DESTS = {
    "stride": "stride",
    "detector": "detector",
    "inner_iterations": "inner_iterations",
    "site": "site",
    "fault_rate": "fault_rate",
    "trial_timeout": "exec.trial_timeout",
    "backend": "exec.backend",
    "workers": "exec.workers",
    "batch_size": "exec.batch_size",
    "max_retries": "exec.max_retries",
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the runner CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures "
                    "(also invocable as `python -m repro`).",
    )
    parser.add_argument("experiments", nargs="+",
                        choices=list(EXPERIMENTS) + ["all"],
                        help="which artifacts to regenerate")
    parser.add_argument("--scale", default="small",
                        choices=["tiny", "small", "medium", "paper"],
                        help="problem sizes (paper = Table I sizes)")
    parser.add_argument("--config", default=None, metavar="SPEC.json",
                        help="campaign spec JSON file (CampaignSpec schema); "
                             "flags and --set override its fields")
    parser.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="PATH=VALUE",
                        help="dotted CampaignSpec override applied last, e.g. "
                             "--set exec.backend=batched --set "
                             "solver.inner.maxiter=25 (values parse as JSON, "
                             "falling back to plain strings); repeatable")
    parser.add_argument("--stride", type=int, default=None,
                        help=f"injection-location stride for the sweeps "
                             f"(1 = exhaustive; default {DEFAULT_STRIDE})")
    parser.add_argument("--detector", default=None,
                        help="detector spec for the inner solves, e.g. 'bound' "
                             "(the paper's Hessenberg-bound detector) or any "
                             f"registered detector {registry_names('detector')}; "
                             "omit to disable detection")
    parser.add_argument("--inner-iterations", type=int, default=None,
                        help="inner GMRES iterations per outer iteration "
                             "(default 25)")
    parser.add_argument("--site", default=None,
                        help="injection site(s) for the sweeps: one of "
                             "hessenberg/subdiag/spmv/precond/givens/orth/"
                             "basis, '*', or a comma-separated list like "
                             "'spmv,precond,givens' (default hessenberg)")
    parser.add_argument("--fault-rate", type=int, default=None, dest="fault_rate",
                        help="switch every trial from the paper's single "
                             "injection to a rate schedule firing N faults "
                             "per nested solve, anchored at the trial's "
                             "sweep location")
    parser.add_argument("--trial-timeout", type=float, default=None,
                        dest="trial_timeout", metavar="SECONDS",
                        help="per-trial time budget: hard-enforced (stuck "
                             "worker SIGKILL-ed, trial recorded as an error, "
                             "re-run by --resume) on the sharded backend, "
                             "checked after the fact on serial and batched")
    parser.add_argument("--workers", type=int, default=None,
                        help="shard worker processes for the sweeps; more than "
                             "1 selects the sharded backend (default: "
                             "REPRO_WORKERS or 1; 0 = one per CPU)")
    parser.add_argument("--backend", default=None, choices=list(BACKENDS),
                        help="campaign execution backend (default: batched when "
                             "--batch-size is given, sharded when workers > 1, "
                             "else serial).  'batched' advances trials in "
                             "lockstep through shared block kernels in one "
                             "process and is the right choice on single-CPU "
                             "hosts; 'sharded' spreads trials over supervised, "
                             "crash-isolated worker processes (hard "
                             "timeouts, retries, poison quarantine) and wins "
                             "when spare CPU cores are available")
    parser.add_argument("--batch-size", type=int, default=None, dest="batch_size",
                        help="trials advanced in lockstep per batch "
                             "(batched backend only; default 32)")
    parser.add_argument("--max-retries", type=int, default=None,
                        dest="max_retries",
                        help="worker crashes one trial may cause before it "
                             "is quarantined as a poison error record "
                             "(sharded backend; default 3)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="persist runs into a run store directory: each "
                             "completed trial is appended (and flushed) to "
                             "DIR/<run-id>/trials.jsonl under a manifest, so "
                             "an interrupted invocation can be continued with "
                             "--resume and reports can be regenerated with "
                             "--from-store")
    parser.add_argument("--resume", action="store_true",
                        help="with --store: continue interrupted runs (only "
                             "missing trials are solved; a complete run is "
                             "just reloaded)")
    parser.add_argument("--from-store", action="store_true", dest="from_store",
                        help="with --store: regenerate the reports purely "
                             "from stored runs — zero new solves; errors if "
                             "a needed run is missing or incomplete")
    parser.add_argument("--sink", action="append", default=[], dest="sinks",
                        metavar="SPEC",
                        help="stream campaign events to a registered sink, "
                             f"e.g. 'console:25' or 'jsonl:events/' "
                             f"(registered sinks: {registry_names('sink')}); "
                             "repeatable")
    return parser


def build_campaign_spec(args, *, problem_key: str = "poisson") -> CampaignSpec:
    """The effective CampaignSpec: defaults < --config < flags < --set.

    ``problem_key`` selects the per-problem ``max_outer`` budget that the
    runner has always applied, used only when neither the config file nor a
    ``--set`` override chooses ``max_outer`` explicitly.
    """
    raw: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise SpecError("config", f"cannot read {args.config}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError("config", f"{args.config} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise SpecError("config", f"{args.config} must hold a JSON object")
    spec = CampaignSpec.from_dict(raw) if raw else CampaignSpec()

    flag_overrides: dict = {}
    # The per-problem outer budget is a fallback, applied only when no other
    # layer (config, config's solver spec, or a --set override) chooses an
    # outer budget — it must never manufacture a budget conflict.
    set_paths = {item.partition("=")[0].strip() for item in args.overrides}
    config_solver = raw.get("solver") if isinstance(raw.get("solver"), dict) else {}
    if ("max_outer" not in raw and config_solver.get("max_outer") is None
            and not {"max_outer", "solver.max_outer"} & set_paths):
        flag_overrides["max_outer"] = MAX_OUTER[problem_key]
    if args.stride is None and "stride" not in raw:
        flag_overrides["stride"] = DEFAULT_STRIDE
    for dest, path in SPEC_FLAG_DESTS.items():
        value = getattr(args, dest)
        if value is not None:
            flag_overrides[path] = value
    spec = apply_overrides(spec, flag_overrides)

    for item in args.overrides:
        path, sep, value = item.partition("=")
        if not sep or not path:
            raise SpecError("--set", f"expected PATH=VALUE, got {item!r}")
        spec = apply_overrides(spec, {path.strip(): parse_override_value(value)})
    return spec


def _store_from(args) -> RunStore | None:
    """The run store named by ``--store`` (None without the flag)."""
    if args.store is None:
        if args.resume or args.from_store:
            raise SpecError("--store",
                            "--resume/--from-store require --store DIR")
        return None
    return RunStore(args.store)


def _sink_from(args):
    """The (possibly fanned-out) event sink built from ``--sink`` specs.

    Built once per CLI invocation (cached on ``args``) so every sweep of a
    multi-experiment run streams into the same sink, and :func:`main` can
    close it on the way out.
    """
    cached = getattr(args, "_sink", None)
    if cached is not None or not args.sinks:
        return cached
    sinks = [resolve_sink(spec) for spec in args.sinks]
    args._sink = sinks[0] if len(sinks) == 1 else MultiSink(sinks)
    return args._sink


def _run_or_load_sweep(problem, panel_spec: CampaignSpec, label: str, args):
    """One stored-aware sweep panel: run, resume, or reload from the store."""
    store = _store_from(args)
    if args.from_store:
        return load_fault_sweep(store, panel_spec, problem.name, label)
    run_id = (sweep_run_id(panel_spec, problem.name, label)
              if store is not None else None)
    return run_campaign(problem, panel_spec, sink=_sink_from(args),
                        store=store, run_id=run_id, resume=args.resume)


def _print_table1(problems, scale: str, args) -> None:
    store = _store_from(args)
    artifact = f"table1-{scale}"
    if args.from_store:
        payload = store.load_artifact(artifact)
        headers, rows = payload["headers"], payload["rows"]
    else:
        headers, rows = table1_rows(problems, compute_condition=(scale != "paper"))
        if store is not None:
            store.save_artifact(artifact, {"headers": headers, "rows": rows})
    print(format_table(headers, rows, title=f"Table I (scale={scale})"))


def _print_fig2(problems, scale: str, args) -> None:
    store = _store_from(args)
    artifact = f"fig2-{scale}"
    if args.from_store:
        result = store.load_artifact(artifact)
    else:
        result = figure2_payload(problems["poisson"].A, problems["circuit"].A,
                                 steps=10)
        if store is not None:
            store.save_artifact(artifact, result)
    print("Figure 2 — structure of the projected matrix H")
    print(f"  SPD:          tridiagonal={result['spd']['is_tridiagonal']} "
          f"(bandwidth {result['spd']['bandwidth']})")
    print(f"  nonsymmetric: tridiagonal={result['nonsymmetric']['is_tridiagonal']} "
          f"(bandwidth {result['nonsymmetric']['bandwidth']})")
    print("  SPD pattern:")
    print("    " + result["spd"]["pattern"].replace("\n", "\n    "))
    print("  nonsymmetric pattern:")
    print("    " + result["nonsymmetric"]["pattern"].replace("\n", "\n    "))


def _sweep_problem(spec: CampaignSpec, problems, key: str):
    """The problem a sweep runs on: the spec's gallery spec, or the scale's."""
    if spec.problem is not None:
        return resolve_problem(spec.problem)
    return problems[key]


def _run_figure(problems, key: str, label: str, args) -> None:
    spec = build_campaign_spec(args, problem_key=key)
    problem = _sweep_problem(spec, problems, key)
    name = "fig3" if key == "poisson" else "fig4"
    panels = {}
    for position in ("first", "last"):
        panels[position] = _run_or_load_sweep(
            problem, spec.replace(problem=None, mgs_position=position),
            f"{name}-{position}", args)
    figure = FigureSweep(problem_name=problem.name, first=panels["first"],
                         last=panels["last"])
    print(f"{label} — single-SDC sweep on {problem.name}")
    print(figure.render())


def _print_summary(problems, args) -> None:
    spec = build_campaign_spec(args, problem_key="poisson")
    problem = _sweep_problem(spec, problems, "poisson")
    campaigns = {}
    for detector in (None, "bound"):
        campaign_spec = spec.replace(problem=None, mgs_position="first",
                                     detector=detector, detector_response="zero")
        campaigns[detector] = _run_or_load_sweep(
            problem, campaign_spec,
            "summary-bound" if detector == "bound" else "summary-nodetector",
            args)
    comparison = detector_comparison(campaigns[None], campaigns["bound"])
    print("Section VII-E summary (Poisson):")
    for key, campaign in (("without detector", campaigns[None]),
                          ("with detector", campaigns["bound"])):
        summary = summarize_campaign(campaign)
        print(f"  {key}: failure-free outer = {summary['failure_free_outer']}, "
              f"worst-case increase = +{summary['worst_case_increase']} "
              f"({summary['worst_case_percent']:.1f}%)")
    print(f"  detector helps or is neutral: {comparison['detector_helps']}")


def run_experiment(name: str, problems, args) -> None:
    """Run one named experiment and print its report."""
    if name == "table1":
        _print_table1(problems, args.scale, args)
    elif name == "fig2":
        _print_fig2(problems, args.scale, args)
    elif name == "fig3":
        _run_figure(problems, "poisson", "Figure 3", args)
    elif name == "fig4":
        _run_figure(problems, "circuit", "Figure 4", args)
    elif name == "summary":
        _print_summary(problems, args)
    else:  # pragma: no cover - guarded by argparse choices
        raise ValueError(f"unknown experiment {name!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    The campaign-service subcommands (``repro serve/submit/jobs/watch/
    cancel/result/runs``) are dispatched to :mod:`repro.service.client`
    and ``repro lint`` to :mod:`repro.analysis.cli` before the experiment
    parser sees the argv — one console command covers the artifact runner,
    the service, and the static-analysis gate.
    """
    import sys as _sys

    argv = list(_sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "lint":
        # Project-native static analysis (import deferred like the service
        # stack: experiments must not pay for the analysis package).
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] in _service_commands():
        from repro.service.client import service_main

        return service_main(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    names = list(EXPERIMENTS) if "all" in args.experiments else args.experiments
    problems = paper_problems(args.scale)
    try:
        for i, name in enumerate(names):
            if i:
                print("\n" + "=" * 78 + "\n")
            run_experiment(name, problems, args)
        sink = getattr(args, "_sink", None)
        if sink is not None:
            sink.close()
    except (SpecError, RegistryError, BackendKnobError, RunStoreError) as exc:
        # Bad spec fields, unresolvable component names (e.g. a typo'd
        # --detector), execution-knob conflicts, and run-store problems
        # (missing/incomplete run under --from-store, fingerprint mismatch)
        # are configuration errors, not crashes: exit code 2 with the
        # offending field/component/run named.  Anything else (a genuine
        # ValueError from the numerics) propagates with its traceback.
        parser.error(str(exc))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())

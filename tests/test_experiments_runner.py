"""Tests for the command-line experiment runner."""

from __future__ import annotations

import pytest

from repro.experiments.runner import build_parser, main
from repro.specs import SolveSpec, SpecError


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiments == ["table1"]
        assert args.scale == "small"
        # Flag defaults are None sentinels: the effective values come from
        # the CampaignSpec layer (see build_campaign_spec), so the paper's
        # numbers live in exactly one place.
        assert args.stride is None
        assert args.inner_iterations is None
        assert args.config is None
        assert args.overrides == []

    def test_effective_spec_defaults(self):
        from repro.experiments.runner import DEFAULT_STRIDE, build_campaign_spec

        args = build_parser().parse_args(["fig3"])
        spec = build_campaign_spec(args, problem_key="poisson")
        assert spec.stride == DEFAULT_STRIDE
        assert spec.inner_iterations == 25
        assert spec.max_outer == 100
        circuit = build_campaign_spec(args, problem_key="circuit")
        assert circuit.max_outer == 200

    def test_multiple_experiments(self):
        args = build_parser().parse_args(["table1", "fig2", "--scale", "tiny"])
        assert args.experiments == ["table1", "fig2"]
        assert args.scale == "tiny"

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])

    def test_rejects_unknown_scale(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "huge"])


class TestMain:
    def test_table1_and_fig2(self, capsys):
        code = main(["table1", "fig2", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table I" in out
        assert "number of rows" in out
        assert "Figure 2" in out
        assert "tridiagonal=True" in out

    def test_summary_tiny(self, capsys):
        code = main(["summary", "--scale", "tiny", "--stride", "20",
                     "--inner-iterations", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Section VII-E summary" in out
        assert "worst-case increase" in out

    def test_fig3_tiny(self, capsys):
        code = main(["fig3", "--scale", "tiny", "--stride", "15",
                     "--inner-iterations", "6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Figure 3" in out
        assert "fault class: large" in out


class TestSpecDrivenCLI:
    def _write_config(self, tmp_path, data):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_config_file_fields_apply(self, tmp_path):
        from repro.experiments.runner import build_campaign_spec

        config = self._write_config(tmp_path, {"stride": 9, "max_outer": 40,
                                               "detector": "bound"})
        args = build_parser().parse_args(["fig3", "--config", config])
        spec = build_campaign_spec(args, problem_key="poisson")
        assert spec.stride == 9          # config beats the runner default
        assert spec.max_outer == 40      # config beats the per-problem budget
        assert spec.detector == "bound"

    def test_flags_override_config(self, tmp_path):
        from repro.experiments.runner import build_campaign_spec

        config = self._write_config(tmp_path, {"stride": 9})
        args = build_parser().parse_args(
            ["fig3", "--config", config, "--stride", "3"])
        assert build_campaign_spec(args).stride == 3

    def test_set_overrides_flags_and_config(self, tmp_path):
        from repro.experiments.runner import build_campaign_spec

        config = self._write_config(tmp_path, {"stride": 9})
        args = build_parser().parse_args(
            ["fig3", "--config", config, "--stride", "3",
             "--set", "stride=7", "--set", "exec.backend=batched",
             "--set", "exec.batch_size=4", "--set", "solver.inner.orthogonalization=cgs"])
        spec = build_campaign_spec(args)
        assert spec.stride == 7
        assert spec.exec.backend == "batched"
        assert spec.exec.batch_size == 4
        assert spec.solver.inner.orthogonalization == "cgs"

    def test_config_path_matches_flag_path_end_to_end(self, tmp_path, capsys):
        """A campaign defined purely as JSON prints the identical figure."""
        code = main(["fig3", "--scale", "tiny", "--stride", "15",
                     "--inner-iterations", "6"])
        flag_out = capsys.readouterr().out
        assert code == 0
        config = self._write_config(tmp_path,
                                    {"stride": 15, "inner_iterations": 6,
                                     "max_outer": 100})
        code = main(["fig3", "--scale", "tiny", "--config", config])
        config_out = capsys.readouterr().out
        assert code == 0
        assert config_out == flag_out

    def test_config_problem_spec_selects_problem(self, tmp_path, capsys):
        config = self._write_config(tmp_path,
                                    {"problem": {"name": "poisson", "grid_n": 9},
                                     "stride": 20, "inner_iterations": 6,
                                     "max_outer": 30})
        code = main(["fig3", "--scale", "tiny", "--config", config])
        out = capsys.readouterr().out
        assert code == 0
        assert "poisson-9x9" in out

    def test_bad_set_reports_field(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--set", "exec.bogus=1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "exec.bogus" in err

    def test_invalid_knob_combination_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--backend", "sharded",
                  "--set", "exec.batch_size=8"])
        assert excinfo.value.code == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--set", "exec.backend=process"], "exec.backend"),
        (["--set", "exec.backend=thread"], "exec.backend"),
        (["--set", "exec.shards=2"], "exec.shards"),
        (["--backend", "process"], "--backend"),
        (["--shards", "2"], "--shards"),
    ])
    def test_removed_backends_and_knobs_are_clean_cli_errors(self, capsys,
                                                             argv, named):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny"] + argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--set", "exec.kernels=scipy"], "exec.kernels"),
        (["--kernels", "numpy"], "--kernels"),
        (["--set", "solver.inner.preconditioner=ilu0:zz"],
         "solver.inner.preconditioner"),
    ])
    def test_removed_kernel_tier_and_unbindable_components_exit_2(
            self, capsys, argv, named):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny"] + argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_config_file_naming_the_kernel_tier_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {"exec": {"kernels": "numpy"}})
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--config", path])
        assert excinfo.value.code == 2
        assert "exec.kernels" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, named", [
        (["--set", "exec.heartbeat_interval=0.1"], "exec.heartbeat_interval"),
        (["--heartbeat-interval", "0.1"], "--heartbeat-interval"),
        (["--set", "problem=poisson:abc"], "problem 'poisson'"),
        (["--set", "problem=poisson:-3"], "problem 'poisson'"),
        (["--set", "detector=bound:nope"], "detector 'bound'"),
        (["--set", 'fault_classes={"a": {"name": "scaling", "facto": 2.0}}'],
         "fault_classes.a"),
        (["--set", 'fault_classes={"a": {"name": "bitflip", "rng": 5}}'],
         "fault_classes.a"),
    ])
    def test_removed_heartbeat_and_bad_component_values_exit_2(self, capsys,
                                                               argv, named):
        """A removed knob, a component argument its factory rejects, and a
        fault class whose options do not bind (a fault model's removed
        ``rng``) are configuration errors."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--stride", "30"] + argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    def test_config_file_naming_the_heartbeat_interval_exits_2(self, tmp_path, capsys):
        path = self._write_config(tmp_path, {"exec": {"heartbeat_interval": 0.1}})
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--config", path])
        assert excinfo.value.code == 2
        assert "exec.heartbeat_interval" in capsys.readouterr().err

    def test_unknown_detector_is_a_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--stride", "20",
                  "--detector", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "bound" in err  # names what is registered

    def test_missing_config_file_is_a_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--config", "no-such-file.json"])
        assert excinfo.value.code == 2
        assert "no-such-file.json" in capsys.readouterr().err

    def test_solver_max_outer_does_not_conflict_with_budget_fallback(self):
        """The runner's per-problem max_outer is a fallback; a user-set
        max_outer beats it without a conflict (fig4's circuit budget of 200
        differs from the CampaignSpec default), and solver.max_outer is
        refused as a configuration error naming max_outer, not a conflict."""
        from repro.experiments.runner import build_campaign_spec
        from repro.faults.campaign import FaultCampaign
        from repro.gallery.problems import poisson_problem

        args = build_parser().parse_args(["fig4", "--set", "max_outer=150"])
        spec = build_campaign_spec(args, problem_key="circuit")
        campaign = FaultCampaign.from_spec(spec, problem=poisson_problem(6))
        assert campaign.max_outer == 150
        assert campaign.solver.max_outer == 150
        args = build_parser().parse_args(["fig4", "--set", "solver.max_outer=150"])
        with pytest.raises(SpecError, match="set max_outer instead") as excinfo:
            build_campaign_spec(args, problem_key="circuit")
        assert excinfo.value.field == "solver.max_outer"

    @pytest.mark.parametrize("argv, named", [
        (["--set", "solver.tol=1e-7"], ("solver.tol", "outer_tol")),
        (["--set", "solver.max_outer=60"], ("solver.max_outer", "max_outer")),
        (["--set", "solver.inner.maxiter=25"],
         ("solver.inner.maxiter", "inner_iterations")),
        (["--set", "solver.inner.detector=bound"], ("solver.inner.detector", "detector")),
        (["--set", "solver.inner.detector_response=flag"],
         ("solver.inner.detector_response", "detector_response")),
        (["--set", "solver.lsq_tol=1e-3"], ("solver.lsq_tol",)),
        (["--set", "solver.rank_tol=1e-3"], ("solver.rank_tol",)),
        (["--set", "solver.bound_method=two_norm"], ("solver.bound_method",)),
        (["--set", "solver.inner.bound_method=two_norm"],
         ("solver.inner.bound_method",)),
        (["--set", 'detector={"name": "bound", "slack": 2}'], ("detector", "slack")),
        (["--set", 'detector={"name": "bound", "check_nonfinite": false}'],
         ("detector", "check_nonfinite")),
        (["--set", 'problem={"name": "circuit", "n_nodes": 50, '
                   '"jacobi_equilibrate": false}'], ("problem", "jacobi_equilibrate")),
    ], ids=["tol", "max_outer", "inner-maxiter", "inner-detector",
            "inner-detector_response", "lsq_tol", "rank_tol", "bound_method",
            "inner-bound_method", "slack", "check_nonfinite", "jacobi_equilibrate"])
    def test_solver_twins_and_removed_settings_exit_2(self, capsys, argv, named):
        """A solver twin of a campaign field, and a setting that no longer
        exists, are configuration errors naming the path (and, for a twin,
        the campaign field to set instead)."""
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--stride", "30"] + argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named)

    def test_inner_iterations_flag_composes_with_an_inner_override(self, capsys):
        """``--inner-iterations`` and ``--set solver.inner.*`` set different
        things: the created inner solve carries no budget of its own, so
        they do not conflict, and the run is the one with both applied."""
        from repro.experiments.runner import build_campaign_spec

        argv = ["fig3", "--scale", "tiny", "--stride", "30", "--inner-iterations", "10",
                "--set", "solver.inner.orthogonalization=cgs"]
        spec = build_campaign_spec(build_parser().parse_args(argv))
        assert spec.inner_iterations == 10
        assert spec.solver.inner == SolveSpec(method="gmres", tol=0.0,
                                              orthogonalization="cgs")
        assert main(argv) == 0
        assert "failure-free outer iterations" in capsys.readouterr().out

    def test_executor_knob_conflict_is_a_clean_cli_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--stride", "20",
                  "--set", "exec.chunksize=4"])
        assert excinfo.value.code == 2
        assert "chunksize" in capsys.readouterr().err

    def test_malformed_config_is_a_clean_cli_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            main(["fig3", "--scale", "tiny", "--config", str(path)])
        assert excinfo.value.code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_internal_errors_are_not_masked_as_cli_errors(self, monkeypatch):
        """Only configuration errors become exit-2 parser errors; a genuine
        ValueError from the numerics keeps its traceback."""
        import repro.experiments.runner as runner_mod

        def boom(name, problems, args):
            raise ValueError("numerical kernel bug")

        monkeypatch.setattr(runner_mod, "run_experiment", boom)
        with pytest.raises(ValueError, match="numerical kernel bug"):
            runner_mod.main(["table1", "--scale", "tiny"])

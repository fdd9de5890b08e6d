import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiment.experiment import Experiment
from repro.experiment.io import save_json, save_text


@pytest.fixture
def experiment_json(tmp_path, clean_experiment_1p):
    path = tmp_path / "exp.json"
    save_json(clean_experiment_1p, path)
    return str(path)


@pytest.fixture
def experiment_text(tmp_path, noisy_experiment_1p):
    path = tmp_path / "exp.txt"
    save_text(noisy_experiment_1p, path)
    return str(path)


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["noise", "f.json"],
            ["model", "f.json", "--method", "dnn"],
            ["methods"],
            ["pretrain", "--net", "paper"],
            ["evaluate", "--params", "2"],
            ["casestudy", "kripke"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_invalid_casestudy_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["casestudy", "nonexistent"])

    def test_method_accepts_registry_specs(self):
        args = build_parser().parse_args(
            ["model", "f.json", "--method", "dnn(top_k=5)"]
        )
        assert args.method == "dnn(top_k=5)"

    def test_unknown_method_exits(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "f.json", "--method", "nope"])
        assert "registered" in capsys.readouterr().err

    def test_malformed_method_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["model", "f.json", "--method", "dnn(5)"])

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("regression(bogus=1)", "unknown keyword(s) bogus for modeler 'regression'"),
            ("regression(prefilter=winsorize(k=3))", "unknown prefilter 'winsorize'"),
        ],
    )
    def test_invalid_method_spec_exits_2_at_parse_time(self, spec, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["model", "f.json", "--method", spec])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err


class TestMethodsCommand:
    def test_lists_every_registered_modeler(self, capsys):
        from repro.modeling.registry import available_modelers

        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name, entry in available_modelers().items():
            assert f"{name}(" in out
            assert entry.description in out

    def test_every_registered_method_round_trips(self):
        """Every listed method spec must build through create_modeler."""
        from repro.modeling.pipeline import Modeler
        from repro.modeling.registry import available_modelers, create_modeler

        for name in available_modelers():
            modeler = create_modeler(f"{name}()")
            if name == "gpr":  # predictions-only baseline, no model_kernel
                continue
            assert isinstance(modeler, Modeler)
            assert modeler.method_name == name


class TestNoiseTokens:
    def test_numeric_tokens_are_percent_levels(self):
        from repro.cli import _parse_noise_tokens

        spec, levels = _parse_noise_tokens(["5", "20", "50"])
        assert spec == "uniform"
        assert levels == (0.05, 0.20, 0.50)

    def test_spec_token_names_the_model(self):
        from repro.cli import _parse_noise_tokens

        spec, levels = _parse_noise_tokens(["tainted(level=0.05)", "0", "10", "30"])
        assert spec == "tainted(level=0.05)"
        assert levels == (0.0, 0.10, 0.30)

    def test_two_spec_tokens_exit(self):
        from repro.cli import _parse_noise_tokens

        with pytest.raises(SystemExit, match="at most one"):
            _parse_noise_tokens(["tainted", "drift", "10"])

    def test_no_levels_exit(self):
        from repro.cli import _parse_noise_tokens

        with pytest.raises(SystemExit, match="numeric axis value"):
            _parse_noise_tokens(["tainted(level=0.05)"])

    def test_evaluate_parser_accepts_spec_and_prefilter(self):
        args = build_parser().parse_args(
            ["evaluate", "--noise", "tainted(level=0.05)", "0", "20",
             "--prefilter", "mad(k=3)"]
        )
        assert args.noise == ["tainted(level=0.05)", "0", "20"]
        assert args.prefilter == "mad(k=3)"


class TestTaintedCasestudyArgs:
    def test_tainted_choice_registered(self):
        args = build_parser().parse_args(
            ["casestudy", "tainted", "--contamination", "20", "--prefilter", "mad(k=3)"]
        )
        assert args.name == "tainted"
        assert args.contamination == 20.0
        assert args.prefilter == "mad(k=3)"

    def test_contamination_rejected_for_other_studies(self):
        with pytest.raises(SystemExit, match="tainted"):
            main(["casestudy", "kripke", "--contamination", "5"])

    def test_bad_prefilter_spec_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["casestudy", "tainted", "--prefilter", "winsorize(k=3)"])
        assert exit_info.value.code == 2
        assert "unknown prefilter 'winsorize': registered prefilters" in capsys.readouterr().err

    def test_bad_evaluate_prefilter_spec_fails_fast(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["evaluate", "--prefilter", "mad(j=3)"])
        assert exit_info.value.code == 2
        assert "unknown keyword(s) j for prefilter 'mad'" in capsys.readouterr().err


class TestNoiseCommand:
    def test_prints_summary(self, experiment_json, capsys):
        assert main(["noise", experiment_json]) == 0
        out = capsys.readouterr().out
        assert "pooled rrd" in out
        assert "synthetic" in out

    def test_text_format_supported(self, experiment_text, capsys):
        assert main(["noise", experiment_text]) == 0
        assert "overall" in capsys.readouterr().out


class TestGenerateCommand:
    def test_generate_then_model_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "gen.json")
        assert (
            main(
                [
                    "generate",
                    out,
                    "--params",
                    "p",
                    "--function",
                    "5 + 2 * p^(3/2)",
                    "--values",
                    "4,8,16,32,64",
                    "--repetitions",
                    "3",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["model", out, "--method", "regression"]) == 0
        printed = capsys.readouterr().out
        assert "p^(3/2)" in printed

    def test_generate_accepts_noise_spec(self, tmp_path, capsys):
        out = str(tmp_path / "tainted.json")
        assert (
            main(
                ["generate", out, "--noise", "tainted(level=0.05, p=0.4)", "--seed", "1"]
            )
            == 0
        )
        assert "TaintedRepetitionNoise" in capsys.readouterr().out
        from repro.experiment.io import load_experiment
        from repro.noise.estimation import estimate_noise_level

        exp, _ = load_experiment(out)
        # 40 % contamination with ~7x outliers: the pooled range blows up
        # far beyond the 5 % base noise.
        assert estimate_noise_level(exp) > 0.5

    def test_generate_text_format(self, tmp_path):
        out = tmp_path / "gen.txt"
        main(["generate", str(out), "--noise", "10", "--seed", "3"])
        from repro.experiment.io import load_text

        exp = load_text(out)
        assert len(exp.only_kernel()) == 5

    def test_value_count_mismatch_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate",
                    str(tmp_path / "x.json"),
                    "--params",
                    "p",
                    "n",
                    "--values",
                    "4,8,16,32,64",
                ]
            )


class TestTraceCommand:
    @pytest.fixture
    def telemetry_env(self, monkeypatch):
        """--telemetry sets REPRO_TELEMETRY via os.environ directly; scrub it
        so the toggle cannot leak into other tests."""
        import os

        from repro.obs import ENV_VAR

        monkeypatch.delenv(ENV_VAR, raising=False)
        yield
        os.environ.pop(ENV_VAR, None)

    def _tiny_evaluate(self, run_dir):
        return main(
            [
                "evaluate", "--params", "1", "--noise", "5", "--functions", "4",
                "--batch", "2", "--seed", "1", "--telemetry",
                "--run-dir", str(run_dir),
            ]
        )

    def test_evaluate_telemetry_writes_and_announces_trace(
        self, telemetry_env, tmp_path, capsys
    ):
        assert self._tiny_evaluate(tmp_path / "run") == 0
        out = capsys.readouterr().out
        assert "telemetry trace:" in out
        assert (tmp_path / "run" / "trace.jsonl").exists()

    def test_trace_renders_text_summary(self, telemetry_env, tmp_path, capsys):
        self._tiny_evaluate(tmp_path / "run")
        capsys.readouterr()
        assert main(["trace", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out
        assert "Per-stage time" in out
        assert "sweep.run" in out

    def test_trace_json_format_is_parseable(self, telemetry_env, tmp_path, capsys):
        import json

        self._tiny_evaluate(tmp_path / "run")
        capsys.readouterr()
        assert main(["trace", str(tmp_path / "run"), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["schema"] == "repro.trace-summary/v1"
        assert {s["stage"] for s in summary["stages"]} >= {"fit", "total"}

    def test_missing_trace_points_at_telemetry_flag(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 2
        assert "--telemetry" in capsys.readouterr().err

    def test_trace_registered_in_parser(self):
        args = build_parser().parse_args(["trace", "some/dir"])
        assert callable(args.func)
        assert args.format == "text"


class TestShardedEvaluate:
    _ARGS = [
        "evaluate", "--params", "1", "--noise", "5", "--functions", "4",
        "--batch", "2", "--seed", "1",
    ]

    def test_shard_spec_parsing(self):
        args = build_parser().parse_args(
            self._ARGS + ["--run-dir", "d", "--shard", "1/4"]
        )
        assert args.shard == (1, 4)

    @pytest.mark.parametrize("bad", ["2/2", "-1/2", "a/b", "3", "1/0", "1/2/3"])
    def test_malformed_shard_spec_exits(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(self._ARGS + ["--run-dir", "d", "--shard", bad])

    def test_shard_and_steal_conflict_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                self._ARGS + ["--run-dir", "d", "--shard", "0/2", "--steal"]
            )

    def test_casestudy_parser_accepts_shard(self):
        args = build_parser().parse_args(
            ["casestudy", "kripke", "--run-dir", "d", "--shard", "0/2"]
        )
        assert args.shard == (0, 2)

    def test_shard_prints_partial_summary(self, tmp_path, capsys):
        assert main(self._ARGS + ["--run-dir", str(tmp_path / "s0"), "--shard", "0/2"]) == 0
        out = capsys.readouterr().out
        assert "partial sweep" in out
        assert "merge-run" in out
        assert "MODEL ACCURACY" not in out  # no tables for a slice

    def test_shard_merge_resume_matches_unsharded(self, tmp_path, capsys):
        """End-to-end through the CLI: two shards + merge-run + --resume
        render the same tables as the unsharded command (modulo wall-time)."""
        assert main(self._ARGS + ["--run-dir", str(tmp_path / "ref")]) == 0
        reference = capsys.readouterr().out
        for index in range(2):
            assert (
                main(
                    self._ARGS
                    + ["--run-dir", str(tmp_path / f"s{index}"), "--shard", f"{index}/2"]
                )
                == 0
            )
        assert (
            main(
                ["merge-run", str(tmp_path / "merged"), str(tmp_path / "s0"), str(tmp_path / "s1")]
            )
            == 0
        )
        merge_out = capsys.readouterr().out
        assert "merged 2 shard(s)" in merge_out
        assert main(self._ARGS + ["--resume", str(tmp_path / "merged")]) == 0
        merged = capsys.readouterr().out

        def tables(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("stage wall-time:")
            ]

        assert tables(merged) == tables(reference)

    def test_merge_run_refuses_bad_shards(self, tmp_path, capsys):
        assert main(self._ARGS + ["--run-dir", str(tmp_path / "s0"), "--shard", "0/2"]) == 0
        assert main(self._ARGS + ["--run-dir", str(tmp_path / "other")]) == 0
        capsys.readouterr()
        assert (
            main(
                ["merge-run", str(tmp_path / "m"), str(tmp_path / "s0"), str(tmp_path / "nope")]
            )
            == 2
        )
        assert "no run manifest" in capsys.readouterr().err

    def test_merge_run_registered_in_parser(self):
        args = build_parser().parse_args(["merge-run", "out", "a", "b"])
        assert callable(args.func)
        assert args.shards == ["a", "b"]


class TestModelCommand:
    def test_regression_model_printed(self, experiment_json, capsys):
        assert main(["model", experiment_json, "--method", "regression"]) == 0
        out = capsys.readouterr().out
        assert "[regression]" in out
        assert "CV-SMAPE" in out

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["model", str(tmp_path / "nope.json"), "--method", "regression"])


class TestMalformedInput:
    """An input error ends ``model`` and ``noise`` with one line and exit code 2."""

    @pytest.mark.parametrize(
        "name, body, message",
        [
            pytest.param(
                "nan.txt",
                "PARAMETER p\nPOINTS (4) (8)\nREGION k\nDATA 1.0 nan\nDATA 2.0 2.1\n",
                "nan.txt:4: kernel 'k': non-finite value nan (use --keep-going",
                id="nan-value",
            ),
            pytest.param(
                "anonymous.json",
                '{"version": 1, "parameters": ["p"], "kernels": [{"measurements": []}]}',
                "anonymous.json: kernel 0: expected a string 'name', got None",
                id="kernel-without-name",
            ),
            pytest.param(
                "binary.json",
                b"\xff\xfe not text",
                "binary.json: payload is not valid UTF-8",
                id="not-utf8",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "command", [["model", "--method", "regression"], ["noise"]], ids=["model", "noise"]
    )
    def test_one_line_error_and_exit_code_2(self, tmp_path, capsys, command, name, body, message):
        path = tmp_path / name
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        assert main([command[0], str(path), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


class TestServeCommand:
    def test_serve_registered_with_defaults(self):
        args = build_parser().parse_args(["serve", "--socket", "/tmp/repro.sock"])
        assert callable(args.func)
        assert args.socket == "/tmp/repro.sock"
        assert args.port is None
        assert args.host == "127.0.0.1"
        assert args.queue_limit == 64
        assert args.batch == 8
        assert args.linger == 0.05
        assert args.timeout == 120.0
        assert args.no_telemetry is False

    def test_serve_accepts_tcp_transport(self):
        args = build_parser().parse_args(
            ["serve", "--port", "8123", "--processes", "2", "--no-telemetry"]
        )
        assert args.port == 8123
        assert args.processes == 2
        assert args.no_telemetry is True

    def test_serve_without_transport_exits(self):
        with pytest.raises(SystemExit, match="transport"):
            main(["serve"])

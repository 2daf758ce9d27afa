"""Tests for repro.cli: the registry-driven experiment CLI."""

import io
import json
from dataclasses import dataclass

import pytest

from repro.backend.shared import HAVE_SHARED_MEMORY
from repro.cli import EXPERIMENTS, build_parser, main
from repro.pipeline import ExperimentSpec, register, spec_names, unregister


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.command == "run"
        assert args.experiment == "table1"
        assert args.seed == 2016
        assert args.jobs == 1
        assert args.output_dir is None

    def test_jobs_flag(self):
        args = build_parser().parse_args(["run", "identify", "--jobs", "4"])
        assert args.jobs == 4

    def test_jobs_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "identify", "--jobs", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_shard_timeout_rejects_nonpositive(self, capsys, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shard-timeout", value])
        assert "must be a finite number > 0" in capsys.readouterr().err

    def test_shard_timeout_accepts_fraction(self):
        args = build_parser().parse_args(["serve", "--shard-timeout", "0.5"])
        assert args.shard_timeout == 0.5

    @pytest.mark.parametrize("flag", ["--idle-timeout", "--coalesce-window-ms"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "soon"])
    def test_timing_flags_reject_nonfinite_and_negative(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", flag, value])
        err = capsys.readouterr().err
        assert "must be a finite number >= 0" in err or "not a number" in err

    @pytest.mark.parametrize("flag", ["--idle-timeout", "--coalesce-window-ms"])
    @pytest.mark.parametrize("value", ["0", "2.5"])
    def test_timing_flags_accept_finite_nonnegative(self, flag, value):
        """0 still means off; fractions are fine."""
        args = build_parser().parse_args(["serve", flag, value])
        dest = flag.lstrip("-").replace("-", "_")
        assert getattr(args, dest) == float(value)

    @pytest.mark.parametrize(
        "value, message",
        [
            ("70000", "must be <= 65535"),
            ("65536", "must be <= 65535"),
            ("-1", "must be >= 0"),
            ("http", "not an integer"),
        ],
    )
    def test_port_rejects_out_of_range(self, capsys, value, message):
        """Rejected at parse time, not by sock.bind after start-up."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", value])
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "65535"])
    def test_port_accepts_range_ends(self, value):
        args = build_parser().parse_args(["serve", "--port", value])
        assert args.port == int(value)

    def test_fast_path_bytes_rejects_negative(self, capsys):
        """A negative size used to parse and silently disable the path."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fast-path-bytes", "-7"])
        assert "must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "table1", "--seed", "-1"],
            ["serve", "--seed", "-1"],
            ["corpus", "build", "library", "--seed", "-1"],
        ],
    )
    def test_seed_rejects_negative(self, capsys, argv):
        """NumPy used to reject it after start-up, with a traceback."""
        with pytest.raises(SystemExit) as exited:
            build_parser().parse_args(argv)
        assert exited.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_fast_path_bytes_zero_disables(self):
        args = build_parser().parse_args(["serve", "--fast-path-bytes", "0"])
        assert args.fast_path_bytes == 0

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "nonsense"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_serve_command_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert args.jobs == 1
        assert args.basis_size == 16
        assert args.n_samples == 65536
        assert args.shards is None
        assert args.fast_path_bytes == 4 * 1024 * 1024
        assert args.coalesce_window_ms == 0.0
        assert args.coalesce_max_wires == 4096

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--jobs", "3",
                "--basis-size", "8", "--n-samples", "4096",
                "--shards", "2", "--seed", "7",
            ]
        )
        assert args.port == 0
        assert args.jobs == 3
        assert args.basis_size == 8
        assert args.n_samples == 4096
        assert args.shards == 2
        assert args.seed == 7

    def test_choices_come_from_registry(self):
        """The parser's experiment choices are exactly the registry."""
        run_action = next(
            a
            for a in build_parser()._subparsers._group_actions[0]
            .choices["run"]
            ._actions
            if a.dest == "experiment"
        )
        assert list(run_action.choices) == spec_names() + ["all"]


class TestListOutput:
    def test_lists_every_experiment(self):
        out = io.StringIO()
        code = main(["list"], out=out)
        assert code == 0
        text = out.getvalue()
        for name in EXPERIMENTS:
            assert name in text

    def test_lists_tier_and_description(self):
        out = io.StringIO()
        main(["list"], out=out)
        text = out.getvalue()
        assert "[table]" in text
        assert "[serving]" in text
        assert "demux orthogonator statistics" in text
        assert "[shardable]" in text


class TestRun:
    def test_run_energy_prints_table(self):
        out = io.StringIO()
        code = main(["run", "energy"], out=out)
        assert code == 0
        assert "noise-spike" in out.getvalue()

    def test_run_aliasing(self):
        out = io.StringIO()
        code = main(["run", "aliasing"], out=out)
        assert code == 0
        assert "periodic" in out.getvalue()

    def test_output_dir_archives_text_and_json(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["run", "energy", "--output-dir", str(tmp_path)], out=out
        )
        assert code == 0
        archived = (tmp_path / "energy.txt").read_text()
        assert "noise-spike" in archived
        record = json.loads((tmp_path / "energy.json").read_text())
        assert record["experiment"] == "energy"
        assert record["status"] == "ok"

    def test_seed_flag_accepted(self):
        out = io.StringIO()
        code = main(["run", "aliasing", "--seed", "7"], out=out)
        assert code == 0

    def test_sharded_run_matches_serial(self, tmp_path):
        serial, sharded = io.StringIO(), io.StringIO()
        assert main(
            ["run", "table1", "--output-dir", str(tmp_path / "serial")],
            out=serial,
        ) == 0
        assert main(
            [
                "run", "table1", "--jobs", "2",
                "--output-dir", str(tmp_path / "sharded"),
            ],
            out=sharded,
        ) == 0
        assert serial.getvalue() == sharded.getvalue()
        a = json.loads((tmp_path / "serial" / "table1.json").read_text())
        b = json.loads((tmp_path / "sharded" / "table1.json").read_text())
        assert a["result"] == b["result"]
        assert b["n_shards"] == 2

    def test_registry_complete(self):
        """Every registered spec is exposed by the CLI."""
        assert set(EXPERIMENTS) == {
            "table1", "table2", "figure1", "figure2", "figure3",
            "speed", "aliasing", "scaling", "progressive", "energy",
            "gates", "search", "verification", "robustness", "identify",
            "logicnet",
        }


class TestServeCommand:
    def test_serve_builds_config_and_delegates(self, monkeypatch):
        import repro.serving.server as server_mod

        captured = {}

        def fake_serve(config, out=None, runner=None):
            captured["config"] = config
            captured["runner"] = runner
            # Read here: the CLI closes its runner once serving returns.
            captured["pool"] = runner.worker_pids() if runner else None
            return 0

        monkeypatch.setattr(server_mod, "serve_forever", fake_serve)
        out = io.StringIO()
        code = main(
            [
                "serve", "--port", "0", "--jobs", "2",
                "--n-samples", "4096", "--basis-size", "8",
                "--fast-path-bytes", "65536",
                "--coalesce-window-ms", "2.5",
                "--coalesce-max-wires", "256",
            ],
            out=out,
        )
        assert code == 0
        config = captured["config"]
        assert config.port == 0
        assert config.jobs == 2
        assert config.n_samples == 4096
        assert config.basis_size == 8
        assert config.fast_path_bytes == 65536
        assert config.coalesce_window == pytest.approx(0.0025)
        assert config.coalesce_max_wires == 256
        if HAVE_SHARED_MEMORY:
            # ``serve`` forked the pool before handing it over.
            assert captured["runner"].jobs == 2
            assert len(captured["pool"]) == 2
        else:
            assert captured["runner"] is None

    @pytest.mark.parametrize(
        "flags", [["--jobs", "1"], ["--jobs", "2", "--workers", "2"]]
    )
    def test_serve_without_a_pool_passes_no_runner(self, monkeypatch, flags):
        import repro.serving.server as server_mod

        captured = {}

        def fake_serve(config, out=None, runner=None):
            captured["runner"] = runner
            return 0

        monkeypatch.setattr(server_mod, "serve_forever", fake_serve)
        assert main(["serve", "--port", "0", *flags], out=io.StringIO()) == 0
        assert captured["runner"] is None


@dataclass(frozen=True)
class _BoomConfig:
    seed: int = 2016


def _boom(config):
    raise RuntimeError("intentional test failure")


class TestRunAllContinues:
    """`run all` must survive a failing experiment and summarise."""

    @pytest.fixture
    def failing_spec(self):
        spec = register(
            ExperimentSpec(
                name="zz-boom",
                description="always fails (test fixture)",
                tier="claim",
                config_type=_BoomConfig,
                run=_boom,
            )
        )
        yield spec
        unregister("zz-boom")

    def test_single_failure_exits_nonzero(self, failing_spec):
        out = io.StringIO()
        code = main(["run", "zz-boom"], out=out)
        assert code == 1
        assert "intentional test failure" in out.getvalue()

    def test_run_all_continues_and_summarises(self, failing_spec, tmp_path):
        out = io.StringIO()
        code = main(
            ["run", "all", "--output-dir", str(tmp_path)], out=out
        )
        text = out.getvalue()
        assert code == 1  # one experiment failed
        assert "zz-boom" in text
        assert "run summary" in text
        assert f"{len(spec_names()) - 1}/{len(spec_names())} ok" in text
        # Every experiment — including the failure — left artifacts.
        for name in spec_names():
            assert (tmp_path / f"{name}.json").exists(), name
            assert (tmp_path / f"{name}.txt").exists(), name
        failed = json.loads((tmp_path / "zz-boom.json").read_text())
        assert failed["status"] == "error"
        assert "intentional test failure" in failed["error"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["n_failed"] == 1
        assert manifest["experiments"]["zz-boom"]["status"] == "error"

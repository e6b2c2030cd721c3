"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, spec_from_args
from repro.core.configs import (
    BuddyPolicy,
    ExtentPolicy,
    RestrictedPolicy,
)
from repro.serve.codec import spec_to_task


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_alloc_defaults(self):
        args = build_parser().parse_args(["alloc"])
        assert args.policy == "restricted"
        assert args.workload == "SC"
        assert args.scale == 0.1

    def test_perf_cap(self):
        args = build_parser().parse_args(["perf", "--cap-ms", "1000"])
        assert args.cap_ms == 1000.0

    def test_bad_policy_rejected(self, capsys):
        # The codec, not argparse, rejects it: one message for CLI and HTTP.
        assert main(["alloc", "--policy", "zfs", "--no-cache"]) == 2
        assert "repro: error: policy.name: expected one of" in (
            capsys.readouterr().err
        )

    def test_runner_flags(self):
        args = build_parser().parse_args(
            ["compare", "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache

    def test_supervision_flags(self):
        args = build_parser().parse_args(
            ["compare", "--timeout", "120", "--retries", "2"]
        )
        assert args.timeout == 120.0
        assert args.retries == 2

    def test_supervision_defaults_off(self):
        args = build_parser().parse_args(["perf"])
        assert args.timeout is None
        assert args.retries == 0
        # Resuming is rerunning against the same cache: no extra flags.
        for removed in ("--checkpoint", "--resume"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["perf", removed])

    def test_perf_fault_flags(self):
        args = build_parser().parse_args(
            ["perf", "--organization", "raid5", "--inject", "fail:drive=0,at=100"]
        )
        assert args.organization == "raid5"
        assert args.inject == "fail:drive=0,at=100"

    def test_perf_rejects_unknown_organization(self, capsys):
        assert main(["perf", "--organization", "raid7", "--no-cache"]) == 2
        assert "unknown organization 'raid7'" in capsys.readouterr().err

    def test_faults_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.organization == "raid5"
        assert "fail:" in args.inject


class TestMakePolicy:
    """Policy flags -> spec -> codec: the workload-aware defaults."""

    def policy(self, *argv):
        args = build_parser().parse_args(["perf", *argv])
        return spec_to_task(spec_from_args(args)).config.policy

    def test_buddy(self):
        assert isinstance(self.policy("--policy", "buddy"), BuddyPolicy)

    def test_restricted_options(self):
        policy = self.policy(
            "--policy", "restricted", "--grow-factor", "2", "--unclustered"
        )
        assert isinstance(policy, RestrictedPolicy)
        assert policy.grow_factor == 2
        assert not policy.clustered

    def test_extent_workload_ranges(self):
        policy = self.policy(
            "--policy", "extent", "--workload", "TS", "--extent-ranges", "2"
        )
        assert isinstance(policy, ExtentPolicy)
        assert policy.range_means == ("1K", "8K")

    def test_fixed_workload_block_size(self):
        fixed = ("--policy", "fixed", "--workload")
        assert self.policy(*fixed, "TS").block_size == "4K"
        assert self.policy(*fixed, "TP").block_size == "16K"


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Wren IV" in out
        assert "2.83" in out

    def test_alloc_runs(self, capsys):
        code = main(
            ["alloc", "--policy", "extent", "--workload", "SC", "--scale", "0.03"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Internal fragmentation" in out

    def test_perf_runs(self, capsys):
        code = main(
            [
                "perf",
                "--policy",
                "extent",
                "--workload",
                "SC",
                "--scale",
                "0.03",
                "--cap-ms",
                "15000",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sequential" in out

    def test_profile_runs(self, capsys):
        code = main(
            [
                "profile",
                "--policy",
                "extent",
                "--workload",
                "SC",
                "--scale",
                "0.03",
                "--cap-ms",
                "8000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events/sec" in out
        assert "cProfile: self time by package" in out
        table = out.split("self time by package --\n", 1)[1].split("\n\n", 1)[0]
        packages = {line.split()[0] for line in table.splitlines()[1:]}
        assert {"sim", "disk", "workload", "total"} <= packages
        assert "repro.sim.engine" not in out.split("-- cProfile: top", 1)[0]
        assert "cProfile: top 12 functions" in out

    def test_profile_sort_and_limit_flags(self, capsys):
        code = main(
            [
                "profile",
                "--policy",
                "extent",
                "--workload",
                "SC",
                "--scale",
                "0.03",
                "--cap-ms",
                "4000",
                "--sort",
                "cumtime",
                "--limit",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top 5 functions by cumulative time" in out
        assert "Ordered by: cumulative time" in out

    def test_profile_rejects_unknown_sort(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "--sort", "ncalls"])

    def test_faults_runs_and_reports_degraded_mode(self, capsys):
        code = main(
            [
                "faults", "--scale", "0.02", "--cap-ms", "20000",
                "--inject", "fail:drive=1,at=8000,repair=15000",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault plan:" in out
        assert "Degraded" in out
        assert "disk failures" in out

    def test_faults_rejects_empty_plan(self, capsys):
        code = main(["faults", "--inject", "", "--no-cache"])
        assert code == 2
        assert "fault plan is empty" in capsys.readouterr().err

    def test_perf_with_injection_reports_faults(self, capsys):
        code = main(
            [
                "perf", "--scale", "0.02", "--cap-ms", "15000",
                "--organization", "mirrored",
                "--inject", "slow:drive=0,at=0,factor=2",
                "--no-cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown windows" in out

    def test_checkpointed_sweep_resumes(self, capsys, tmp_path, monkeypatch):
        import repro.cli as cli

        argv = [
            "alloc", "--policy", "extent", "--workload", "SC",
            "--scale", "0.03", "--cache-dir", str(tmp_path),
        ]

        def interrupt(*_):
            raise KeyboardInterrupt

        # Interrupted once its point is done: the point is already stored.
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_progress", interrupt)
            assert main(argv) == 130
        err = capsys.readouterr().err
        assert f"rerun with --cache-dir {tmp_path} to resume" in err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "0 executed, 1 cached" in captured.err
        assert "Internal fragmentation" in captured.out

    def test_alloc_warm_cache_executes_nothing(self, capsys, tmp_path):
        argv = [
            "alloc", "--policy", "extent", "--workload", "SC",
            "--scale", "0.03", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "1 executed, 0 cached" in capsys.readouterr().err
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "0 executed, 1 cached" in captured.err
        assert "Internal fragmentation" in captured.out


class TestBisectCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bisect"])
        assert args.vary == "engine"
        assert args.seed_b is None
        assert args.cadence == 10_000
        assert args.fine_limit == 1_024

    def test_perf_audit_flag(self):
        assert build_parser().parse_args(["perf"]).audit is False
        assert build_parser().parse_args(["perf", "--audit"]).audit is True

    def test_engine_variants_are_identical(self, capsys):
        code = main(
            [
                "bisect", "--vary", "engine", "--scale", "0.005",
                "--cap-ms", "300", "--cadence", "2000",
            ]
        )
        assert code == 0
        assert "no divergence" in capsys.readouterr().out

    def test_seed_variants_diverge(self, capsys):
        code = main(
            [
                "bisect", "--vary", "seed", "--scale", "0.005",
                "--cap-ms", "300", "--cadence", "200", "--fine-limit", "64",
            ]
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "first diverging event" in out


class TestExitCodes:
    """The docstring contract: library errors → stderr + exit 2."""

    def test_configuration_error_exits_2(self, capsys):
        # grow factor 0 passes argparse; the codec rejects it when the
        # policy is constructed, before any worker starts.
        code = main(
            [
                "alloc", "--policy", "restricted", "--grow-factor", "0",
                "--scale", "0.03", "--no-cache",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "repro: error:" in captured.err
        assert "grow factor" in captured.err

    def test_stderr_not_stdout_carries_the_error(self, capsys):
        main(
            [
                "alloc", "--policy", "restricted", "--grow-factor", "0",
                "--scale", "0.03", "--no-cache",
            ]
        )
        assert "error" not in capsys.readouterr().out

    def test_interrupted_sweep_exits_130(self, capsys, monkeypatch):
        from repro.core.runner import ExperimentRunner
        from repro.errors import SweepInterrupted

        def interrupted(self, tasks):
            raise SweepInterrupted("/tmp/ckpt", 1, 3)

        monkeypatch.setattr(ExperimentRunner, "run", interrupted)
        code = main(["alloc", "--scale", "0.03", "--no-cache"])
        assert code == 130
        err = capsys.readouterr().err
        assert "1/3 points done" in err
        assert "partial results flushed to /tmp/ckpt" in err

        def interrupted_uncached(self, tasks):
            raise SweepInterrupted(None, 1, 3)

        monkeypatch.setattr(ExperimentRunner, "run", interrupted_uncached)
        assert main(["alloc", "--scale", "0.03", "--no-cache"]) == 130
        err = capsys.readouterr().err
        assert "1/3 points done" in err
        assert "nothing was persisted" in err
        assert "flushed" not in err

    def test_bare_keyboard_interrupt_exits_130(self, capsys, monkeypatch):
        from repro.core.runner import ExperimentRunner

        def interrupted(self, tasks):
            raise KeyboardInterrupt

        monkeypatch.setattr(ExperimentRunner, "run", interrupted)
        code = main(["alloc", "--scale", "0.03", "--no-cache"])
        assert code == 130
        assert "repro: interrupted" in capsys.readouterr().err


class TestSubmitSpecFile:
    """``submit --spec`` problems are clean errors, found before any POST
    (port 1 never answers, so a POST would say "cannot reach")."""

    def submit(self, path) -> int:
        return main(
            ["submit", "--url", "http://127.0.0.1:1", "--spec", str(path)]
        )

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert self.submit(tmp_path / "absent.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: cannot read spec file")
        assert "Traceback" not in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert self.submit(path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro: error: spec file {path} is not JSON")

    def test_spec_is_decoded_before_the_post(self, tmp_path, capsys):
        path = tmp_path / "typo.json"
        path.write_text('{"workload": "XX"}')
        assert self.submit(path) == 2
        assert capsys.readouterr().err == (
            "repro: error: workload: expected TS, TP, or SC, got 'XX'\n"
        )


class TestTraceCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.format == "chrome"
        assert args.cap_ms == 8_000.0
        assert args.organization == "striped"
        assert not args.metrics and not args.json

    def test_live_flag_available_on_runner_commands(self):
        assert build_parser().parse_args(["perf", "--live"]).live
        assert build_parser().parse_args(["trace"]).live is False

    def test_chrome_document_on_stdout(self, capsys):
        import json

        code = main(
            ["trace", "--scale", "0.02", "--cap-ms", "1500", "--no-cache"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["traceEvents"]
        assert document["otherData"]["span_count"] > 0

    def test_jsonl_format(self, capsys):
        import json

        code = main(
            [
                "trace", "--scale", "0.02", "--cap-ms", "1500",
                "--no-cache", "--format", "jsonl",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        assert {json.loads(line)["type"] for line in lines[1:]} == {"span"}

    def test_trace_out_writes_file_and_reports_metrics(self, capsys, tmp_path):
        import json

        out = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--scale", "0.02", "--cap-ms", "1500",
                "--no-cache", "--trace-out", str(out), "--metrics",
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["traceEvents"]
        captured = capsys.readouterr()
        assert "spans" in captured.err
        assert "Metrics" in captured.out  # snapshot table, not the trace

    def test_json_summary(self, capsys):
        import json

        code = main(
            [
                "trace", "--scale", "0.02", "--cap-ms", "1500",
                "--no-cache", "--metrics", "--json",
            ]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["span_count"] > 0
        assert "disk.service_ms" in document["metrics"]["histograms"]

    def test_traces_are_cached_separately_from_plain_runs(self, tmp_path):
        argv = [
            "trace", "--scale", "0.02", "--cap-ms", "1500",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        cached = list(tmp_path.glob("*.pkl"))
        assert len(cached) == 1
        assert main(argv) == 0  # second run replays the cache
        assert list(tmp_path.glob("*.pkl")) == cached


class TestProfileJson:
    def test_profile_json_document(self, capsys, monkeypatch):
        import json
        import pstats

        totals = []

        class RecordingStats(pstats.Stats):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                totals.append(self.total_tt)

        monkeypatch.setattr(pstats, "Stats", RecordingStats)
        code = main(
            [
                "profile", "--scale", "0.03", "--cap-ms", "4000", "--json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cProfile" not in out
        document = json.loads(out)
        assert document["events_executed"] > 0
        assert "subsystems" not in document
        layers = document["layers"]
        assert {"sim", "disk", "workload"} <= set(layers)
        assert not any(name.startswith("repro.") for name in layers)
        assert layers["sim"]["calls"] > 0
        (total,) = totals
        seconds = sum(row["seconds"] for row in layers.values())
        assert seconds == pytest.approx(total, rel=0.01)

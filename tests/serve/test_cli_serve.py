"""Tests for the ``repro serve`` / ``repro submit`` CLI surface."""

import json
import threading

import pytest

from repro.cli import build_parser, main
from repro.serve import ExperimentService, make_daemon

from .helpers import scripted_work, spec_for


class TestParser:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--state-dir", "/tmp/state", "--port", "0",
                "--workers", "4", "--max-queue", "64", "--timeout", "300",
                "--retries", "2", "--chaos",
            ]
        )
        assert args.state_dir == "/tmp/state"
        assert args.workers == 4
        assert args.max_queue == 64
        assert args.timeout == 300.0
        assert args.chaos

    def test_serve_requires_state_dir(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_submit_flags(self):
        args = build_parser().parse_args(
            [
                "submit", "--url", "http://127.0.0.1:9999",
                "--kind", "alloc", "--policy", "extent", "--workload", "TP",
                "--priority", "high", "--wait", "30", "--follow",
            ]
        )
        assert args.url == "http://127.0.0.1:9999"
        assert args.kind == "alloc"
        assert args.priority == "high"
        assert args.wait == 30.0
        assert args.follow

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.url == "http://127.0.0.1:8765"
        assert args.kind == "perf"
        assert args.priority == "normal"
        assert args.spec is None


@pytest.fixture
def live_daemon(tmp_path):
    service = ExperimentService(
        tmp_path / "state", workers=1, work_fn=scripted_work
    )
    service.start()
    daemon = make_daemon(service, port=0)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    host, port = daemon.server_address[:2]
    yield f"http://{host}:{port}"
    daemon.shutdown()
    daemon.server_close()
    service.stop()


class TestSubmitRoundTrip:
    def test_submit_spec_file_and_wait(self, live_daemon, tmp_path, capsys):
        spec_path = tmp_path / "point.json"
        spec_path.write_text(json.dumps(spec_for(17)))
        status = main(
            [
                "submit", "--url", live_daemon,
                "--spec", str(spec_path), "--wait", "30",
            ]
        )
        assert status == 0
        out = capsys.readouterr()
        body = json.loads(out.out)
        assert body["status"] == "done"
        assert body["summary"]["result_digest"]
        assert "submit: job" in out.err

    def test_submit_flag_built_spec_without_wait_exits_9(
        self, live_daemon, capsys
    ):
        status = main(
            ["submit", "--url", live_daemon, "--kind", "perf", "--seed", "18"]
        )
        # scripted work is instantaneous, but without --wait the CLI
        # reports whatever state the job is in; both are legal here.
        assert status in (0, 9)
        body = json.loads(capsys.readouterr().out)
        assert body["submitted"] in ("queued", "done")

    def test_unreachable_daemon_is_a_clean_error(self, capsys):
        status = main(
            ["submit", "--url", "http://127.0.0.1:1", "--wait", "1"]
        )
        assert status == 2
        assert "cannot reach" in capsys.readouterr().err


#: The spec ``repro perf`` builds from its defaults.
PERF_DEFAULTS = {
    "kind": "performance",
    "workload": "SC",
    "seed": 1991,
    "policy": {"name": "restricted", "grow_factor": 1, "clustered": True},
    "system": {"scale": 0.1, "organization": "striped"},
    "kwargs": {"app_cap_ms": 60_000.0, "seq_cap_ms": 60_000.0},
}
EXTENT = {"name": "extent", "range_means": ["512K", "1M", "16M"], "fit": "first"}

#: (perf flags, the same input as a spec edit, the one error message).
#: ``--extent-ranges`` picks a row of the paper's table and has no wire
#: spelling; ``submit`` still rejects it before anything is posted.
PARITY = [
    (["--policy", "zfs"], {"policy": {"name": "zfs"}},
     "policy.name: expected one of buddy, extent, fixed, lfs, "
     "restricted, got 'zfs'"),
    (["--workload", "XX"], {"workload": "XX"},
     "workload: expected TS, TP, or SC, got 'XX'"),
    (["--organization", "raid7"],
     {"system": {"scale": 0.1, "organization": "raid7"}},
     "unknown organization 'raid7'; expected one of striped, mirrored, "
     "raid5, parity-striped"),
    (["--scale", "-1"], {"system": {"scale": -1.0, "organization": "striped"}},
     "scale: must be positive and finite, got -1.0"),
    (["--scale", "nan"],
     {"system": {"scale": float("nan"), "organization": "striped"}},
     "system.scale: expected a number, got nan"),
    (["--cap-ms", "-5"], {"kwargs": {"app_cap_ms": -5.0, "seq_cap_ms": -5.0}},
     "kwargs.app_cap_ms: expected a positive number, got -5.0"),
    (["--cap-ms", "inf"],
     {"kwargs": {"app_cap_ms": float("inf"), "seq_cap_ms": float("inf")}},
     "kwargs.app_cap_ms: expected a positive number, got inf"),
    (["--grow-factor", "0"],
     {"policy": {"name": "restricted", "grow_factor": 0, "clustered": True}},
     "grow_factor: expected an integer grow factor >= 1, got 0"),
    (["--policy", "extent", "--fit", "worst"],
     {"policy": {**EXTENT, "fit": "worst"}},
     "fit: expected 'first' or 'best', got 'worst'"),
    (["--policy", "extent", "--extent-ranges", "7"], None,
     "no 7-range config for SC"),
    (["--inject", "boom:drive=1"], {"faults": "boom:drive=1"},
     "faults: unknown fault kind 'boom' (expected fail/slow/transient)"),
    (["--inject", "fail:drive=0"], {"faults": "fail:drive=0"},
     "faults: 'fail:drive=0' requires at="),
]


def post_spec(base: str, spec: dict) -> tuple[int, dict]:
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        f"{base}/v1/experiments",
        data=json.dumps({"spec": spec}).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestFrontEndParity:
    """A malformed input gets one message from every front end: ``perf``
    and ``submit`` exit 2 with ``repro: error: <msg>``, and the daemon
    answers 400 ``{"error": "<msg>"}`` and journals nothing."""

    def cli_error(self, capsys, argv) -> str:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize(
        "flags, edit, message", PARITY, ids=[" ".join(f) for f, _, _ in PARITY]
    )
    def test_cli_and_http_reject_with_one_message(
        self, live_daemon, tmp_path, capsys, flags, edit, message
    ):
        expected = f"repro: error: {message}\n"
        assert self.cli_error(capsys, ["perf", "--no-cache", *flags]) == expected
        submit = ["submit", "--url", live_daemon, *flags]
        assert self.cli_error(capsys, submit) == expected
        if edit is not None:
            assert post_spec(live_daemon, {**PERF_DEFAULTS, **edit}) == (
                400, {"error": message},
            )
        assert not (tmp_path / "state" / "ledger.jsonl").read_text()

    def test_bad_spec_file_matches_the_http_answer(
        self, live_daemon, tmp_path, capsys
    ):
        spec = {**PERF_DEFAULTS, "seed": "seven"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        message = "seed: expected an integer, got 'seven'"
        submit = ["submit", "--url", live_daemon, "--spec", str(path)]
        assert self.cli_error(capsys, submit) == f"repro: error: {message}\n"
        assert post_spec(live_daemon, spec) == (400, {"error": message})
        assert not (tmp_path / "state" / "ledger.jsonl").read_text()

    def test_perf_defaults_spec_is_what_the_cli_builds(self):
        from repro.cli import spec_from_args

        args = build_parser().parse_args(["perf"])
        assert spec_from_args(args) == PERF_DEFAULTS

"""Tests for the HTTP front door: submission, status, SSE streaming,
overload responses, and the chaos endpoint gate."""

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ExperimentService, make_daemon
from repro.serve.http import ServeDaemon

from .helpers import (
    SERVICE_COUNTERS,
    drain_gated,
    emitting_work,
    scripted_work,
    spec_for,
)


@pytest.fixture
def gate(tmp_path, monkeypatch):
    path = tmp_path / "gate.flag"
    path.write_text("hold")
    monkeypatch.setenv("REPRO_TEST_GATE", str(path))
    return str(path)


@pytest.fixture
def server(tmp_path):
    """A running daemon over the scripted work function."""
    with running_server(tmp_path) as bundle:
        yield bundle


@pytest.fixture(scope="module")
def shared_server(tmp_path_factory):
    """One daemon for tests that only exercise request rejection."""
    with running_server(tmp_path_factory.mktemp("shared")) as bundle:
        yield bundle


class running_server:
    def __init__(self, tmp_path, work_fn=scripted_work, chaos=False, **kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("retries", 1)
        kwargs.setdefault("backoff_base_s", 0.05)
        self.service = ExperimentService(
            tmp_path / "state", work_fn=work_fn, **kwargs
        )
        self.chaos = chaos

    def __enter__(self):
        self.service.start()
        self.daemon = self.make_daemon()
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.daemon.server_address[:2]
        self.base = f"http://{host}:{port}"
        self.port = port
        return self

    def make_daemon(self):
        return make_daemon(self.service, port=0, chaos=self.chaos)

    def __exit__(self, *exc):
        self.daemon.shutdown()
        self.daemon.server_close()
        self.service.stop()
        return False

    def request(self, path, body=None, timeout=30.0):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            f"{self.base}{path}",
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, dict(response.headers), json.loads(
                    response.read()
                )
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), json.loads(error.read())


def raw_exchange(port, request: bytes, half_close=True, timeout=10.0):
    """Send raw bytes, read until the server closes; parse the first reply.

    Returns ``(status, headers, body, rest)`` with lower-cased header
    names and ``rest`` the bytes after the first reply.  With
    ``half_close`` the write side is shut after sending, so bytes the
    server leaves unread end in EOF instead of waiting for more.  A read
    that times out means the server kept the connection open.
    """
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass  # closed with our unread body still queued: the reply landed
    head, _, rest = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.lower(): value
        for name, value in (line.split(": ", 1) for line in lines)
    }
    length = int(headers["content-length"])
    body = json.loads(rest[:length])
    return int(status_line.split()[1]), headers, body, rest[length:]


def raw_request(
    method: str, target: str, body: bytes = b"", length: str | None = None
) -> bytes:
    """A raw request whose Content-Length says ``length`` (or is absent)."""
    head = f"{method} {target} HTTP/1.1\r\nHost: test\r\n"
    if length is not None:
        head += f"Content-Length: {length}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


class TestListenBacklog:
    def test_burst_beyond_the_default_backlog_is_answered_not_reset(
        self, tmp_path, gate
    ):
        # 32 simultaneous connections against socketserver's default
        # backlog of 5 drew TCP resets; sized from the service, every
        # one is answered — admitted (202) or shed (429).
        burst = 32
        with running_server(tmp_path, workers=1, max_queue=16) as server:
            assert server.daemon.request_queue_size >= burst
            statuses, errors = [], []
            lock = threading.Lock()
            barrier = threading.Barrier(burst)

            def post(seed):
                barrier.wait()
                try:
                    status, _, _ = server.request(
                        "/v1/experiments", {"spec": spec_for(seed)}
                    )
                except OSError as error:
                    with lock:
                        errors.append(repr(error))
                else:
                    with lock:
                        statuses.append(status)

            threads = [
                threading.Thread(target=post, args=(700 + i,))
                for i in range(burst)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            drain_gated(server.service, gate)
        assert errors == []
        assert len(statuses) == burst
        assert set(statuses) <= {200, 202, 429}
        assert 429 in statuses


class TestSubmission:
    def test_submit_and_wait_returns_the_finished_job(self, server):
        status, _, body = server.request(
            "/v1/experiments", {"spec": spec_for(3), "wait_s": 30}
        )
        assert status == 200
        assert body["status"] == "done"
        assert body["submitted"] == "queued"
        assert body["summary"]["result_digest"]

    def test_submit_without_wait_returns_202_accepted(self, server, gate):
        status, _, body = server.request(
            "/v1/experiments", {"spec": spec_for(770)}
        )
        assert status == 202
        assert body["status"] in ("queued", "running")
        drain_gated(server.service, gate)

    def test_identical_concurrent_posts_run_once(self, server, gate):
        results = []
        lock = threading.Lock()

        def post():
            outcome = server.request(
                "/v1/experiments", {"spec": spec_for(771)}
            )
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=post) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        drain_gated(server.service, gate)
        hows = sorted(body["submitted"] for _, _, body in results)
        assert hows == ["deduped"] * 5 + ["queued"]
        assert server.service.metrics.counters["serve.executed"] == 1

    def test_malformed_spec_maps_to_400(self, server):
        status, _, body = server.request(
            "/v1/experiments", {"spec": {"workload": "XX"}}
        )
        assert status == 400
        assert "workload" in body["error"]

    def test_mistyped_field_is_400_and_the_daemon_keeps_serving(self, server):
        bad = spec_for(13, system={"scale": "0.1"})
        status, _, body = server.request("/v1/experiments", {"spec": bad})
        assert status == 400
        assert body == {"error": "system.scale: expected a number, got '0.1'"}
        status, _, body = server.request(
            "/v1/experiments", {"spec": spec_for(14), "wait_s": 30}
        )
        assert status == 200 and body["status"] == "done"

    def test_parity_striped_failure_maps_to_400(self, shared_server):
        bad = spec_for(
            16,
            system={"scale": 0.02, "organization": "parity-striped"},
            faults="fail:drive=0,at=500",
        )
        status, _, body = shared_server.request("/v1/experiments", {"spec": bad})
        assert status == 400
        assert body["error"] == (
            "faults: the parity-striped organization does not model "
            "whole-drive failures (fail:); slow: and transient: clauses "
            "are still accepted"
        )

    @pytest.mark.parametrize(
        "field",
        [
            {"priority": [1]},
            {"priority": True},
            {"priority": 1.0},
            {"priority": 3},
            {"priority": "urgent"},
            {"wait_s": True},
            {"wait_s": float("nan")},
            {"wait_s": float("inf")},
            {"wait_s": -1},
            {"wait_s": "5"},
        ],
    )
    def test_malformed_request_field_maps_to_400(self, shared_server, field):
        accepted = shared_server.service.metrics.counters["serve.accepted"]
        status, _, body = shared_server.request(
            "/v1/experiments", {"spec": spec_for(15), **field}
        )
        assert status == 400
        assert body["error"].startswith(f"{next(iter(field))}: expected")
        assert shared_server.service.metrics.counters["serve.accepted"] == accepted

    def test_sweep_with_a_malformed_priority_maps_to_400(self, shared_server):
        status, _, body = shared_server.request(
            "/v1/sweeps", {"specs": [spec_for(16)], "priority": [1]}
        )
        assert status == 400
        assert body["error"].startswith("priority: expected")

    @pytest.mark.parametrize(
        "length, status",
        [
            (None, 400),
            ("abc", 400),
            ("-5", 400),
            ("1.5", 400),
            ("0", 400),
            (str((8 << 20) + 1), 413),
        ],
    )
    def test_bad_content_length_is_answered_and_closes(
        self, shared_server, length, status
    ):
        # The body's framing is unknown, so the server must answer and
        # hang up rather than parse the body as a second request (the
        # read below times out if the connection stays open).
        got, _, body, rest = raw_exchange(
            shared_server.port,
            raw_request("POST", "/v1/experiments", b'{"spec": {}}', length),
            half_close=False,
        )
        assert (got, rest) == (status, b"")
        assert "error" in body

    def test_non_json_body_maps_to_400(self, server):
        # Nesting past the parser's recursion limit is not JSON either.
        for data in (b"not json {", b"[" * 50_000):
            request = urllib.request.Request(
                f"{server.base}/v1/experiments", data=data
            )
            with pytest.raises(urllib.error.HTTPError) as error:
                urllib.request.urlopen(request, timeout=10)
            error.value.close()
            assert error.value.code == 400

    def test_unknown_route_and_job_map_to_404(self, server):
        assert server.request("/v1/nope")[0] == 404
        assert server.request("/v1/jobs/ffff")[0] == 404

    def test_job_route_never_reads_outside_the_cache(self, shared_server):
        # A non-key job name is a 404 before it reaches the cache as a
        # file name: no traversal, and a NUL byte is not a crash.
        for target in ("/v1/jobs/../../ledger", "/v1/jobs/a\x00b/events"):
            status, _, body, _ = raw_exchange(
                shared_server.port, raw_request("GET", target)
            )
            assert status == 404 and body["error"].startswith("no such job")

    def test_malformed_request_target_maps_to_400(self, shared_server):
        status, _, body, _ = raw_exchange(
            shared_server.port, raw_request("GET", "http://[test/healthz")
        )
        assert status == 400
        assert body["error"].startswith("malformed request target")


class TestOverload:
    def test_shed_request_gets_429_with_retry_after(self, tmp_path, gate):
        with running_server(tmp_path, workers=1, max_queue=2) as server:
            server.request("/v1/experiments", {"spec": spec_for(700)})
            server.request("/v1/experiments", {"spec": spec_for(701)})
            status, headers, body = server.request(
                "/v1/experiments", {"spec": spec_for(702)}
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["depth"] == 2 and body["budget"] == 2
            drain_gated(server.service, gate)

    def test_fully_shed_sweep_is_429_partial_is_200(self, tmp_path, gate):
        with running_server(tmp_path, workers=1, max_queue=2) as server:
            status, _, body = server.request(
                "/v1/sweeps",
                {"specs": [spec_for(s) for s in (703, 704, 705)]},
            )
            assert status == 200
            assert body["accepted"] == 2 and body["shed"] == 1
            status, headers, _ = server.request(
                "/v1/sweeps", {"specs": [spec_for(706)]}
            )
            assert status == 429
            assert "Retry-After" in headers
            drain_gated(server.service, gate)

    def test_sweep_reports_invalid_specs_without_failing_the_rest(
        self, server
    ):
        status, _, body = server.request(
            "/v1/sweeps",
            {"specs": [spec_for(8), {"workload": "XX"}], "wait": False},
        )
        assert status == 200
        assert body["accepted"] == 1 and body["invalid"] == 1
        assert body["jobs"][1]["submitted"] == "invalid"


class TestStreaming:
    def test_sse_streams_progress_then_done(self, tmp_path):
        with running_server(tmp_path, work_fn=emitting_work) as server:
            _, _, body = server.request(
                "/v1/experiments", {"spec": spec_for(9)}
            )
            key = body["job"]
            events = []
            with urllib.request.urlopen(
                f"{server.base}/v1/jobs/{key}/events", timeout=30
            ) as stream:
                name = None
                for raw in stream:
                    line = raw.decode().rstrip("\n")
                    if line.startswith("event: "):
                        name = line[len("event: "):]
                    elif line.startswith("data: "):
                        events.append((name, json.loads(line[len("data: "):])))
                        if name == "done":
                            break
            assert events[-1][0] == "done"
            assert events[-1][1]["status"] == "done"
            progress = [data for name, data in events if name == "progress"]
            if progress:  # frames may race the subscription; done never does
                assert progress[0]["stage"] == "tick"

    def test_sse_on_finished_job_sends_done_immediately(self, server):
        _, _, body = server.request(
            "/v1/experiments", {"spec": spec_for(12), "wait_s": 30}
        )
        with urllib.request.urlopen(
            f"{server.base}/v1/jobs/{body['job']}/events", timeout=10
        ) as stream:
            first = stream.readline().decode()
            assert first.startswith("event: done")

    def test_disconnecting_client_does_not_wedge_the_service(
        self, tmp_path, gate
    ):
        with running_server(tmp_path) as server:
            _, _, body = server.request(
                "/v1/experiments", {"spec": spec_for(772)}
            )
            stream = urllib.request.urlopen(
                f"{server.base}/v1/jobs/{body['job']}/events", timeout=10
            )
            stream.close()  # hang up while the job is still running
            drain_gated(server.service, gate)
            status, _, view = server.request(f"/v1/jobs/{body['job']}")
            assert status == 200 and view["status"] == "done"


class TestChaosEndpoint:
    def test_kill_worker_requires_the_chaos_flag(self, server):
        status, _, body = server.request("/v1/chaos/kill-worker", {})
        assert status == 403
        assert "--chaos" in body["error"]

    def test_kill_worker_mid_job_still_completes_via_retry(
        self, tmp_path, gate
    ):
        with running_server(tmp_path, chaos=True) as server:
            _, _, body = server.request(
                "/v1/experiments", {"spec": spec_for(773)}
            )
            # Wait until the job is actually on a worker, then kill it.
            import time

            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                view = server.service.stats_view()
                if view["gauges"]["serve.jobs.running"]:
                    break
                time.sleep(0.02)
            status, _, _ = server.request("/v1/chaos/kill-worker", {})
            assert status == 200
            drain_gated(server.service, gate)
            _, _, view = server.request(f"/v1/jobs/{body['job']}")
            assert view["status"] == "done"
            assert server.service.metrics.counters["core.crashes"] == 1


class TestHealth:
    def test_healthz_and_stats(self, server):
        status, _, body = server.request("/healthz")
        assert status == 200 and body["ok"] is True
        status, _, stats = server.request("/v1/stats")
        assert status == 200
        assert stats["gauges"]["serve.budget"] == server.service.max_queue
        assert "core.crashes" in stats["counters"]

    def test_fresh_daemon_lists_every_counter_at_zero(self, server):
        status, _, stats = server.request("/v1/stats")
        assert status == 200
        assert list(stats) == ["counters", "gauges", "totals", "histograms"]
        assert stats["counters"] == dict.fromkeys(SERVICE_COUNTERS, 0)

    def test_keep_alive_replies_are_not_held_back(self, shared_server):
        # Headers and body go out as two writes; with Nagle's algorithm
        # on, the body waits for the client's delayed ACK (~40 ms).
        connection = http.client.HTTPConnection(
            "127.0.0.1", shared_server.port, timeout=10
        )
        try:
            times_ms = []
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                times_ms.append((time.perf_counter() - started) * 1e3)
        finally:
            connection.close()
        assert statistics.median(times_ms) < 15.0, times_ms


class RecordingDaemon(ServeDaemon):
    """A daemon that records every exception that escaped a handler."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.errors = []

    def handle_error(self, request, client_address):
        import traceback

        self.errors.append(traceback.format_exc())


class recording_server(running_server):
    def make_daemon(self):
        return RecordingDaemon(("127.0.0.1", 0), self.service)


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    with recording_server(tmp_path_factory.mktemp("fuzz")) as bundle:
        yield bundle


FUZZ_TARGETS = [
    "/healthz",
    "/v1/stats",
    "/v1/experiments",
    "/v1/sweeps/",
    "/v1/jobs/" + "ab" * 32,
    "/v1/jobs/" + "ab" * 32 + "/events",
    "/v1/jobs/../results",
    "/v1/chaos/kill-worker",
    "/v1/nope",
    "/healthz?verbose=1",
    "http://test/v1/stats",
    "http://[test/v1/stats",
    "/v1/jobs/a\x00b",
]

#: JSON bodies shaped like requests: real and broken specs and fields.
REQUEST_BODIES = st.fixed_dictionaries(
    {},
    optional={
        "spec": st.sampled_from(
            [spec_for(1), spec_for(2), {"workload": "XX"}, [], 7]
        ),
        "specs": st.lists(st.sampled_from([spec_for(3), {}]), max_size=2),
        "priority": st.one_of(
            st.sampled_from(["high", "low", "bogus"]),
            st.integers(-1, 3),
            st.booleans(),
            st.none(),
            st.lists(st.integers(0, 2), max_size=1),
        ),
        "wait_s": st.one_of(
            st.floats(max_value=2.0),
            st.sampled_from([float("nan"), float("inf")]),
            st.integers(-2, 2),
            st.booleans(),
            st.text(max_size=2),
        ),
    },
).map(lambda body: json.dumps(body).encode())

#: Content-Length header values that are not a byte count.
NON_NUMERIC = st.text(
    st.characters(min_codepoint=0x21, max_codepoint=0x7E) | st.sampled_from("²½é"),
    min_size=1,
    max_size=6,
).filter(lambda value: not (value.isascii() and value.isdecimal()))


@st.composite
def framed_requests(draw):
    method = draw(st.sampled_from(["GET", "POST"]))
    target = draw(st.sampled_from(FUZZ_TARGETS))
    body = draw(st.one_of(st.binary(max_size=48), REQUEST_BODIES))
    case = draw(
        st.sampled_from(
            ["exact", "missing", "non-numeric", "negative", "oversize", "short"]
        )
    )
    length = {
        "exact": lambda: str(len(body)),
        "missing": lambda: None,
        "non-numeric": lambda: draw(NON_NUMERIC),
        "negative": lambda: str(-draw(st.integers(1, 1 << 40))),
        "oversize": lambda: str((8 << 20) + draw(st.integers(1, 1 << 40))),
        "short": lambda: str(max(0, len(body) - draw(st.integers(1, 8)))),
    }[case]()
    return raw_request(method, target, body, length)


class TestRequestFramingFuzz:
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(request=framed_requests())
    def test_every_request_gets_a_json_reply(self, fuzz_server, request):
        status, headers, body, _ = raw_exchange(fuzz_server.port, request)
        assert status in {200, 202, 400, 403, 404, 413, 429}, (status, body)
        assert headers["content-type"] == "application/json"
        assert isinstance(body, dict)
        assert fuzz_server.daemon.errors == []

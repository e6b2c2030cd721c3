"""Tests for the HTTP front door: submission, status, SSE streaming,
overload responses, and the chaos endpoint gate."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serve import ExperimentService, make_daemon

from .helpers import drain_gated, emitting_work, scripted_work, spec_for


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
        self.daemon = make_daemon(self.service, port=0, chaos=self.chaos)
        self.thread = threading.Thread(
            target=self.daemon.serve_forever, daemon=True
        )
        self.thread.start()
        host, port = self.daemon.server_address[:2]
        self.base = f"http://{host}:{port}"
        return self

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
        assert server.service.stats.executed == 1

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

    def test_non_json_body_maps_to_400(self, server):
        request = urllib.request.Request(
            f"{server.base}/v1/experiments", data=b"not json {"
        )
        with pytest.raises(urllib.error.HTTPError) as error:
            urllib.request.urlopen(request, timeout=10)
        assert error.value.code == 400

    def test_unknown_route_and_job_map_to_404(self, server):
        assert server.request("/v1/nope")[0] == 404
        assert server.request("/v1/jobs/ffff")[0] == 404


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
                if view["jobs"].get("running"):
                    break
                time.sleep(0.02)
            status, _, _ = server.request("/v1/chaos/kill-worker", {})
            assert status == 200
            drain_gated(server.service, gate)
            _, _, view = server.request(f"/v1/jobs/{body['job']}")
            assert view["status"] == "done"
            assert server.service.pool_stats.crashes == 1


class TestHealth:
    def test_healthz_and_stats(self, server):
        status, _, body = server.request("/healthz")
        assert status == 200 and body["ok"] is True
        status, _, stats = server.request("/v1/stats")
        assert status == 200
        assert stats["budget"] == server.service.max_queue
        assert "supervision" in stats

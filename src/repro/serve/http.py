"""HTTP/JSON front door for the experiment service.

A deliberately thin shell over
:class:`~repro.serve.service.ExperimentService` built on the standard
library's ``http.server`` (one thread per connection via
``ThreadingHTTPServer`` — the service core is already thread-safe, and
the expensive work happens in worker *processes*, so threads only ever
block on I/O).  Routes:

=======  ==============================  =======================================
Method   Path                            Meaning
=======  ==============================  =======================================
GET      ``/healthz``                    liveness + uptime
GET      ``/v1/stats``                   registry snapshot: counters + gauges
POST     ``/v1/experiments``             submit one spec; optional bounded wait
POST     ``/v1/sweeps``                  submit many specs in one request
GET      ``/v1/jobs/<key>``              job status (+ result summary when done)
GET      ``/v1/jobs/<key>/events``       SSE stream of progress frames
POST     ``/v1/chaos/kill-worker``       fault drill (only with ``--chaos``)
=======  ==============================  =======================================

Error mapping is uniform: malformed specs → 400 with the codec's
message (the same text the CLI prints), admission shed → **429 with a Retry-After header**, unknown
job/route → 404, chaos endpoints without the flag → 403.  A body whose
``Content-Length`` is missing, not a byte count or over 8 MiB is 400/413
and closes the connection, since its unread bytes must not be parsed as
the next request.  Every response body is JSON.

The SSE stream follows the ``text/event-stream`` contract: ``event:``/
``data:`` blocks, comment keep-alives while idle, and the connection
closes after the terminal ``done`` event.  A subscriber that stops
reading simply loses progress frames (the service's bounded per-client
queues drop, never block) and is torn down on the first failed write.
"""

from __future__ import annotations

import json
import math
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import urlparse

from ..errors import ReproError, ServiceOverloaded
from .service import ExperimentService, Job, priority_rank

#: Largest request body accepted (a sweep of thousands of specs fits).
_MAX_BODY_BYTES = 8 << 20

#: Idle seconds between SSE keep-alive comments.
_SSE_KEEPALIVE_S = 10.0

#: A job key: the sha256 hex ``cache_key`` that also names its cache file.
_JOB_KEY = re.compile(r"[0-9a-f]{64}")


class ServeDaemon(ThreadingHTTPServer):
    """The service's HTTP server: one handler thread per connection.

    The listen backlog is sized from the service: twice the sum of its
    admission budget and its worker count.  A burst of connections then
    waits in the kernel until the accept loop takes it, and overload is
    answered by admission control (429 + Retry-After) instead of a TCP
    reset from socketserver's default backlog of 5.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: ExperimentService,
        chaos: bool = False,
        quiet: bool = True,
    ) -> None:
        # Read by server_activate(), which the base __init__ calls.
        self.request_queue_size = 2 * (service.max_queue + service.workers)
        super().__init__(address, ServeHandler)
        self.service = service
        self.chaos = chaos
        self.quiet = quiet


class _Reply(Exception):
    """Internal control flow: a fully-formed response to send."""

    def __init__(
        self, status: int, body: dict, headers: dict[str, str] | None = None
    ) -> None:
        self.status = status
        self.body = body
        self.headers = headers or {}


class ServeHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every connection: a reply goes out as a header write
    # then a body write (and SSE as one write per frame), and Nagle's
    # algorithm would hold each small second write until the client's
    # delayed ACK, some 40 ms later.
    disable_nagle_algorithm = True
    server: ServeDaemon  # narrowed from BaseServer

    # -- plumbing ------------------------------------------------------------

    @property
    def service(self) -> ExperimentService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(
        self, status: int, body: dict, headers: dict[str, str] | None = None
    ) -> None:
        payload = json.dumps(body).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> dict:
        try:
            return self._parse_body()
        except _Reply:
            # The body's framing is unknown (or unread): bytes left on
            # the connection must not be parsed as the next request.
            self.close_connection = True
            raise

    def _parse_body(self) -> dict:
        declared = self.headers.get("Content-Length", "").strip()
        if declared and not (declared.isascii() and declared.isdecimal()):
            raise _Reply(
                400,
                {"error": f"Content-Length: expected a byte count, got {declared!r}"},
            )
        length = int(declared or 0)
        if length == 0:
            raise _Reply(400, {"error": "a JSON request body is required"})
        if length > _MAX_BODY_BYTES:
            raise _Reply(413, {"error": f"request body over {_MAX_BODY_BYTES} bytes"})
        blob = self.rfile.read(length)
        try:
            body = json.loads(blob)
        except (ValueError, RecursionError) as error:
            raise _Reply(400, {"error": f"request body is not JSON: {error}"})
        if not isinstance(body, dict):
            raise _Reply(400, {"error": "request body must be a JSON object"})
        return body

    def _dispatch(self, method: str) -> None:
        try:
            self._route(method)
        except _Reply as reply:
            self._send_json(reply.status, reply.body, reply.headers)
        except ServiceOverloaded as error:
            self._send_json(
                429,
                {
                    "error": str(error),
                    "retry_after_s": error.retry_after_s,
                    "depth": error.depth,
                    "budget": error.budget,
                },
                {"Retry-After": str(max(1, round(error.retry_after_s)))},
            )
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True
        except ReproError as error:  # a malformed spec: the codec's message
            self._send_json(400, {"error": str(error)})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # -- routing -------------------------------------------------------------

    def _route(self, method: str) -> None:
        try:
            path = urlparse(self.path).path.rstrip("/")
        except ValueError as error:  # e.g. an unclosed "[" in the host
            raise _Reply(400, {"error": f"malformed request target: {error}"})
        if method == "GET" and path == "/healthz":
            self._send_json(200, {"ok": True, **self.service.stats_view()})
        elif method == "GET" and path == "/v1/stats":
            self._send_json(200, self.service.stats_view())
        elif method == "POST" and path == "/v1/experiments":
            self._submit_one()
        elif method == "POST" and path == "/v1/sweeps":
            self._submit_sweep()
        elif method == "GET" and path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                self._stream_events(rest[: -len("/events")])
            else:
                self._job_status(rest)
        elif method == "POST" and path == "/v1/chaos/kill-worker":
            self._chaos_kill_worker()
        else:
            self._send_json(404, {"error": f"no route: {method} {path}"})

    # -- submission ----------------------------------------------------------

    def _submit_one(self) -> None:
        body = self._read_body()
        spec = body.get("spec")
        if spec is None:
            raise _Reply(400, {"error": "body must carry a 'spec' object"})
        priority = body.get("priority", "normal")
        wait_s = body.get("wait_s")
        if wait_s is not None and (
            isinstance(wait_s, bool)
            or not isinstance(wait_s, (int, float))
            or not 0 <= wait_s < math.inf
        ):
            raise _Reply(
                400,
                {"error": f"wait_s: expected a non-negative number, got {wait_s!r}"},
            )
        job, how = self.service.submit(spec, priority=priority)
        if wait_s:
            self.service.wait(job, timeout_s=float(min(wait_s, 600.0)))
        view = self.service.job_view(job)
        view["submitted"] = how
        status = 200 if job.finished else 202
        self._send_json(status, view)

    def _submit_sweep(self) -> None:
        body = self._read_body()
        specs = body.get("specs")
        if not isinstance(specs, list) or not specs:
            raise _Reply(400, {"error": "body must carry a non-empty 'specs' array"})
        priority = priority_rank(body.get("priority", "normal"))
        items: list[dict] = []
        accepted = shed = invalid = 0
        for spec in specs:
            try:
                job, how = self.service.submit(spec, priority=priority)
            except ServiceOverloaded as error:
                shed += 1
                items.append(
                    {
                        "submitted": "shed",
                        "error": str(error),
                        "retry_after_s": error.retry_after_s,
                    }
                )
            except ReproError as error:
                invalid += 1
                items.append({"submitted": "invalid", "error": str(error)})
            else:
                accepted += 1
                items.append({"submitted": how, "job": job.key, "status": job.state})
        summary = {
            "jobs": items,
            "accepted": accepted,
            "shed": shed,
            "invalid": invalid,
        }
        if accepted == 0 and shed > 0:
            # The whole sweep bounced off admission control: make the
            # overload unmissable and machine-honored.
            retry = max(
                item.get("retry_after_s", 1.0)
                for item in items
                if item["submitted"] == "shed"
            )
            self._send_json(
                429, summary, {"Retry-After": str(max(1, round(retry)))}
            )
        else:
            self._send_json(200, summary)

    # -- status + streaming --------------------------------------------------

    def _find_job(self, key: str) -> Job:
        # Anything but a cache key names no job, and must not reach the
        # result cache as a file name ("../", NUL bytes).
        job = self.service.job(key) if _JOB_KEY.fullmatch(key) else None
        if job is None:
            raise _Reply(404, {"error": f"no such job: {key}"})
        return job

    def _job_status(self, key: str) -> None:
        self._send_json(200, self.service.job_view(self._find_job(key)))

    def _stream_events(self, key: str) -> None:
        import queue as queue_mod

        job = self._find_job(key)
        events = self.service.subscribe(job)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        try:
            while True:
                try:
                    event = events.get(timeout=_SSE_KEEPALIVE_S)
                except queue_mod.Empty:
                    if job.finished:
                        # Terminal event already drained (or raced past a
                        # full queue): close with a final snapshot.
                        self._sse_write("done", self.service.job_view(job))
                        return
                    self._sse_comment()
                    continue
                self._sse_write(event["event"], event["data"])
                if event["event"] == "done":
                    return
        except (BrokenPipeError, ConnectionResetError, OSError):
            return  # client went away; the bounded queue is discarded
        finally:
            self.service.unsubscribe(job, events)

    def _sse_write(self, name: str, data: dict) -> None:
        blob = f"event: {name}\ndata: {json.dumps(data)}\n\n"
        self.wfile.write(blob.encode())
        self.wfile.flush()

    def _sse_comment(self) -> None:
        self.wfile.write(b": keep-alive\n\n")
        self.wfile.flush()

    # -- chaos ---------------------------------------------------------------

    def _chaos_kill_worker(self) -> None:
        if not self.server.chaos:
            raise _Reply(
                403, {"error": "chaos endpoints require --chaos at startup"}
            )
        self.service.request_worker_kill()
        self._send_json(200, {"requested": True})


def make_daemon(
    service: ExperimentService,
    host: str = "127.0.0.1",
    port: int = 0,
    chaos: bool = False,
    quiet: bool = True,
) -> ServeDaemon:
    """Bind the HTTP front door (``port=0`` picks a free port)."""
    return ServeDaemon((host, port), service, chaos=chaos, quiet=quiet)

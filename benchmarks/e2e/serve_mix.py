"""The service workload: two clients against ``repro serve``.

One process with two client threads on two keep-alive connections sends
``POST /v1/experiments`` with ``wait_s`` in lock-step rounds (a closed
loop: ``repro submit --wait`` callers wait for their reply).  The
untraced run drives a ``python -m repro serve --workers 2`` subprocess;
the traced pass runs ``ExperimentService`` and ``make_daemon``
in-process so that service calls and job timestamps can be seen.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.comparison import selected_policies
from repro.core.configs import ExperimentConfig, SystemConfig
from repro.core.runner import ExperimentTask
from repro.serve.codec import task_to_spec
from repro.serve.http import make_daemon
from repro.serve.service import ExperimentService

from .common import (
    ROOT,
    SETUP_STARTS,
    LayerReport,
    Run,
    store_times_ms,
    child_env,
    time_boxed,
)
from .layers import LayerClock, LayerTotals
from .tracefile import TraceWriter

_perf = time.perf_counter

SERVE_SCALE = 0.05
SERVE_CAP_MS = 30_000.0
#: One block: 3 rounds of two new points, 3 of two finished points, and
#: 2 of one new point sent by both clients.  Each block holds the same
#: mix, so blocks are comparable passes.
BLOCK = ("new",) * 3 + ("repeat",) * 3 + ("dedup",) * 2
MAX_BLOCKS = 40
TRACED_BLOCKS = 5


@dataclass(frozen=True)
class Point:
    id: str
    spec: dict


@dataclass(frozen=True)
class Round:
    kind: str
    points: tuple[Point, Point]


def serve_point(policy, seed: int) -> Point:
    task = ExperimentTask.performance(
        ExperimentConfig(policy=policy, workload="SC",
                         system=SystemConfig(scale=SERVE_SCALE), seed=seed),
        app_cap_ms=SERVE_CAP_MS, seq_cap_ms=SERVE_CAP_MS,
    )
    return Point(f"SC/{policy.label}/{seed}", task_to_spec(task))


def warmup_point() -> Point:
    """Sent once per daemon start; the schedule's seeds are >= 1."""
    return serve_point(selected_policies("SC")[0], 0)


def serve_schedule(seed: int, blocks: int = MAX_BLOCKS) -> list[list[Round]]:
    """Blocks of lock-step rounds drawn from ``seed``.

    New points are SC points of the four §5 policies, two of each per
    block; repeats pick two distinct points already answered.
    """
    rng = random.Random(seed)
    policies = selected_policies("SC")
    finished: list[Point] = []
    used: set[int] = set()

    def new_point(policy) -> Point:
        while True:
            point_seed = rng.randrange(1, 1 << 31)
            if point_seed not in used:
                used.add(point_seed)
                return serve_point(policy, point_seed)

    schedule = []
    for index in range(blocks):
        kinds = list(BLOCK)
        rng.shuffle(kinds)
        if index == 0:
            kinds.remove("new")
            kinds.insert(0, "new")
        picks = [policy for policy in policies for _ in range(2)]
        rng.shuffle(picks)
        block = []
        for kind in kinds:
            if kind == "new":
                points = (new_point(picks.pop()), new_point(picks.pop()))
                finished.extend(points)
            elif kind == "dedup":
                point = new_point(picks.pop())
                points = (point, point)
                finished.append(point)
            else:
                points = tuple(rng.sample(finished, 2))
            block.append(Round(kind, points))
        schedule.append(block)
    return schedule


@dataclass
class Reply:
    point: Point
    client: int
    start: float
    end: float
    status: int = 0
    body: dict = field(default_factory=dict)
    error: str = ""

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class _Client(threading.Thread):
    """One keep-alive connection answering one request per round."""

    def __init__(self, index: int, port: int, replies: queue.Queue) -> None:
        super().__init__(name=f"e2e-client-{index}", daemon=True)
        self.index = index
        self.port = port
        self.replies = replies
        self.inbox: queue.Queue = queue.Queue()

    def run(self) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=300)
        try:
            while True:
                point = self.inbox.get()
                if point is None:
                    return
                reply = Reply(point, self.index, _perf(), 0.0)
                body = json.dumps({"spec": point.spec, "wait_s": 300})
                try:
                    connection.request("POST", "/v1/experiments", body=body,
                                       headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    reply.body = json.loads(response.read())
                    reply.status = response.status
                except (OSError, http.client.HTTPException, ValueError) as error:
                    reply.error = f"{type(error).__name__}: {error}"
                    connection.close()
                reply.end = _perf()
                self.replies.put(reply)
        finally:
            connection.close()


class Clients:
    """Two client threads driven in lock-step rounds (a closed loop)."""

    def __init__(self, port: int) -> None:
        self.replies: queue.Queue = queue.Queue()
        self.threads = [_Client(i, port, self.replies) for i in range(2)]
        for thread in self.threads:
            thread.start()

    def round(self, points: tuple[Point, ...]) -> list[Reply]:
        for thread, point in zip(self.threads, points):
            thread.inbox.put(point)
        replies = [self.replies.get() for _ in points]
        return sorted(replies, key=lambda reply: reply.client)

    def close(self) -> None:
        for thread in self.threads:
            thread.inbox.put(None)
        for thread in self.threads:
            thread.join(timeout=30)


def check_reply(run: Run, kind: str, reply: Reply) -> None:
    point_id = reply.point.id
    if reply.error:
        run.attempt(f"{point_id}: {reply.error}")
        return
    body = reply.body
    if reply.status != 200 or body.get("status") != "done":
        run.attempt(f"{point_id}: HTTP {reply.status} {body.get('status')} "
                    f"{body.get('error', '')}".strip())
        return
    if kind == "repeat" and body.get("submitted") != "done":
        run.attempt(f"{point_id}: a finished point was {body.get('submitted')}, "
                    "not answered from the cache")
        return
    digest = body.get("summary", {}).get("result_digest", "")
    run.attempt(run.digest_problem(point_id, digest))


class Daemon:
    """A ``python -m repro serve`` subprocess on its own state directory."""

    def __init__(self, state_dir: Path) -> None:
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--state-dir", str(state_dir),
             "--port", "0", "--workers", "2"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.port = self._await_port(timeout_s=60.0)

    def _await_port(self, timeout_s: float) -> int:
        deadline = _perf() + timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stderr, selectors.EVENT_READ)
            while _perf() < deadline:
                if not selector.select(timeout=deadline - _perf()):
                    break
                line = self.process.stderr.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.split("listening on http://")[1].split()[0]
                               .rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("repro serve did not report a listening address")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class ServeWorkload:
    """Two clients against ``repro serve --workers 2``, lock-step rounds."""

    name = "serve_mix"

    def __init__(self, blocks: int = MAX_BLOCKS, traced_blocks: int = TRACED_BLOCKS) -> None:
        self.blocks = blocks
        self.traced_blocks = traced_blocks
        self._daemon: Daemon | None = None

    def _start(self, run: Run, state_dir: Path) -> Daemon:
        """Start a daemon and answer one warm-up request."""
        daemon = Daemon(state_dir)
        try:
            clients = Clients(daemon.port)
            try:
                (reply,) = clients.round((warmup_point(),))
            finally:
                clients.close()
        except BaseException:
            daemon.stop()
            raise
        check_reply(run, "warmup", reply)
        return daemon

    def setup(self, run: Run, workdir: Path) -> None:
        run.timer.start()
        for index in range(SETUP_STARTS):
            run.timer.resume()
            daemon = self._start(run, workdir / f"state{index}")
            run.sample_timed("setup_s", run.timer.split())
            if index + 1 < SETUP_STARTS:
                daemon.stop()
            else:
                self._daemon = daemon

    def close(self) -> None:
        if self._daemon is not None:
            self._daemon.stop()
            self._daemon = None

    def _loop(self, run: Run, port: int, blocks: list[list[Round]],
              seconds: float | None,
              on_round: Callable[[float, float, list[Reply]], None] | None = None,
              ) -> float:
        """Drive ``blocks``; return the loop's wall seconds.

        A time-boxed loop (``seconds`` given) times each block into
        ``wall_s`` with ``run.timer``, which runs the host-speed kernel
        between blocks.
        """
        clients = Clients(port)
        pending = iter(blocks)
        start = _perf()

        def one_block() -> None:
            for rnd in next(pending):
                round_start = _perf()
                replies = clients.round(rnd.points)
                if on_round is not None:
                    on_round(round_start, _perf(), replies)
                for reply in replies:
                    check_reply(run, rnd.kind, reply)
                    run.sample("hit_ms" if reply.body.get("submitted") == "done"
                               else "miss_ms", reply.ms)
                    run.sample("req_ms", reply.ms)
            if seconds is not None:
                run.sample_timed("wall_s", run.timer.split())

        try:
            if seconds is None:
                for _ in blocks:
                    one_block()
            else:
                run.timer.start()
                time_boxed(seconds, one_block, len(blocks))
        finally:
            clients.close()
        return _perf() - start

    def check_schedule(self, run: Run, schedule: list[list[Round]]) -> None:
        """At the recorded seed, the new points must come in the recorded order."""
        if not run.golden:
            return
        new = list(dict.fromkeys(point.id for block in schedule for rnd in block
                                 if rnd.kind != "repeat" for point in rnd.points))
        run.attempt(None if new == list(run.golden)[: len(new)]
                    else "serve_mix schedule differs from golden.json")

    def measure(self, run: Run, seconds: float, workdir: Path) -> None:
        schedule = serve_schedule(run.seed, self.blocks)
        self.check_schedule(run, schedule)
        run.combined_ids = sorted({p.id for rnd in schedule[0] for p in rnd.points})
        try:
            self._loop(run, self._daemon.port, schedule, seconds)
        finally:
            self.close()
        requests = len(run.samples.get("req_ms", []))
        run.sample("req_per_s", requests / sum(run.samples.get("wall_raw_s", [])))

    def trace(self, run: Run, workdir: Path, writer: TraceWriter) -> LayerReport:
        schedule = serve_schedule(run.seed, self.traced_blocks)
        self.check_schedule(run, schedule)
        run.combined_ids = sorted({p.id for rnd in schedule[0] for p in rnd.points})
        daemon = self._start(run, workdir / "untraced")
        try:
            untraced_s = self._loop(run, daemon.port, schedule, None)
        finally:
            daemon.stop()

        clock = LayerClock(frozenset({
            "core.cache_load", "core.cache_store", "serve.submit", "serve.wait",
            "serve.job_view", "serve.ledger_accept", "serve.ledger_done",
        }))
        rounds: list = []
        jobs: dict = {}

        def on_round(start: float, end: float, replies: list[Reply]) -> None:
            # A later cache hit replaces the job under its key, so the
            # job that ran is looked up as soon as its round ends.
            rounds.append((start, end, replies))
            for reply in replies:
                key = reply.body.get("job")
                if key is not None and key not in jobs:
                    jobs[key] = service.job(key)

        with clock.installed():
            service = ExperimentService(workdir / "traced", workers=2)
            service.start()
            server = make_daemon(service)
            thread = threading.Thread(target=server.serve_forever,
                                      kwargs={"poll_interval": 0.2}, daemon=True)
            thread.start()
            try:
                clients = Clients(server.server_address[1])
                try:
                    clients.round((warmup_point(),))
                finally:
                    clients.close()
                traced_s = self._loop(run, server.server_address[1], schedule,
                                      None, on_round=on_round)
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=30)
                service.stop()
        return attribute_serve(clock.totals(), rounds, jobs, traced_s,
                               untraced_s, writer)


def _overlap(a: tuple[float, float], b: tuple[float, float]) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def attribute_serve(totals: LayerTotals, rounds: list, jobs: dict,
                    traced_s: float, untraced_s: float,
                    writer: TraceWriter) -> LayerReport:
    """Split each round's slowest request into http, service and job phases.

    A request's service visit is the submit → wait → job_view calls its
    handler thread made for its key inside the request's window.  The
    job's own timestamps split the wait into queue (admitted, not yet
    dispatched), run (in the worker) and complete (result back, stored
    and journaled).  The client's latency minus the visit is HTTP.
    """
    by_key: dict[str, list] = {}
    for span in totals.spans:
        by_key.setdefault(span.key, []).append(span)
    parts = dict.fromkeys(("http", "serve", "core", "queue", "run", "complete",
                           "ledger"), 0.0)
    detail: dict[str, list[float]] = {name: [] for name in parts}
    claimed: set[tuple[int, float]] = set()
    hits = waited = queued = 0
    for round_start, round_end, replies in rounds:
        round_id = writer.span("round", "rounds", round_start, round_end)
        split = []
        for reply in replies:
            key = reply.body.get("job", "")
            how = reply.body.get("submitted")
            hits += how == "done"
            waited += how in ("queued", "deduped")
            queued += how == "queued"
            request_id = writer.span(reply.point.id, f"client {reply.client}",
                                     reply.start, reply.end, key=key,
                                     parent=round_id)
            window = [s for s in by_key.get(key, ())
                      if reply.start <= s.start and s.end <= reply.end
                      and (s.thread, s.start) not in claimed]
            # The handler thread is the one whose submit opened the visit;
            # the engine thread also calls job_view when the job completes.
            handler = next((s.thread for s in window if s.name == "serve.submit"), None)
            mine = [s for s in window if s.thread == handler
                    and s.name in ("serve.submit", "serve.wait", "serve.job_view")]
            claimed.update((s.thread, s.start) for s in mine)
            visit = (min((s.start for s in mine), default=reply.start),
                     max((s.end for s in mine), default=reply.start))
            for span in mine:
                writer.span(span.name, "handler", span.start, span.end, key=key,
                            parent=request_id)
            inside = [s for s in window if s.thread == handler
                      and visit[0] <= s.start and s.end <= visit[1]]
            piece = dict.fromkeys(parts, 0.0)
            piece["http"] = (reply.end - reply.start) - (visit[1] - visit[0])
            piece["core"] = sum(s.end - s.start for s in inside
                                if s.name == "core.cache_load")
            piece["ledger"] = sum(s.end - s.start for s in inside
                                  if s.name == "serve.ledger_accept")
            job = jobs.get(key)
            wait = next((s for s in mine if s.name == "serve.wait"), None)
            if wait is not None and job is not None and job.started_s is not None:
                window = (wait.start, wait.end)
                ran = job.started_s + job.elapsed_s
                piece["queue"] = _overlap(window, (job.submitted_s, job.started_s))
                piece["run"] = _overlap(window, (job.started_s, ran))
                piece["complete"] = _overlap(window, (ran, job.finished_s or ran))
                piece["ledger"] += sum(
                    _overlap(window, (s.start, s.end)) for s in by_key.get(key, ())
                    if s.name == "serve.ledger_done")
            piece["serve"] = (visit[1] - visit[0]) - piece["core"] - piece["queue"] \
                - piece["run"] - piece["complete"]
            for name, value in piece.items():
                detail[name].append(value * 1e3)
            split.append((reply.end - reply.start, piece))
        slowest = max(split, key=lambda item: item[0])[1]
        for name, value in slowest.items():
            parts[name] += value
    for span in totals.spans:
        if span.name in ("core.cache_store", "serve.ledger_done"):
            writer.span(span.name, "engine", span.start, span.end, key=span.key)
    totals.self_s["serve"] = parts["serve"]
    totals.self_s["core"] = parts["core"]
    requests = sum(len(replies) for _, _, replies in rounds)
    return LayerReport(
        totals=totals, blocking_s=traced_s, traced_s=traced_s, untraced_s=untraced_s,
        extra_shares={name: parts[name] / traced_s
                      for name in ("http", "queue", "run", "complete", "ledger")},
        hit_ratio=hits / requests if requests else 0.0,
        dedup_fanin=waited / queued if queued else 0.0,
        store_ms=store_times_ms(totals),
        detail_ms=detail,
    )

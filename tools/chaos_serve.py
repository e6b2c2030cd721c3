"""Chaos harness for the experiment service: scripted fault drills
against a *real* ``repro serve`` daemon (subprocess, real HTTP, real
worker processes, real simulations).

Each drill asserts the service's headline guarantees survive a specific
injected failure:

* ``restart``      — SIGKILL the daemon mid-sweep, restart it on the
                     same state dir; every job finishes and every result
                     digest is bit-identical to an undisturbed run.
                     (This is the CI smoke drill.)
* ``worker-kill``  — SIGKILL a busy worker via the chaos endpoint; the
                     job retries to completion with an identical digest.
* ``corrupt-cache``— flip bytes in a stored result; the cache detects
                     the bad checksum, evicts, re-executes, and the new
                     digest matches.
* ``torn-ledger``  — truncate the run ledger mid-record (simulated torn
                     write); the daemon repairs the tail and recovers
                     every intact job.
* ``dedup``        — a burst of identical concurrent requests costs
                     exactly one simulation.
* ``overload``     — a flood of distinct requests sheds with bounded
                     429 + Retry-After; everything admitted still
                     finishes.
* ``slow-client``  — an SSE subscriber that hangs up mid-stream leaves
                     the daemon healthy.
* ``malformed``    — the wire form of every malformed CLI input (bad
                     policy, workload, organization, scale, cap, grow
                     factor, fit, fault plan, field types) gets 400 with
                     the codec's own message and never reaches the
                     ledger; a valid spec then still completes.
* ``latency``      — cache hits over one keep-alive connection are
                     answered in milliseconds: no reply waits for the
                     client's delayed ACK (Nagle's algorithm).

Usage::

    python tools/chaos_serve.py                 # every drill
    python tools/chaos_serve.py --drill restart # just the CI smoke

Exit status 0 when every selected drill passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from http.client import HTTPConnection
from pathlib import Path
from urllib.parse import urlsplit

REPO = Path(__file__).resolve().parent.parent


class ChaosFailure(AssertionError):
    """A drill's guarantee did not hold."""


# -- daemon management -------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess with parsed listen address."""

    def __init__(self, state_dir: Path, *extra: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{REPO / 'src'}:{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(REPO / "src")
        )
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--state-dir", str(state_dir), "--port", "0", *extra,
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.stderr_lines: list[str] = []
        self._drain = threading.Thread(target=self._pump, daemon=True)
        self._drain.start()
        self.base = self._await_listening()

    def _pump(self) -> None:
        for line in self.process.stderr:
            self.stderr_lines.append(line.rstrip("\n"))

    def _await_listening(self, timeout_s: float = 30.0) -> str:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            for line in self.stderr_lines:
                if "listening on " in line:
                    url = line.split("listening on ", 1)[1].split()[0]
                    return url.rstrip("/")
            if self.process.poll() is not None:
                raise ChaosFailure(
                    "daemon exited during startup:\n"
                    + "\n".join(self.stderr_lines)
                )
            time.sleep(0.05)
        raise ChaosFailure("daemon never reported its listen address")

    def sigkill(self) -> None:
        self.process.send_signal(signal.SIGKILL)
        self.process.wait()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# -- HTTP helpers ------------------------------------------------------------


def request(
    base: str, path: str, body: dict | None = None, timeout: float = 120.0
) -> tuple[int, dict, dict]:
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        f"{base}{path}",
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return (
                response.status,
                dict(response.headers),
                json.loads(response.read()),
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def await_job(base: str, key: str, timeout_s: float = 180.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, _, view = request(base, f"/v1/jobs/{key}")
        if status == 200 and view["status"] in ("done", "failed"):
            return view
        time.sleep(0.1)
    raise ChaosFailure(f"job {key} did not finish within {timeout_s:.0f}s")


def spec_for(seed: int, cap_ms: float) -> dict:
    return {
        "kind": "performance",
        "workload": "TS",
        "seed": seed,
        "policy": {"name": "fixed", "block_size": "4K"},
        "system": {"scale": 0.02},
        "kwargs": {"app_cap_ms": cap_ms, "seq_cap_ms": cap_ms},
    }


def submit(base: str, spec: dict, **body) -> dict:
    status, _, view = request(
        base, "/v1/experiments", {"spec": spec, **body}
    )
    if status not in (200, 202):
        raise ChaosFailure(f"submit failed ({status}): {view}")
    return view


def digests_of(base: str, keys: list[str]) -> dict[str, str]:
    out = {}
    for key in keys:
        view = await_job(base, key)
        if view["status"] != "done":
            raise ChaosFailure(f"job {key} failed: {view.get('error')}")
        out[key] = view["summary"]["result_digest"]
    return out


def clean_run_digests(
    scratch: Path, specs: list[dict], label: str
) -> dict[str, str]:
    """Digests from an undisturbed daemon: the bit-identity reference."""
    daemon = Daemon(scratch / f"{label}-clean")
    try:
        keys = [submit(daemon.base, spec)["job"] for spec in specs]
        return digests_of(daemon.base, keys)
    finally:
        daemon.stop()


# -- drills ------------------------------------------------------------------


def drill_restart(scratch: Path) -> None:
    """SIGKILL mid-sweep; restart; finish bit-identically."""
    specs = [spec_for(seed, cap_ms=20_000.0) for seed in range(1, 7)]
    reference = clean_run_digests(scratch, specs, "restart")

    state = scratch / "restart-state"
    daemon = Daemon(state)
    keys = [submit(daemon.base, spec)["job"] for spec in specs]
    # Wait until the sweep is genuinely mid-flight (something finished,
    # something running), then kill -9 the daemon.
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        _, _, stats = request(daemon.base, "/v1/stats")
        executed = stats["counters"]["serve.executed"]
        if executed >= 1 and stats["gauges"]["serve.depth"] >= 1:
            break
        time.sleep(0.05)
    else:
        daemon.stop()
        raise ChaosFailure("sweep never reached a mid-flight state")
    daemon.sigkill()

    revived = Daemon(state)
    try:
        _, _, stats = request(revived.base, "/v1/stats")
        recovered = stats["counters"]["serve.recovered"]
        if recovered < 1:
            raise ChaosFailure(
                f"restart recovered {recovered} jobs; expected >= 1"
            )
        after = digests_of(revived.base, keys)
    finally:
        revived.stop()
    if after != reference:  # same specs, same cache keys, same digests
        raise ChaosFailure(
            "digests after SIGKILL+restart differ from the clean run"
        )


def drill_worker_kill(scratch: Path) -> None:
    """SIGKILL a busy worker; the job retries and matches the clean digest."""
    spec = spec_for(77, cap_ms=30_000.0)
    reference = clean_run_digests(scratch, [spec], "worker-kill")

    daemon = Daemon(scratch / "worker-kill-state", "--chaos", "--retries", "2")
    try:
        key = submit(daemon.base, spec)["job"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            _, _, stats = request(daemon.base, "/v1/stats")
            if stats["gauges"]["serve.jobs.running"]:
                break
            time.sleep(0.05)
        status, _, _ = request(daemon.base, "/v1/chaos/kill-worker", {})
        if status != 200:
            raise ChaosFailure(f"chaos endpoint returned {status}")
        view = await_job(daemon.base, key)
        _, _, stats = request(daemon.base, "/v1/stats")
        if stats["counters"]["core.crashes"] < 1:
            raise ChaosFailure("the worker kill was never observed as a crash")
        if view["summary"]["result_digest"] != next(iter(reference.values())):
            raise ChaosFailure("digest after worker kill differs from clean run")
    finally:
        daemon.stop()


def drill_corrupt_cache(scratch: Path) -> None:
    """Corrupt a stored result; the service detects, evicts, re-runs."""
    spec = spec_for(5, cap_ms=2_000.0)
    state = scratch / "corrupt-state"
    daemon = Daemon(state)
    key = submit(daemon.base, spec, wait_s=120)["job"]
    good = await_job(daemon.base, key)["summary"]["result_digest"]
    daemon.stop()

    [entry] = list((state / "results").glob(f"{key}*"))
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    entry.write_bytes(bytes(blob))

    revived = Daemon(state)
    try:
        view = submit(revived.base, spec, wait_s=120)
        if view["status"] != "done":
            raise ChaosFailure(f"resubmit after corruption: {view}")
        if view["summary"]["result_digest"] != good:
            raise ChaosFailure("re-executed digest differs after corruption")
        _, _, stats = request(revived.base, "/v1/stats")
        if stats["counters"]["core.cache_evictions"] < 1:
            raise ChaosFailure("corrupt entry was not evicted")
        if stats["counters"]["serve.executed"] < 1:
            raise ChaosFailure("corrupt entry was served instead of re-run")
    finally:
        revived.stop()


def drill_torn_ledger(scratch: Path) -> None:
    """Truncate the ledger mid-record; the daemon repairs and recovers."""
    state = scratch / "torn-state"
    daemon = Daemon(state)
    spec = spec_for(11, cap_ms=2_000.0)
    key = submit(daemon.base, spec, wait_s=120)["job"]
    daemon.sigkill()  # no graceful close: the journal must stand alone

    ledger = state / "ledger.jsonl"
    with open(ledger, "a", encoding="utf-8") as handle:
        handle.write('{"op": "accept", "key": "torn-victim", "sp')

    revived = Daemon(state)
    try:
        view = await_job(revived.base, key)
        if view["status"] != "done":
            raise ChaosFailure(f"intact job lost after torn ledger: {view}")
        status, _, _ = request(revived.base, "/v1/jobs/torn-victim")
        if status != 404:
            raise ChaosFailure("the torn record should not have survived")
    finally:
        revived.stop()


def drill_dedup(scratch: Path) -> None:
    """A burst of identical requests costs exactly one simulation."""
    daemon = Daemon(scratch / "dedup-state")
    try:
        spec = spec_for(42, cap_ms=20_000.0)
        results: list[dict] = []
        lock = threading.Lock()

        def fire() -> None:
            view = submit(daemon.base, spec)
            with lock:
                results.append(view)

        threads = [threading.Thread(target=fire) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        keys = {view["job"] for view in results}
        if len(keys) != 1:
            raise ChaosFailure(f"expected one job key, got {len(keys)}")
        await_job(daemon.base, keys.pop())
        _, _, stats = request(daemon.base, "/v1/stats")
        counters = stats["counters"]
        if counters["serve.executed"] != 1:
            raise ChaosFailure(
                f"{counters['serve.executed']} simulations for 32 identical requests"
            )
        # Stragglers arriving after completion are cache hits rather
        # than dedups; either way they must not have simulated.
        deduped, hits = counters["serve.deduped"], counters["serve.cache_hits"]
        served = deduped + hits
        if served != 31:
            raise ChaosFailure(
                f"deduped+cache_hits={served}, expected 31 "
                f"(deduped={deduped}, hits={hits})"
            )
    finally:
        daemon.stop()


def drill_overload(scratch: Path) -> None:
    """Flooding sheds bounded 429s; everything admitted still finishes."""
    daemon = Daemon(
        scratch / "overload-state",
        "--workers", "1", "--max-queue", "3",
    )
    try:
        accepted_keys: list[str] = []
        shed = 0
        for seed in range(100, 112):
            status, headers, view = request(
                daemon.base,
                "/v1/experiments",
                {"spec": spec_for(seed, cap_ms=20_000.0)},
            )
            if status == 429:
                shed += 1
                if "Retry-After" not in headers:
                    raise ChaosFailure("429 without a Retry-After header")
                if not (1.0 <= view["retry_after_s"] <= 120.0):
                    raise ChaosFailure(
                        f"unbounded retry hint: {view['retry_after_s']}"
                    )
            elif status == 202:
                accepted_keys.append(view["job"])
            else:
                raise ChaosFailure(f"unexpected status {status}: {view}")
        if shed == 0:
            raise ChaosFailure("the flood was never shed")
        if not accepted_keys:
            raise ChaosFailure("nothing was admitted at all")
        digests_of(daemon.base, accepted_keys)  # raises unless all finish
    finally:
        daemon.stop()


def drill_slow_client(scratch: Path) -> None:
    """An SSE subscriber hanging up mid-stream leaves the daemon healthy."""
    daemon = Daemon(scratch / "slow-client-state")
    try:
        spec = spec_for(55, cap_ms=20_000.0)
        key = submit(daemon.base, spec)["job"]
        stream = urllib.request.urlopen(
            f"{daemon.base}/v1/jobs/{key}/events", timeout=10
        )
        stream.close()  # hang up immediately, mid-job
        view = await_job(daemon.base, key)
        if view["status"] != "done":
            raise ChaosFailure(f"job lost after client disconnect: {view}")
        status, _, body = request(daemon.base, "/healthz")
        if status != 200 or not body.get("ok"):
            raise ChaosFailure("daemon unhealthy after client disconnect")
    finally:
        daemon.stop()


#: Wire forms of malformed ``repro perf`` inputs: edits to a valid spec.
MALFORMED_EDITS = [
    {"policy": {"name": "zfs"}},
    {"workload": "XX"},
    {"system": {"scale": 0.02, "organization": "raid7"}},
    {"system": {"scale": -1.0}},
    {"system": {"scale": "0.1"}},
    {"system": {"scale": float("nan")}},
    {"kwargs": {"app_cap_ms": -5.0, "seq_cap_ms": -5.0}},
    {"kwargs": {"app_cap_ms": 1000.0, "collect_trace": "yes"}},
    {"policy": {"name": "restricted", "grow_factor": 0}},
    {"policy": {"name": "extent", "fit": "worst"}},
    {"policy": {"name": "extent", "range_means": []}},
    {"faults": "boom:drive=1"},
    {"seed": "seven"},
    {"fill_fraction": 0},
]


def drill_malformed(scratch: Path) -> None:
    """Malformed specs get the codec's 400 and leave no ledger trace."""
    sys.path.insert(0, str(REPO / "src"))
    from repro.errors import ConfigurationError
    from repro.serve.codec import spec_to_task

    state = scratch / "malformed-state"
    daemon = Daemon(state)
    try:
        for edit in MALFORMED_EDITS:
            spec = {**spec_for(3, cap_ms=2_000.0), **edit}
            try:
                spec_to_task(spec)
            except ConfigurationError as error:
                expected = str(error)
            else:
                raise ChaosFailure(f"the codec accepts {edit}")
            status, _, view = request(daemon.base, "/v1/experiments", {"spec": spec})
            if (status, view) != (400, {"error": expected}):
                raise ChaosFailure(
                    f"{edit}: got {status} {view}, expected 400 {expected!r}"
                )
        if (state / "ledger.jsonl").read_text():
            raise ChaosFailure("a malformed spec reached the ledger")
        view = submit(daemon.base, spec_for(3, cap_ms=2_000.0), wait_s=120)
        if view["status"] != "done":
            raise ChaosFailure(f"valid spec after malformed ones: {view}")
    finally:
        daemon.stop()


def drill_latency(scratch: Path) -> None:
    """Keep-alive cache hits come back in milliseconds, not after ~40 ms."""
    daemon = Daemon(scratch / "latency-state")
    try:
        spec = spec_for(9, cap_ms=2_000.0)
        submit(daemon.base, spec, wait_s=120)  # every later POST is a hit
        address = urlsplit(daemon.base)
        connection = HTTPConnection(address.hostname, address.port, timeout=30)
        body = json.dumps({"spec": spec}).encode()
        times_ms = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request(
                    "POST",
                    "/v1/experiments",
                    body,
                    {"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                view = json.loads(response.read())
                times_ms.append((time.perf_counter() - started) * 1e3)
                if response.status != 200 or view.get("submitted") != "done":
                    raise ChaosFailure(
                        f"expected a cache hit, got {response.status}: {view}"
                    )
        finally:
            connection.close()
        median = statistics.median(times_ms)
        if median >= 15.0:
            raise ChaosFailure(
                f"median keep-alive cache hit took {median:.1f} ms (limit 15 ms)"
            )
    finally:
        daemon.stop()


DRILLS = {
    "restart": drill_restart,
    "worker-kill": drill_worker_kill,
    "corrupt-cache": drill_corrupt_cache,
    "torn-ledger": drill_torn_ledger,
    "dedup": drill_dedup,
    "overload": drill_overload,
    "slow-client": drill_slow_client,
    "malformed": drill_malformed,
    "latency": drill_latency,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--drill",
        choices=(*DRILLS, "all"),
        default="all",
        help="which drill to run (default: every drill)",
    )
    parser.add_argument(
        "--scratch",
        default=None,
        metavar="DIR",
        help="state-directory root (default: a fresh temp dir)",
    )
    args = parser.parse_args(argv)

    import tempfile

    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="chaos-serve-"))
    scratch.mkdir(parents=True, exist_ok=True)
    selected = list(DRILLS) if args.drill == "all" else [args.drill]

    failures = 0
    for name in selected:
        started = time.monotonic()
        print(f"chaos[{name}]: running ...", flush=True)
        try:
            DRILLS[name](scratch)
        except ChaosFailure as failure:
            failures += 1
            print(f"chaos[{name}]: FAIL — {failure}", flush=True)
        else:
            print(
                f"chaos[{name}]: PASS ({time.monotonic() - started:.1f}s)",
                flush=True,
            )
    print(
        f"chaos: {len(selected) - failures}/{len(selected)} drills passed",
        flush=True,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

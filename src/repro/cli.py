"""Command-line interface: run the paper's experiments from a shell.

Examples::

    python -m repro alloc --policy restricted --workload TS --scale 0.1
    python -m repro perf  --policy extent --workload TP --scale 0.1
    python -m repro compare --scale 0.1
    python -m repro faults --organization raid5 \
        --inject "fail:drive=0,at=15000,repair=40000"
    python -m repro table1

Exit status is 0 on success; configuration errors print to stderr and
exit 2 (argparse semantics); an interrupted sweep (Ctrl-C) exits 130,
and rerunning it against the same result cache resumes it.

Every experiment command builds its task from a codec spec
(:func:`spec_from_args` → :func:`repro.serve.codec.spec_to_task`), so
the CLI and the HTTP API share one decoder, defaults and messages.

The ``alloc``, ``perf``, and ``compare`` commands accept ``--jobs`` (fan
independent sweep points across worker processes), ``--cache-dir``
(result cache location, default ``~/.cache/repro`` or $REPRO_CACHE_DIR),
and ``--no-cache``.  Every finished point is stored in the cache as it
completes, so the cache is also the resume record of a sweep.  Progress
and a runner summary line ("N executed, M cached, ...") go to stderr, so
stdout stays byte-identical whatever the jobs count or cache state.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import pstats
import sys
import time
from pathlib import Path
from typing import Any

from .audit.bisect import bisect_divergence
from .audit.replay import performance_replay
from .core.comparison import figure6
from .core.experiments import run_performance_experiment
from .core.runner import ExperimentRunner, ExperimentTask, default_cache_dir
from .core.configs import ORGANIZATIONS, SystemConfig, extent_ranges_for
from .disk.geometry import WREN_IV
from .errors import ReproError, SweepInterrupted
from .obs import SweepTelemetry, trace_to_chrome, trace_to_jsonl
from .sim.engine import Simulator
from .report.figures import GroupedBarChart
from .report.summary import (
    render_fault_summary,
    render_metrics_snapshot,
    render_performance_summary,
)
from .report.tables import Table
from .serve import ExperimentService, make_daemon, task_to_spec
from .serve.codec import POLICY_CODECS, WORKLOADS, spec_to_task
from .units import MIB

#: Marks a spec flag a subcommand does not declare (see add_spec_args).
_UNDECLARED = object()


def add_spec_args(
    parser: argparse.ArgumentParser,
    *,
    cap_ms: object = _UNDECLARED,
    organization: object = _UNDECLARED,
    inject: object = _UNDECLARED,
    policy: bool = True,
) -> None:
    """Declare the flags whose values land in a task spec, each once.

    ``cap_ms``, ``organization`` and ``inject`` are the subcommand's
    defaults for those flags; a flag left undeclared keeps the codec's
    default.  Values are not checked here: :func:`spec_to_task` is the
    one validator, so its message is the only rejection.
    """
    parser.add_argument("--scale", type=float, default=0.1,
                        help="disk scale factor (1.0 = the paper's 2.8G)")
    parser.add_argument("--seed", type=int, default=1991)
    if policy:
        parser.add_argument("--policy", default="restricted",
                            help=f"one of {', '.join(POLICY_CODECS)}")
        parser.add_argument("--workload", default="SC",
                            help=f"one of {', '.join(WORKLOADS)}")
        parser.add_argument("--grow-factor", type=int, default=1,
                            help="restricted buddy grow factor")
        parser.add_argument("--unclustered", action="store_true",
                            help="disable restricted-buddy region clustering")
        parser.add_argument("--extent-ranges", type=int, default=3,
                            help="extent range count: a row (1-5) of the "
                                 "workload's §4.3 table")
        parser.add_argument("--fit", default="first",
                            help="extent fit policy: first or best")
    if cap_ms is not _UNDECLARED:
        parser.add_argument("--cap-ms", type=float, default=cap_ms,
                            help="simulated-time cap per phase")
    if organization is not _UNDECLARED:
        parser.add_argument("--organization", default=organization,
                            help="disk organization: one of "
                                 f"{', '.join(ORGANIZATIONS)} (redundant "
                                 "ones mask failures)")
    if inject is not _UNDECLARED:
        parser.add_argument("--inject", default=inject, metavar="CLAUSES",
                            help="fault plan, e.g. "
                                 "'fail:drive=2,at=5000,repair=20000;"
                                 "slow:drive=0,at=0,factor=4;"
                                 "transient:rate=0.001'")


def spec_from_args(
    args: argparse.Namespace, kind: str = "performance"
) -> dict:
    """The codec spec the flags of :func:`add_spec_args` describe.

    Only declared flags appear; a bare ``fixed`` or ``extent`` policy
    takes the codec's per-workload defaults.
    """
    spec: dict = {"kind": kind, "seed": args.seed, "system": {"scale": args.scale}}
    if "organization" in args:
        spec["system"]["organization"] = args.organization
    if "policy" in args:
        spec["workload"] = args.workload
        spec["policy"] = {"name": args.policy}
        if args.policy == "restricted":
            spec["policy"].update(
                grow_factor=args.grow_factor, clustered=not args.unclustered
            )
        elif args.policy == "extent":
            ranges = extent_ranges_for(args.workload, args.extent_ranges)
            spec["policy"].update(range_means=list(ranges), fit=args.fit)
    if getattr(args, "inject", None):
        spec["faults"] = args.inject
    if kind == "performance" and "cap_ms" in args:
        spec["kwargs"] = {"app_cap_ms": args.cap_ms, "seq_cap_ms": args.cap_ms}
    return spec


def _progress(outcome, completed: int, total: int) -> None:
    """Per-point progress line on stderr (stdout carries only reports)."""
    status = "cached" if outcome.from_cache else (
        "failed" if outcome.error else f"{outcome.elapsed_s:.1f}s"
    )
    print(
        f"[{completed}/{total}] {outcome.task.describe()}: {status}",
        file=sys.stderr,
    )


def make_runner(args: argparse.Namespace) -> ExperimentRunner:
    """Build the experiment runner from the common CLI flags.

    ``--live`` wires a :class:`~repro.obs.telemetry.SweepTelemetry` view:
    running experiments stream progress frames (over the supervision
    pipes for pool workers, directly for inline runs) and a throttled
    status line lands on stderr.  stdout stays byte-identical either
    way.
    """
    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    view = (
        SweepTelemetry(sys.stderr) if getattr(args, "live", False) else None
    )

    def progress(outcome, completed: int, total: int) -> None:
        if view is not None:
            view.note_point_done(completed, total, index=outcome.index)
        _progress(outcome, completed, total)

    return ExperimentRunner(
        jobs=args.jobs,
        cache_dir=cache_dir,
        progress=progress,
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 0),
        telemetry=view.on_frame if view is not None else None,
    )


def _finish(runner: ExperimentRunner) -> None:
    """Report the runner's counters on stderr."""
    print(runner.summary(), file=sys.stderr)


def _run_point(args: argparse.Namespace, task: ExperimentTask) -> Any:
    """One point through the runner (cache, pool, telemetry) + summary."""
    runner = make_runner(args)
    result = runner.results([task])[0]
    _finish(runner)
    return result


def cmd_alloc(args: argparse.Namespace) -> int:
    task = spec_to_task(spec_from_args(args, "allocation"))
    result = _run_point(args, task)
    frag = result.fragmentation
    table = Table(
        ["Metric", "Value"], title=f"Allocation test: {task.config.describe()}"
    )
    table.add_row(["Internal fragmentation", f"{frag.internal_percent:.1f}%"])
    table.add_row(["External fragmentation", f"{frag.external_percent:.1f}%"])
    table.add_row(["Churn operations", result.operations])
    table.add_row(["Files at measurement", result.file_count])
    table.add_row(["Avg extents per file", f"{result.average_extents_per_file:.1f}"])
    table.add_row(["Disk filled", "yes" if result.filled else "no (steady state)"])
    print(table.render())
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    if args.audit:
        spec["audit"] = {}
    print(render_performance_summary(_run_point(args, spec_to_task(spec))))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Degraded-mode demonstration: inject faults, report the meters.

    Runs one performance experiment on a redundant organization with the
    given fault plan and prints the healthy/degraded throughput split —
    the quickest way to see a drive failure, the reconstruction-read
    penalty, and the rebuild competing for bandwidth.
    """
    task = spec_to_task(spec_from_args(args))
    config = task.config
    if config.faults is None:
        raise ReproError("the fault plan is empty; pass --inject CLAUSES")
    result = _run_point(args, task)
    print(f"fault plan: {config.faults.describe()}")
    print(f"organization: {config.system.organization}, {config.describe()}")
    print()
    print(render_fault_summary(result.faults))
    if result.io_failures:
        print()
        print(f"I/O failures surfaced to the workload: {result.io_failures}")
    return 0


def cmd_bisect(args: argparse.Namespace) -> int:
    """Replay two run variants; binary-search their first divergence.

    Variants: ``--vary engine`` compares the fused fast engine against
    the reference engine (expected identical — a divergence is an engine
    bug); ``--vary seed`` compares ``--seed`` against ``--seed-b``
    (expected to diverge almost immediately — useful for exercising the
    bisector and for calibrating what a real divergence report looks
    like).  Exit status: 0 when the timelines are identical, 3 when a
    divergence was localized.
    """
    spec = spec_from_args(args)
    task = spec_to_task(spec)
    replay_a = performance_replay(task.config, **dict(task.kwargs))
    if args.vary == "engine":
        label_a, label_b = "fast engine", "reference engine"
        replay_b = performance_replay(
            task.config,
            simulator_factory=lambda: Simulator(immediate_queue=False),
            **dict(task.kwargs),
        )
    else:  # seed
        seed_b = args.seed_b if args.seed_b is not None else args.seed + 1
        label_a, label_b = f"seed {args.seed}", f"seed {seed_b}"
        task_b = spec_to_task({**spec, "seed": seed_b})
        replay_b = performance_replay(task_b.config, **dict(task_b.kwargs))
    print(f"run A: {label_a}; run B: {label_b}", file=sys.stderr)
    report = bisect_divergence(
        replay_a, replay_b, cadence=args.cadence, fine_limit=args.fine_limit
    )
    print(report.render())
    return 3 if report.diverged else 0


def cmd_compare(args: argparse.Namespace) -> int:
    # Figure 6 picks every workload and policy itself; only the system,
    # seed and caps come from flags, decoded on a stand-in workload.
    task = spec_to_task({**spec_from_args(args), "workload": "SC"})
    runner = make_runner(args)
    cells = figure6(
        task.config.system, seed=task.config.seed, runner=runner,
        **dict(task.kwargs),
    )
    _finish(runner)
    sequential = GroupedBarChart(
        "Sequential performance (% of max)", value_format="{:.1f}%", maximum=100.0
    )
    application = GroupedBarChart(
        "Application performance (% of max)", value_format="{:.1f}%", maximum=100.0
    )
    for cell in cells:
        sequential.add(cell.workload, cell.policy_label, cell.sequential_percent)
        application.add(cell.workload, cell.policy_label, cell.application_percent)
    print(sequential.render())
    print()
    print(application.render())
    return 0


def _package_times(stats: pstats.Stats) -> dict[str, dict[str, float]]:
    """Sum a cProfile run's self time and calls by ``repro`` package.

    A function's package is its first path component under ``repro/``
    (``sim``, ``disk``, ...; a top-level module counts as its own).  A
    function outside the package (stdlib, or a builtin such as
    ``heappop``) is charged to its direct callers' packages with the
    per-caller time pstats records; what callers outside the package
    spent goes to ``other``, so the rows sum to the profile total.
    Returns ``{package: {"calls": n, "seconds": s}}``.
    """
    root = str(Path(__file__).resolve().parent) + os.sep
    layers: dict[str, dict[str, float]] = {}

    def charge(filename: str, calls: int, seconds: float) -> None:
        name = "other"
        if filename.startswith(root):
            name = filename[len(root):].split(os.sep, 1)[0].removesuffix(".py")
        row = layers.setdefault(name, {"calls": 0, "seconds": 0.0})
        row["calls"] += calls
        row["seconds"] += seconds

    for (filename, _, _), (_, calls, seconds, _, callers) in stats.stats.items():
        if filename.startswith(root):
            charge(filename, calls, seconds)
            continue
        for (caller, _, _), (caller_calls, _, spent, _) in callers.items():
            charge(caller, caller_calls, spent)
            seconds -= spent
        charge("", 0, seconds)  # time no caller accounts for
    return layers


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile one performance-experiment point under cProfile.

    Prints the scheduler counters (events executed, events/sec, events
    still pending at the cap), cProfile's self time summed by ``repro`` package (see
    :func:`_package_times`), and its hottest functions.  cProfile
    charges its per-call overhead to whichever layer makes the calls,
    so call-heavy layers read high (on a TS buddy point at scale 0.25
    ``alloc`` reads about 27 % here against about 21 % in the traced
    ``fig6_ts`` pass of ``benchmarks/e2e``, which stays the record for
    layer shares).  This
    is a diagnostic command — output contains wall-clock timings and is
    not byte-stable between runs.
    """
    task = spec_to_task(spec_from_args(args))
    config = task.config
    sims: list[Simulator] = []

    def factory() -> Simulator:
        sim = Simulator()
        sims.append(sim)
        return sim

    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = run_performance_experiment(
        config, simulator_factory=factory, **dict(task.kwargs)
    )
    profiler.disable()
    wall_s = time.perf_counter() - started
    sim = sims[0]
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    layers = _package_times(stats)

    if args.json:
        document = {
            "config": config.describe(),
            "wall_s": wall_s,
            "simulated_ms": sim.now,
            "events_executed": sim.events_executed,
            "events_per_sec": sim.events_executed / wall_s,
            "pending_events": sim.pending_events,
            "application_percent": result.application.percent,
            "sequential_percent": result.sequential.percent,
            "layers": layers,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0

    print(f"profile: {config.describe()}")
    print(
        f"wall {wall_s:.2f}s, simulated {sim.now / 1000.0:.1f}s, "
        f"{sim.events_executed:,d} events "
        f"({sim.events_executed / wall_s:,.0f} events/sec), "
        f"{sim.pending_events} pending"
    )
    print(
        f"application {result.application.percent:.1f}%  "
        f"sequential {result.sequential.percent:.1f}% of max bandwidth"
    )
    print()
    print("-- cProfile: self time by package --")
    total_s = stats.total_tt
    print(f"{'package':12s} {'calls':>14s} {'seconds':>10s} {'share':>7s}")
    for name, row in sorted(layers.items(), key=lambda item: -item[1]["seconds"]):
        seconds = row["seconds"]
        share = seconds / total_s if total_s else 0.0
        print(f"{name:12s} {row['calls']:>14,d} {seconds:>10.3f} {share:>7.1%}")
    print(f"{'total':12s} {stats.total_calls:>14,d} {total_s:>10.3f}")
    print()
    label = (
        "internal time" if args.sort == "tottime" else "cumulative time"
    )
    print(f"-- cProfile: top {args.limit} functions by {label} --")
    stats.sort_stats(args.sort).print_stats(args.limit)
    print(stream.getvalue().rstrip())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Export a span trace (and optionally metrics) of one perf point.

    The trace is deterministic — same config and seed, same bytes — and
    the Chrome format loads directly into https://ui.perfetto.dev.  The
    document goes to ``--trace-out`` when given, else to stdout; status
    lines stay on stderr either way.
    """
    spec = spec_from_args(args)
    spec["kwargs"].update(collect_trace=True, collect_metrics=args.metrics)
    task = spec_to_task(spec)
    result = _run_point(args, task)
    trace = result.trace
    render = trace_to_chrome if args.format == "chrome" else trace_to_jsonl
    rendered = render(trace)
    if args.trace_out:
        Path(args.trace_out).write_text(rendered)
        print(
            f"trace: {trace.span_count} spans, {len(trace.instants)} "
            f"instants, {trace.frozen_at_ms / 1000.0:.1f}s simulated -> "
            f"{args.trace_out}",
            file=sys.stderr,
        )
    if args.json:
        document = {
            "config": task.config.describe(),
            "format": args.format,
            "span_count": trace.span_count,
            "instant_count": len(trace.instants),
            "frozen_at_ms": trace.frozen_at_ms,
            "application_percent": result.application.percent,
            "sequential_percent": result.sequential.percent,
        }
        if result.metrics is not None:
            document["metrics"] = result.metrics
        print(json.dumps(document, indent=2, sort_keys=True))
    elif not args.trace_out:
        sys.stdout.write(rendered)
    elif result.metrics is not None:
        print(render_metrics_snapshot(result.metrics))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the experiment service daemon until interrupted.

    The state directory is the unit of durability: restart on the same
    ``--state-dir`` after any crash (including SIGKILL) and the service
    recovers its accepted-but-unfinished jobs from the run ledger and
    finishes them bit-identically.
    """
    import signal

    service = ExperimentService(
        args.state_dir,
        workers=args.workers,
        max_queue=args.max_queue,
        timeout_s=args.timeout,
        retries=args.retries,
        jitter_seed=args.jitter_seed,
    )
    service.start()
    daemon = make_daemon(
        service,
        host=args.host,
        port=args.port,
        chaos=args.chaos,
        quiet=not args.verbose,
    )
    host, port = daemon.server_address[:2]
    print(
        f"serve: listening on http://{host}:{port} "
        f"(state {args.state_dir}, {args.workers} workers, "
        f"budget {args.max_queue}"
        f"{', CHAOS ENDPOINTS ENABLED' if args.chaos else ''})",
        file=sys.stderr,
        flush=True,
    )
    recovered = service.metrics.counters["serve.recovered"]
    if recovered:
        print(
            f"serve: recovered {recovered} unfinished job(s) "
            "from the ledger",
            file=sys.stderr,
            flush=True,
        )

    # A container stop sends SIGTERM; fold it into the KeyboardInterrupt
    # path so both shut down identically.
    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        daemon.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        daemon.server_close()
        service.stop()
    print("serve: stopped", file=sys.stderr)
    return 0


def _http_json(
    url: str, body: dict | None = None, timeout_s: float = 630.0
) -> tuple[int, dict]:
    """POST (or GET when ``body`` is None) a JSON document; never raise
    on HTTP error statuses — the status code is part of the protocol."""
    import urllib.error
    import urllib.request

    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout_s) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        try:
            return error.code, json.loads(error.read())
        except ValueError:
            return error.code, {"error": str(error)}
    except (urllib.error.URLError, OSError) as error:
        raise ReproError(f"cannot reach {url}: {error}") from None


def _follow_events(base_url: str, key: str) -> None:
    """Stream a job's SSE events to stderr until the terminal event."""
    import urllib.request

    url = f"{base_url}/v1/jobs/{key}/events"
    with urllib.request.urlopen(url, timeout=630.0) as stream:
        event_name = None
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                event_name = line[len("event: "):]
            elif line.startswith("data: "):
                print(f"event[{event_name}]: {line[len('data: '):]}",
                      file=sys.stderr)
                if event_name == "done":
                    return


def _load_spec(path: str) -> object:
    """The JSON document in ``path`` ('-' reads stdin)."""
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as error:
        raise ReproError(f"cannot read spec file {path}: {error.strerror}") from None
    try:
        return json.loads(text)
    except ValueError as error:
        raise ReproError(f"spec file {path} is not JSON: {error}") from None


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit one experiment to a running ``repro serve`` daemon.

    The spec is built locally from the same flags ``perf``/``alloc``
    use (or loaded from ``--spec FILE``) and decoded with the daemon's
    own codec, so a submission is validated client-side before it
    travels.  Exit status: 0 done, 1 the job failed, 9 still running
    (no/expired ``--wait``), 75 shed by admission control (EX_TEMPFAIL —
    retry later).
    """
    if args.spec:
        spec = _load_spec(args.spec)
    else:
        spec = spec_from_args(
            args, "allocation" if args.kind == "alloc" else "performance"
        )
        if args.fingerprints and args.kind == "perf":
            spec["audit"] = {"fingerprints": True}
    task = spec_to_task(spec)

    base = args.url.rstrip("/")
    status, body = _http_json(
        f"{base}/v1/experiments",
        {"spec": task_to_spec(task), "priority": args.priority, "wait_s": args.wait},
    )
    if status == 429:
        print(
            f"submit: shed by admission control "
            f"(depth {body.get('depth')}/{body.get('budget')}); "
            f"retry in ~{body.get('retry_after_s', 1):.0f}s",
            file=sys.stderr,
        )
        return 75
    if status not in (200, 202):
        raise ReproError(f"submit failed ({status}): {body.get('error', body)}")

    key = body.get("job", "")
    print(f"submit: job {key} {body.get('submitted')} -> {body.get('status')}",
          file=sys.stderr)
    if args.follow and body.get("status") not in ("done", "failed"):
        _follow_events(base, key)
        _, body = _http_json(f"{base}/v1/jobs/{key}")
    print(json.dumps(body, indent=2, sort_keys=True))
    if body.get("status") == "done":
        return 0
    if body.get("status") == "failed":
        return 1
    return 9


def cmd_table1(args: argparse.Namespace) -> int:
    system = SystemConfig()
    table = Table(["Parameter", "Value"], title="Table 1: the simulated disk system")
    table.add_row(["Drive", WREN_IV.name])
    table.add_row(["Disks", system.n_disks])
    table.add_row(["Capacity", f"{system.capacity_bytes / 1e9:.2f} GB"])
    table.add_row(
        [
            "Max sustained throughput",
            f"{system.n_disks * WREN_IV.sustained_bytes_per_ms * 1000 / MIB:.2f} MiB/s",
        ]
    )
    table.add_row(["Platters", WREN_IV.platters])
    table.add_row(["Cylinders", WREN_IV.cylinders])
    table.add_row(["Track", f"{WREN_IV.track_bytes} bytes"])
    table.add_row(["Single-track seek", f"{WREN_IV.single_track_seek_ms} ms"])
    table.add_row(["Incremental seek", f"{WREN_IV.incremental_seek_ms} ms"])
    table.add_row(["Rotation", f"{WREN_IV.rotation_ms} ms"])
    print(table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Read Optimized File System Designs — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_runner(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for independent sweep points "
                            "(0 = one per CPU; results are identical to --jobs 1)")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result cache directory; rerunning an "
                            "interrupted sweep against it resumes the sweep "
                            f"(default: {default_cache_dir()})")
        p.add_argument("--no-cache", action="store_true",
                       help="always simulate; neither read nor write the cache")
        p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-point wall-clock timeout; a point over "
                            "budget has its worker killed (and retried per "
                            "--retries)")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="extra attempts after a worker crash or timeout "
                            "(exponential backoff with seeded jitter)")
        p.add_argument("--live", action="store_true",
                       help="render a live telemetry status line on stderr "
                            "(per-point stage/progress/ETA; stdout is "
                            "unaffected)")

    alloc = sub.add_parser("alloc", help="run the allocation (fragmentation) test")
    add_spec_args(alloc)
    add_runner(alloc)
    alloc.set_defaults(func=cmd_alloc)

    perf = sub.add_parser("perf", help="run the application + sequential tests")
    add_spec_args(perf, cap_ms=60_000.0, organization="striped", inject=None)
    add_runner(perf)
    perf.add_argument("--audit", action="store_true",
                      help="run with the invariant auditor attached; any "
                           "bookkeeping violation aborts the run with a "
                           "structured error")
    perf.set_defaults(func=cmd_perf)

    bisect = sub.add_parser(
        "bisect",
        help="replay two run variants and binary-search the first "
             "diverging event via state fingerprints",
    )
    add_spec_args(bisect, cap_ms=8_000.0, organization="striped")
    bisect.add_argument("--vary", choices=("engine", "seed"), default="engine",
                        help="what differs between run A and run B: the "
                             "engine variant (fast vs reference; expected "
                             "identical) or the seed (expected to diverge)")
    bisect.add_argument("--seed-b", type=int, default=None,
                        help="run B's seed for --vary seed "
                             "(default: --seed + 1)")
    bisect.add_argument("--cadence", type=int, default=10_000,
                        help="coarse-pass fingerprint cadence (events)")
    bisect.add_argument("--fine-limit", type=int, default=1_024,
                        help="bracket size below which the every-event "
                             "fine pass replaces further probing")
    bisect.set_defaults(func=cmd_bisect)

    faults = sub.add_parser(
        "faults",
        help="inject faults into a redundant organization; report "
             "degraded-mode throughput",
    )
    add_spec_args(
        faults, cap_ms=60_000.0, organization="raid5",
        inject="fail:drive=0,at=15000,repair=40000",
    )
    add_runner(faults)
    faults.set_defaults(func=cmd_faults)

    compare = sub.add_parser("compare", help="Figure 6: four policies, three workloads")
    add_spec_args(compare, cap_ms=40_000.0, policy=False)
    add_runner(compare)
    compare.set_defaults(func=cmd_compare)

    profile = sub.add_parser(
        "profile",
        help="profile one perf point: cProfile by package + engine counters",
    )
    add_spec_args(profile, cap_ms=20_000.0)
    profile.add_argument("--sort", choices=("tottime", "cumtime"),
                         default="tottime",
                         help="cProfile ordering: internal (tottime) or "
                              "cumulative (cumtime) time")
    profile.add_argument("--limit", type=int, default=12,
                         help="how many functions to print")
    profile.add_argument("--json", action="store_true",
                         help="print engine counters and the per-package "
                              "breakdown as JSON (no cProfile text)")
    profile.set_defaults(func=cmd_profile)

    trace = sub.add_parser(
        "trace",
        help="export a span trace of one perf point "
             "(Chrome/Perfetto or JSONL)",
    )
    add_spec_args(trace, cap_ms=8_000.0, organization="striped", inject=None)
    add_runner(trace)
    trace.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write the trace document here instead of stdout")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome",
                       help="chrome: one trace_event JSON document "
                            "(Perfetto-loadable); jsonl: one object per line")
    trace.add_argument("--metrics", action="store_true",
                       help="also collect the metrics snapshot (histograms, "
                            "counters) and report it")
    trace.add_argument("--json", action="store_true",
                       help="print a JSON summary (span counts, phase "
                            "percentages, metrics) to stdout")
    trace.set_defaults(func=cmd_trace)

    serve = sub.add_parser(
        "serve",
        help="run the experiment service daemon (HTTP/JSON, durable, "
             "single-flight)",
    )
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="durable state root (run ledger + result "
                            "store); restart on the same DIR to recover "
                            "in-flight work")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes executing experiments")
    serve.add_argument("--max-queue", type=int, default=32,
                       help="admission budget: jobs queued or running "
                            "before requests shed with 429 + Retry-After")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-job wall-clock timeout (hung workers are "
                            "killed; the job retries per --retries)")
    serve.add_argument("--retries", type=int, default=1, metavar="N",
                       help="extra attempts after a worker crash or timeout")
    serve.add_argument("--jitter-seed", type=int, default=0,
                       help="seeds the deterministic retry-backoff jitter")
    serve.add_argument("--chaos", action="store_true",
                       help="enable the fault-drill endpoints "
                            "(POST /v1/chaos/kill-worker)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each HTTP request to stderr")
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit one experiment to a running serve daemon",
    )
    add_spec_args(submit, cap_ms=60_000.0, organization="striped", inject=None)
    submit.add_argument("--url", default="http://127.0.0.1:8765",
                        help="base URL of the serve daemon")
    submit.add_argument("--kind", choices=("perf", "alloc"), default="perf")
    submit.add_argument("--fingerprints", action="store_true",
                        help="request audit fingerprints (the bit-identity "
                             "witness) with the result")
    submit.add_argument("--spec", default=None, metavar="FILE",
                        help="submit this JSON spec file ('-' reads "
                             "stdin) instead of building one from flags")
    submit.add_argument("--priority", choices=("high", "normal", "low"),
                        default="normal")
    submit.add_argument("--wait", type=float, default=None, metavar="SECONDS",
                        help="block until the job finishes (bounded)")
    submit.add_argument("--follow", action="store_true",
                        help="stream the job's SSE telemetry to stderr "
                             "until it finishes")
    submit.set_defaults(func=cmd_submit)

    table1 = sub.add_parser("table1", help="print the simulated disk system")
    table1.set_defaults(func=cmd_table1)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Library errors (:class:`ReproError` — bad configurations, failed
    sweep points) print to stderr and exit 2, matching argparse's own
    usage-error status; only genuine bugs surface as tracebacks.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SweepInterrupted as interrupted:
        where = interrupted.partial_dir
        saved = (
            f"partial results flushed to {where}; rerun with "
            f"--cache-dir {where} to resume"
            if where is not None
            else "nothing was persisted (caching is off)"
        )
        print(
            f"repro: interrupted ({interrupted.completed}/{interrupted.total} "
            f"points done) — {saved}",
            file=sys.stderr,
        )
        return 130
    except KeyboardInterrupt:
        # Interrupted outside a sweep (argument parsing, report
        # rendering): nothing partial to flush, same conventional status.
        print("repro: interrupted", file=sys.stderr)
        return 130
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

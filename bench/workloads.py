"""The five benchmark workloads and the metrics each one reports.

Every workload runs the program in fresh subprocesses through the real
``repro.cli.main`` entry point.  An untraced run measures the end-to-end
metrics; a traced run makes one counters-only baseline pass and one pass
with span wrappers, and reports the per-layer metrics of the latter.

Why these five:

* ``figures`` — what a reader of the paper reruns (Figs. 1–3).  Stresses
  the dense flowsim kernel, the policies and the work-stealing runtime at
  small active sets; bypasses the order structures, the wire and the
  journal.
* ``stream_shallow`` — the streamed synthetic replay with an active set in
  the tens: lazy generation, harvest and the metrics fold carry a real
  share, and the order structures stay idle.
* ``stream_overload`` — an SWF log replayed on a machine that lost 6 of
  its 16 processors (offered load about 1.44): the active set climbs into
  the thousands, so the incremental order/calendar kernels and the SWF
  parser dominate.
* ``serve_single`` — the live tier with one engine: wire decode/encode
  and engine ``advance_to``, no journal, no router.
* ``serve_sharded`` — two journaled subprocess shards behind the
  consistent-hash router, with tenant-labelled traffic so both shards get
  work: adds the router hop and journal snapshots.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from common import (
    BenchError,
    Child,
    CliRun,
    Speed,
    child,
    kill_tree,
    median,
    quantile,
    read_listen_port,
    run_cli,
    tree_cpu_s,
    tree_peak_rss_mb,
)
from layers import KERNEL_COUNTERS, Spans, layer_metrics
from loadgen import Conn, Phase, drive

#: (name, unit) of every end-to-end metric
END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
]

#: set-up samples per run; each is a fresh process (a fresh server tree)
SETUP_SAMPLES = 5
SHARDED_SETUP_SAMPLES = 3


@dataclass
class Ctx:
    seed: int
    seconds: float
    work: Path
    trace: bool
    #: CPUs program processes run on, and the one the benchmark keeps
    cpus: frozenset[int] | None = None
    bench_cpus: frozenset[int] | None = None

    def program(self, trace_dir: Path | None = None, mode: str = "spans") -> Child:
        return child(trace_dir, mode, self.cpus)


def _raw_note(raw: dict[str, float], speed: Speed) -> str:
    """The unscaled metrics and how slow the machine ran over the whole run."""
    t0, t1 = speed.samples[0][0], speed.samples[-1][0]
    shown = ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
    return f"machine {speed.slowdown(t0, t1):.3f}x slower than the reference; unscaled: {shown}"


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _same_counters(label: str, want: dict, got: dict) -> list[str]:
    diff = {k: (want.get(k, 0), got.get(k, 0)) for k in KERNEL_COUNTERS if want.get(k, 0) != got.get(k, 0)}
    return [f"kernel counters differ ({label}): {diff}"] if diff else []


def _traced_errors(name: str, base: Spans, spans: Spans) -> list[str]:
    """Both passes left spans, engaged the same kernels and the right layers."""
    errors = _same_counters("counters-only pass vs span pass", base.counters, spans.counters)
    if spans.processes == 0 or base.processes == 0:
        errors.append("a traced pass left no span files")
    if spans.missing:
        errors.append(f"trace targets not found: {sorted(spans.missing)}")
    errors += checks.engagement_errors(
        name,
        order_calls=spans.count("flowsim.order"),
        snapshots=spans.count("serve.journal:RequestJournal.mark_snapshot"),
    )
    return errors


def _trace_notes(spans: Spans) -> list[str]:
    return [f"{spans.name.size} spans from {spans.processes} process(es); counters {spans.counters}"]


# -- CLI workloads ---------------------------------------------------------------------


@dataclass
class CliSpec:
    """A CLI workload: the commands of one repetition and how to judge them."""

    name: str
    commands: list[list[str]]
    #: jobs one repetition simulates, from its output
    jobs: Callable[[CliRun], int]
    #: errors in one repetition's output (exit codes are checked separately)
    check: Callable[[CliRun], list[str]]
    #: kernel counters the program itself reported for the last repetition
    own_counters: Callable[[], dict] | None = None


def _run_checked(spec: CliSpec, program: Child) -> tuple[CliRun, list[str]]:
    run = run_cli(spec.commands, program)
    errors = [f"{spec.name}: command exited {c}" for c in run.codes if c != 0]
    return run, errors + spec.check(run)


def run_cli_workload(ctx: Ctx, spec: CliSpec) -> Outcome:
    program = ctx.program()
    run_cli([], program)  # warm-up: byte-compiles a fresh checkout, fills the page cache
    if ctx.trace:
        return _cli_traced(ctx, spec)
    probes: list[CliRun] = []
    runs: list[CliRun] = []
    errors: list[str] = []
    with Speed(program, ctx.work / "speed.log") as speed:
        t0 = time.perf_counter()
        while True:
            # one set-up probe per repetition spreads the samples over the run
            probes.append(run_cli([], program))
            run, run_errors = _run_checked(spec, program)
            runs.append(run)
            errors += run_errors
            # start another repetition only if it fits in the measuring window
            if time.perf_counter() - t0 + run.latency_s > ctx.seconds:
                break
        while len(probes) + len(runs) < SETUP_SAMPLES:
            probes.append(run_cli([], program))
    booted = probes + runs
    raw = {
        "setup_s": median([r.setup_s for r in booted]),
        "jobs_per_s": median([spec.jobs(r) / r.work_s for r in runs]),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "latency_p50_ms": median([r.latency_s for r in runs]) * 1e3,
    }
    metrics = {
        "setup_s": median([r.setup_s / speed.slowdown(r.spawn, r.ready) for r in booted]),
        "jobs_per_s": median([spec.jobs(r) / r.work_s * speed.slowdown(r.ready, r.end) for r in runs]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "latency_p50_ms": median([r.latency_s / speed.slowdown(r.spawn, r.exit) for r in runs]) * 1e3,
    }
    notes = [
        f"{len(runs)} repetition(s) of {len(spec.commands)} command(s), {len(booted)} set-up samples; "
        "latency is spawn to exit of one repetition",
        _raw_note(raw, speed),
    ]
    attempted = len(runs) * len(spec.commands)
    failed = sum(c != 0 for r in runs for c in r.codes)
    return Outcome(metrics, attempted, failed, errors, notes)


def _cli_traced(ctx: Ctx, spec: CliSpec) -> Outcome:
    base_dir, span_dir = ctx.work / "trace-base", ctx.work / "trace-spans"
    base_dir.mkdir()
    span_dir.mkdir()
    base, errors = _run_checked(spec, ctx.program(base_dir, "counters"))
    if spec.own_counters is not None:
        errors += _same_counters("program output vs probe", spec.own_counters(), Spans.load(base_dir).counters)
    traced, traced_errors = _run_checked(spec, ctx.program(span_dir, "spans"))
    errors += traced_errors
    spans = Spans.load(span_dir)
    errors += _traced_errors(spec.name, Spans.load(base_dir), spans)
    metrics = layer_metrics(spans)
    metrics["trace.overhead_ratio"] = traced.work_s / base.work_s
    failed = sum(c != 0 for r in (base, traced) for c in r.codes)
    return Outcome(metrics, 2 * len(spec.commands), failed, errors, _trace_notes(spans))


def figures(ctx: Ctx) -> Outcome:
    def jobs(run: CliRun) -> int:
        # each table cell is one simulation of its figure's trace
        blocks = checks.parse_tables(run.stdout)
        return sum(len(b["rows"]) * len(b["columns"]) * n for b, n in zip(blocks, checks.FIGURE_JOBS.values()))

    commands = [[fig, "--workers", "1", "--seed", str(ctx.seed)] for fig in ("fig1", "fig2", "fig3")]
    spec = CliSpec("figures", commands, jobs, lambda run: checks.check_figures(run.stdout, ctx.seed))
    return run_cli_workload(ctx, spec)


# -- streams ---------------------------------------------------------------------------

SHALLOW_JOBS = 100_000
OVERLOAD_JOBS = 30_000


def _stream_spec(ctx: Ctx, name: str, n_jobs: int, command: list[str]) -> CliSpec:
    out = ctx.work / f"{name}.json"
    last_perf: dict = {}

    def check(run: CliRun) -> list[str]:
        if not out.exists():
            return [f"{name}: no summary written"]
        summary = json.loads(out.read_text())
        out.unlink()  # a later repetition must write its own
        last_perf.clear()
        last_perf.update(summary["perf"])
        return checks.check_stream(summary, name, ctx.seed, n_jobs) + checks.engagement_errors(
            name, order_calls=summary["perf"].get("order_ops", 0)
        )

    def own_counters() -> dict:
        return {k: last_perf.get(k.split(".", 1)[1], 0) for k in KERNEL_COUNTERS}

    return CliSpec(name, [command + ["--json", str(out)]], lambda run: n_jobs, check, own_counters)


def stream_shallow(ctx: Ctx) -> Outcome:
    command = [
        "stream", "--n-jobs", str(SHALLOW_JOBS), "--load", "0.8", "--m", "16",
        "--policy", "srpt", "--seed", str(ctx.seed),
    ]
    return run_cli_workload(ctx, _stream_spec(ctx, "stream_shallow", SHALLOW_JOBS, command))


def write_swf(path: Path, seed: int, n_jobs: int) -> None:
    """An SWF log of ``generate_stream(n, "exponential", 0.9, 16)`` at full precision.

    One sequential job per line: submit time = release, run time = work,
    one processor, status completed.  ``repr`` keeps every digit, so the
    replay reads back exactly the generated floats.
    """
    from repro.workloads.stream import generate_stream

    with open(path, "w") as fh:
        fh.write("; generate_stream(n, 'exponential', 0.9, 16) as an SWF log\n")
        for spec in generate_stream(n_jobs, "exponential", 0.9, 16, seed=seed):
            fh.write(f"{spec.job_id + 1} {spec.release!r} 0 {spec.work!r} 1 -1 -1 1 -1 -1 1 -1 -1 -1 -1 -1 -1 -1\n")


def stream_overload(ctx: Ctx) -> Outcome:
    swf = ctx.work / "overload.swf"
    write_swf(swf, ctx.seed, OVERLOAD_JOBS)
    command = ["stream", "--trace-file", str(swf), "--m", "10", "--policy", "srpt"]
    return run_cli_workload(ctx, _stream_spec(ctx, "stream_overload", OVERLOAD_JOBS, command))


# -- serving ---------------------------------------------------------------------------

SERVE_M = 8
SERVE_POLICY = "drep"
#: the server's own seed is program configuration, fixed; the workload
#: seed varies the request trace
SERVER_SEED = 0
SHARDS = 2
CAPACITY_WINDOW = 32
#: open-loop requests left out of the latency statistics (warm-up)
WARMUP_REQUESTS = 1000
#: share of ``--seconds`` the open-loop phase lasts; it sets the trace size
OPEN_LOOP_SHARE = 0.4


class Server:
    """A ``drep-sim serve`` process tree, booted and answering ``hello``."""

    def __init__(self, argv: list[str], program: Child) -> None:
        t_spawn = time.perf_counter()
        self.proc = program.popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            self.conn = Conn(read_listen_port(self.proc))
            hello = self.conn.call({"op": "hello"})
            if not hello.get("ok"):
                raise BenchError(f"hello failed: {hello}")
        except BaseException:
            kill_tree(self.proc)
            raise
        self.spawn, self.ready = t_spawn, time.perf_counter()
        self.pid = self.proc.pid

    def close(self) -> None:
        """Shut the tree down (shards drain first); kill it if it lingers."""
        try:
            self.conn.call({"op": "shutdown"})
            self.conn.close()
            self.proc.communicate(timeout=30)
        except (OSError, ValueError, BenchError, subprocess.TimeoutExpired):
            kill_tree(self.proc)


@dataclass
class ServePhase:
    phase: Phase
    server: Server
    cpu_s: float
    rss_mb: float
    flows: list[float]
    stats: dict
    drain_ok: bool
    journal: Path | None


@dataclass
class ServeSpec:
    name: str
    argv: list[str]
    rate: float
    specs: list
    lines: list[bytes]
    tenants: list[str] | None
    setup_samples: int
    boots: int = 0

    def boot(self, ctx: Ctx, program: Child) -> tuple[Server, Path | None]:
        """A fresh server tree; a sharded one journals into a fresh directory."""
        self.boots += 1
        journal = None
        argv = list(self.argv)
        if self.tenants is not None:
            journal = ctx.work / f"journal-{self.boots}"
            argv += ["--journal-dir", str(journal)]
        return Server(argv, program), journal

    def probe_setup(self, ctx: Ctx) -> Server:
        server, _ = self.boot(ctx, ctx.program())
        server.close()
        return server


def _serve_spec(ctx: Ctx, sharded: bool) -> ServeSpec:
    from repro.serve.loadgen import tenant_labels
    from repro.workloads.traces import generate_trace

    rate = 700.0 if sharded else 2000.0
    n = int(rate * ctx.seconds * OPEN_LOOP_SHARE) + WARMUP_REQUESTS
    fleet = SERVE_M * (SHARDS if sharded else 1)
    trace = generate_trace(n, "finance", 0.7, fleet, seed=ctx.seed)
    # unlabelled jobs all route to one shard; Zipf tenants spread them
    tenants = tenant_labels(n, 16, "zipf:1.0", seed=ctx.seed) if sharded else None
    lines = []
    for k, job in enumerate(trace.jobs):
        request = {
            "op": "submit", "work": job.work, "span": job.span, "mode": job.mode.value,
            "weight": job.weight, "release": job.release,
        }
        if tenants is not None:
            request["tenant"] = tenants[k]
        lines.append(json.dumps(request).encode() + b"\n")
    argv = ["--m", str(SERVE_M), "--policy", SERVE_POLICY, "--seed", str(SERVER_SEED)]
    if sharded:
        argv += ["--shards", str(SHARDS)]
    return ServeSpec(
        "serve_sharded" if sharded else "serve_single",
        argv,
        rate,
        trace.jobs,
        lines,
        tenants,
        SHARDED_SETUP_SAMPLES if sharded else SETUP_SAMPLES,
    )


def _serve_phase(ctx: Ctx, spec: ServeSpec, kind: str, program: Child) -> ServePhase:
    server, journal = spec.boot(ctx, program)
    try:
        cpu0 = tree_cpu_s(server.pid)
        if kind == "capacity":
            phase = drive(server.conn, spec.lines, window=CAPACITY_WINDOW)
        else:
            phase = drive(server.conn, spec.lines, rate=spec.rate)
        cpu = tree_cpu_s(server.pid) - cpu0
        stats = server.conn.call({"op": "stats"})["stats"]
        drain = server.conn.call({"op": "drain", "include_flows": True})
        rss = tree_peak_rss_mb(server.pid)
    finally:
        server.close()
    flows = drain.get("flow_times") if spec.tenants is None else drain.get("result", {}).get("flow_times")
    return ServePhase(phase, server, cpu, rss, flows or [], stats, bool(drain.get("ok")), journal)


def _shard_balance(stats: dict) -> float:
    """Smallest shard's share of accepted jobs (router ``stats``)."""
    counts = [row["submitted"] for row in stats["per_shard"].values()]
    return min(counts) / sum(counts) if sum(counts) else 0.0


def _phase_errors(spec: ServeSpec, run: ServePhase, reference: list[float] | None) -> list[str]:
    """Replay check of one phase; every later phase must equal the first exactly."""
    if not run.drain_ok:
        return [f"{spec.name}: drain failed"]
    if reference is not None:
        return [] if run.flows == reference else [f"{spec.name}: phases drained different flow times"]
    if spec.tenants is None:
        return checks.compare_flows(spec.name, run.flows, spec.specs, SERVE_M, SERVE_POLICY, SERVER_SEED)
    return checks.check_serve_sharded(
        run.flows, spec.specs, spec.tenants, SHARDS, SERVE_M, SERVE_POLICY, SERVER_SEED
    )


def _serve_passes(
    ctx: Ctx, spec: ServeSpec, programs: list[Child], reference: list[float] | None = None
) -> tuple[list[ServePhase], list[str]]:
    """A capacity phase and an open-loop phase, each on a fresh server tree."""
    runs, errors = [], []
    for kind, program in zip(("capacity", "open_loop"), programs):
        run = _serve_phase(ctx, spec, kind, program)
        errors += _phase_errors(spec, run, reference)
        reference = reference if reference is not None else run.flows
        if spec.tenants is not None:
            snapshots = sum(1 for _ in run.journal.glob("shard-*/snapshot.json"))
            errors += checks.engagement_errors(spec.name, snapshots=snapshots, balance=_shard_balance(run.stats))
        runs.append(run)
    return runs, errors


def _serve_counts(runs: list[ServePhase]) -> tuple[int, int]:
    attempted = sum(r.phase.n + 1 for r in runs)  # submits and the drain
    failed = sum(r.phase.failed + (not r.drain_ok) for r in runs)
    return attempted, failed


def run_serve_workload(ctx: Ctx, sharded: bool) -> Outcome:
    spec = _serve_spec(ctx, sharded)
    spec.probe_setup(ctx)  # warm-up boot
    if ctx.trace:
        return _serve_traced(ctx, spec)
    # a request's latency is spent on both sides: sample the load
    # generator's CPU too
    with Speed(ctx.program(), ctx.work / "speed.log") as speed, Speed(
        child(cpus=ctx.bench_cpus), ctx.work / "speed-client.log"
    ) as client_speed:
        servers = [spec.probe_setup(ctx)]
        runs, errors = _serve_passes(ctx, spec, [ctx.program()] * 2)
        servers += [r.server for r in runs]
        while len(servers) < spec.setup_samples:
            servers.append(spec.probe_setup(ctx))
    capacity, open_loop = runs[0].phase, runs[1].phase
    window = (open_loop.send[0], open_loop.ack[-1])
    latencies = open_loop.latencies_s(skip=WARMUP_REQUESTS)
    raw = {
        "setup_s": median([s.ready - s.spawn for s in servers]),
        "jobs_per_s": capacity.rate(),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "latency_p50_ms": median(latencies) * 1e3,
    }
    metrics = {
        "setup_s": median([(s.ready - s.spawn) / speed.slowdown(s.spawn, s.ready) for s in servers]),
        "jobs_per_s": raw["jobs_per_s"] * speed.slowdown(capacity.send[0], capacity.ack[-1]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "latency_p50_ms": raw["latency_p50_ms"]
        / ((speed.slowdown(*window) + client_speed.slowdown(*window)) / 2),
    }
    late = open_loop.lateness_s(skip=WARMUP_REQUESTS)
    notes = [
        f"capacity: {capacity.n} submits, window {CAPACITY_WINDOW}; open loop: {open_loop.n} submits at "
        f"{spec.rate:g}/s, latency from due time over {len(latencies)} samples after {WARMUP_REQUESTS} warm-up",
        f"diagnostics: ack p99 {(quantile(latencies, 0.99) or 0) * 1e3:.3f} ms, generator lateness "
        f"p50 {median(late) * 1e3:.3f} ms; {len(servers)} set-up samples",
        _raw_note(raw, speed),
    ]
    attempted, failed = _serve_counts(runs)
    return Outcome(metrics, attempted, failed, errors, notes)


def _serve_traced(ctx: Ctx, spec: ServeSpec) -> Outcome:
    # each phase boots its own tree, and each tree writes into its own directory
    dirs = [ctx.work / f"trace-{key}" for key in ("base-cap", "base-ol", "spans-cap", "spans-ol")]
    for d in dirs:
        d.mkdir()
    base, errors = _serve_passes(ctx, spec, [ctx.program(d, "counters") for d in dirs[:2]])
    traced, more = _serve_passes(ctx, spec, [ctx.program(d, "spans") for d in dirs[2:]], base[0].flows)
    errors += more
    spans = Spans.load(*dirs[2:])
    errors += _traced_errors(spec.name, Spans.load(*dirs[:2]), spans)
    open_loop = traced[1].phase
    metrics = layer_metrics(
        spans,
        serve={
            "requests": sum(r.phase.n for r in traced),
            "pid": traced[1].server.pid,
            "window": (open_loop.send[0], open_loop.ack[-1]),
            "cpu_us_per_req": base[0].cpu_s / base[0].phase.n * 1e6,
            "balance": _shard_balance(traced[0].stats) if spec.tenants is not None else 0.0,
        },
    )
    base_ol = base[1].phase
    latencies = base_ol.latencies_s(skip=WARMUP_REQUESTS)
    metrics["loadgen.late_p99_ms"] = (quantile(base_ol.lateness_s(skip=WARMUP_REQUESTS), 0.99) or 0.0) * 1e3
    metrics["loadgen.ack_p99_ms"] = (quantile(latencies, 0.99) or 0.0) * 1e3
    metrics["loadgen.ack_p999_ms"] = (quantile(latencies, 0.999) or 0.0) * 1e3
    metrics["loadgen.samples"] = float(len(latencies))
    metrics["trace.overhead_ratio"] = traced[0].phase.wall_s / base[0].phase.wall_s
    attempted, failed = _serve_counts(base + traced)
    notes = _trace_notes(spans) + [
        "loadgen.* and serve.server.cpu_us_per_req come from the counters-only pass; "
        "loadgen.ack_p99_ms/ack_p999_ms read 0 when fewer than 10 samples lie beyond them"
    ]
    return Outcome(metrics, attempted, failed, errors, notes)


def serve_single(ctx: Ctx) -> Outcome:
    return run_serve_workload(ctx, sharded=False)


def serve_sharded(ctx: Ctx) -> Outcome:
    return run_serve_workload(ctx, sharded=True)


WORKLOADS = {
    "figures": figures,
    "stream_shallow": stream_shallow,
    "stream_overload": stream_overload,
    "serve_single": serve_single,
    "serve_sharded": serve_sharded,
}
